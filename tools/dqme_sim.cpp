// dqme_sim — command-line experiment runner.
//
// Runs any algorithm/quorum/load combination the library supports and
// prints the full metric set; the programmable counterpart to the fixed
// E1..E9 benches. Exits non-zero on a safety or liveness failure, so it
// can sit inside shell loops and CI jobs.
//
// Examples:
//   dqme_sim --algo cao-singhal --n 49 --quorum grid
//   dqme_sim --algo maekawa --n 13 --quorum fpp --load open --rate 0.5
//   dqme_sim --algo cao-singhal --n 15 --quorum tree --ft
//            --crash 500000:0 --crash 900000:7   (one line)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/experiment_flags.h"
#include "harness/table.h"
#include "obs/chrome_trace.h"
#include "rt/driver.h"
#include "verify/explorer.h"

namespace {

using namespace dqme;

constexpr const char* kRtSection = "rt backend only (--backend rt):";

// --backend rt: the real-threads free-run driver (rt::run_free) behind the
// same CLI. main() rejects simulator-section flags first, so a
// copy-pasted sim command line cannot masquerade as an rt measurement.
int rt_backend_main(const rt::FreeRunConfig& cfg) {
  std::cout << "dqme_sim [rt backend]: " << mutex::to_string(cfg.algo)
            << "  N=" << cfg.n << " (pump threads)";
  if (mutex::algo_uses_quorum(cfg.algo))
    std::cout << "  quorum=" << cfg.quorum;
  std::cout << "  locks=" << cfg.num_locks
            << "  wire_delay=" << cfg.wire_delay_us << "us"
            << "  seed=" << cfg.seed << "\n\n";

  const rt::FreeRunResult r = rt::run_free(cfg);

  harness::Table out({"metric", "value"});
  using harness::Table;
  out.add_row({"CS entries", Table::integer(r.cs_entries)});
  out.add_row({"wall seconds", Table::num(r.wall_seconds, 3)});
  out.add_row({"handoffs / sec", Table::num(r.handoffs_per_sec, 1)});
  out.add_row({"wire messages / sec", Table::num(r.wire_msgs_per_sec, 1)});
  out.add_row({"wire messages", Table::integer(r.stats.wire_messages)});
  out.add_row({"delivered messages",
               Table::integer(r.stats.delivered_messages)});
  out.add_row({"ring overflows (spilled)",
               Table::integer(r.stats.spilled_messages)});
  if (cfg.check) {
    out.add_row({"safety probe violations",
                 Table::integer(r.probe_violations)});
    out.add_row({"invariant violations (merged replay)",
                 Table::integer(r.violations)});
  }
  out.print(std::cout);
  for (const std::string& rep : r.reports) std::cout << "  " << rep << "\n";

  std::cout << (r.ok ? "\nOK: safe and live.\n"
                     : "\nFAILED: " +
                           (r.error.empty() ? "violations detected" : r.error) +
                           "\n");
  return r.ok ? 0 : 1;
}

// Replays a schedule emitted by dqme_explore --repro-out: rebuilds the
// World the schedule's embedded config describes, re-applies every action,
// and reports what the invariant checker flags. Deterministic, so the
// explorer's counterexample reproduces exactly.
int replay_schedule_main(const std::string& path,
                         const std::string& trace_out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  verify::WorldConfig cfg;
  std::vector<verify::Action> actions;
  std::string err;
  if (!verify::read_schedule(in, cfg, actions, &err)) {
    std::cerr << path << ": " << err << "\n";
    return 2;
  }
  const bool capture = !trace_out.empty();
  auto world = verify::replay_schedule(cfg, actions, capture);

  std::cout << "dqme_sim --replay-schedule: " << mutex::to_string(cfg.algo)
            << "  N=" << cfg.n << "  quorum=" << cfg.quorum
            << "  cs/site=" << cfg.cs_per_site;
  if (cfg.mutation != verify::Mutation::kNone)
    std::cout << "  mutation=" << verify::to_string(cfg.mutation);
  std::cout << "\n  " << actions.size() << " actions, sealed="
            << (world->sealed() ? "yes" : "no") << ", violations="
            << world->violations() << "\n";
  for (const std::string& r : world->reports()) std::cout << "  " << r
                                                          << "\n";
  if (capture) {
    obs::ChromeTraceData data;
    data.n_sites = cfg.n;
    data.label = "replay of " + path;
    data.messages = world->trace_recorder()->events();
    data.span_events = world->span_recorder()->events();
    std::ofstream f(trace_out);
    if (!f) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 2;
    }
    obs::write_chrome_trace(f, data);
    std::cout << "[trace] wrote " << trace_out << " ("
              << data.messages.size() << " messages)\n";
  }
  std::cout << (world->violations() == 0
                    ? "OK: schedule replays clean.\n"
                    : "REPRODUCED: schedule violates the invariants.\n");
  return world->violations() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  harness::ExperimentConfig cfg;
  double rate = 0.5;
  bool rt_backend = false;
  std::string trace_out;
  std::string replay_schedule;
  rt::FreeRunConfig rt_cfg;
  rt_cfg.target_entries = 5000;
  rt_cfg.wire_delay_us = 100;
  rt_cfg.check = true;

  flags::Flags f("dqme_sim");
  f.choice("--backend", &rt_backend, {{"sim", false}, {"rt", true}}, "B",
           "sim (discrete-event, default) | rt (real threads: one\n"
           "pump thread per site on lock-free SPSC rings; wall-clock\n"
           "numbers)");
  harness::add_experiment_flags(f, cfg, rate);
  f.toggle("--no-piggyback", &cfg.options.piggyback,
           "disable piggybacking (ablation)", false)
      .value("--trace-out", &trace_out, "FILE",
             "record the run and write Chrome trace-event JSON\n"
             "(chrome://tracing / ui.perfetto.dev)")
      .value("--replay-schedule", &replay_schedule, "FILE",
             "replay a dqme_explore schedule (its config rides in the\n"
             "file; other options except --trace-out are ignored);\n"
             "exits 1 when the replay reproduces a violation");
  f.section(kRtSection)
      .value("--entries", &rt_cfg.target_entries, "N",
             "aggregate CS entries to perform (default 5000)")
      .value("--max-seconds", &rt_cfg.max_seconds, "S",
             "soft wall-clock stop (default 30)")
      .value("--outstanding", &rt_cfg.outstanding, "K",
             "per-site pipeline depth, --locks > 1 only (default 8)")
      .value("--wire-delay-us", &rt_cfg.wire_delay_us, "D",
             "emulated wire latency in microseconds — the paper's T\n"
             "on real threads (default 100; 0 = raw ring speed)")
      .toggle("--no-check", &rt_cfg.check,
              "skip the safety probe and the merged invariant-checker\n"
              "replay",
              false);
  const std::vector<std::string> positional = f.parse(argc, argv);
  if (!positional.empty())
    f.fail("unexpected argument '" + positional.front() + "'");

  if (rt_backend) {
    for (const std::string& name : f.seen_in(harness::kSimulatorSection))
      f.fail(name +
             " is simulator-only: the rt backend runs wall-clock with real "
             "threads (see --wire-delay-us / --entries / --max-seconds), so "
             "simulated-time shaping does not apply");
    rt_cfg.algo = cfg.algo;
    rt_cfg.n = cfg.n;
    rt_cfg.quorum = cfg.quorum;
    rt_cfg.num_locks = cfg.options.num_locks;
    rt_cfg.fault_tolerant = cfg.options.fault_tolerant;
    rt_cfg.seed = cfg.seed;
    return rt_backend_main(rt_cfg);
  }
  for (const std::string& name : f.seen_in(kRtSection))
    f.fail(name + " applies to --backend rt only");
  if (!replay_schedule.empty())
    return replay_schedule_main(replay_schedule, trace_out);
  obs::RunCapture cap;
  if (!trace_out.empty()) cfg.capture = &cap;
  harness::apply_open_rate(cfg, rate);

  const harness::ExperimentResult r = harness::run_experiment(cfg);
  const double t = static_cast<double>(cfg.mean_delay);

  std::cout << "dqme_sim: " << mutex::to_string(cfg.algo) << "  N=" << cfg.n;
  if (mutex::algo_uses_quorum(cfg.algo))
    std::cout << "  quorum=" << cfg.quorum << "  K=" << r.mean_quorum_size;
  std::cout << "  T=" << cfg.mean_delay << "  seed=" << cfg.seed;
  if (cfg.options.num_locks > 1)
    std::cout << "  locks=" << cfg.options.num_locks
              << "  zipf=" << cfg.workload.zipf_skew;
  std::cout << "\n\n";

  harness::Table out({"metric", "value"});
  using harness::Table;
  out.add_row({"CS completed (window)", Table::integer(r.summary.completed)});
  out.add_row({"wire messages / CS",
               Table::num(r.summary.wire_msgs_per_cs, 2)});
  out.add_row({"control messages / CS",
               Table::num(r.summary.ctrl_msgs_per_cs, 2)});
  out.add_row({"sync delay / T (contended)",
               Table::num(r.sync_delay_in_t, 3)});
  out.add_row({"throughput (CS per T)",
               Table::num(r.summary.throughput * t, 3)});
  out.add_row({"mean waiting / T",
               Table::num(r.summary.waiting_mean / t, 2)});
  out.add_row({"max waiting / T", Table::num(r.summary.waiting_max / t, 2)});
  out.add_row({"mean response / T",
               Table::num(r.summary.response_mean / t, 2)});
  out.add_row({"fairness (Jain)", Table::num(r.summary.fairness_jain, 3)});
  out.add_row({"ME violations", Table::integer(r.summary.violations)});
  out.add_row({"demands issued/completed/aborted",
               Table::integer(r.demands_issued) + "/" +
                   Table::integer(r.demands_completed) + "/" +
                   Table::integer(r.demands_aborted)});
  out.add_row({"drained clean", r.drained_clean ? "yes" : "NO"});
  out.add_row({"stale drops", Table::integer(r.stale_drops)});
  if (cfg.algo == mutex::Algo::kCaoSinghal ||
      cfg.algo == mutex::Algo::kCaoSinghalNoProxy) {
    out.add_row({"replies forwarded / direct",
                 Table::integer(r.protocol_stats.replies_forwarded) + " / " +
                     Table::integer(r.protocol_stats.replies_direct)});
    out.add_row({"yields", Table::integer(r.protocol_stats.yields_sent)});
    out.add_row({"§6 recoveries",
                 Table::integer(r.protocol_stats.recoveries)});
  }
  out.print(std::cout);

  if (!trace_out.empty()) {
    obs::ChromeTraceData data;
    data.n_sites = cap.n_sites;
    data.label = cap.label;
    data.messages = std::move(cap.messages);
    data.span_events = std::move(cap.span_events);
    std::ofstream f(trace_out);
    if (!f) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 2;
    }
    obs::write_chrome_trace(f, data);
    std::cout << "\n[trace] wrote " << trace_out << " ("
              << data.messages.size() << " messages, "
              << data.span_events.size() << " span events)\n";
  }

  const bool ok = r.summary.violations == 0 && r.drained_clean;
  std::cout << (ok ? "\nOK: safe and live.\n"
                   : "\nFAILED: safety or liveness violated.\n");
  return ok ? 0 : 1;
} catch (const dqme::CheckError& e) {
  std::cerr << "configuration error: " << e.what() << "\n";
  return 2;
}
