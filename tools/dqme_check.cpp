// dqme_check — the invariant checker and analytic-model conformance CLI.
//
// Four modes, sharing one exit-code convention (0 = clean, 1 = a check
// failed, 2 = usage/configuration error):
//
//   (default)   run one experiment with the online InvariantChecker
//               attached and report safety / conservation / liveness plus
//               the Table 1 model divergence:
//                 dqme_check --algo cao-singhal --n 25 --quorum grid
//   --selftest  seeded-negative suite: drives the checker through scripted
//               violations (double CS entry, a lost transfer, a FIFO
//               inversion, a stalled request) and one clean handoff, and
//               verifies each is detected — or not flagged — as expected.
//               Proves the checker can actually catch what it claims to.
//   --trace F   offline structural check of a Chrome trace-event file
//               written by --trace-out: s/f flow arrows pair up and point
//               forward in time, proxy tagging is consistent, CS slices
//               balance and never overlap across sites.
//   --preset smoke
//               the CI conformance gate: a small closed-loop matrix under
//               constant delay, gating invariant cleanliness and
//               model_divergence_* <= --tolerance (default 0.05).
//
// Any mode accepts --report-out FILE to write a machine-readable JSON
// verdict (consumed by CI to archive checker reports).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "harness/experiment.h"
#include "harness/experiment_flags.h"
#include "harness/table.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/invariants.h"
#include "obs/model.h"
#include "obs/span.h"

namespace {

using namespace dqme;

// ------------------------------------------------------------ JSON report

struct Report {
  std::string mode;
  bool ok = true;
  uint64_t checks = 0;
  uint64_t violations = 0;
  std::vector<std::string> notes;  // violation texts / per-case verdicts
  std::vector<std::pair<std::string, double>> stats;  // divergences etc.

  void write(std::ostream& os) const {
    os << "{\"mode\": ";
    write_json_string(os, mode);
    os << ", \"ok\": " << (ok ? "true" : "false")
       << ", \"checks\": " << checks << ", \"violations\": " << violations
       << ", \"stats\": {";
    for (size_t i = 0; i < stats.size(); ++i) {
      if (i) os << ", ";
      write_json_string(os, stats[i].first);
      os << ": " << stats[i].second;
    }
    os << "}, \"notes\": [";
    for (size_t i = 0; i < notes.size(); ++i) {
      if (i) os << ", ";
      write_json_string(os, notes[i]);
    }
    os << "]}\n";
  }
};

int emit(const Report& rep, const std::string& report_out) {
  if (!report_out.empty()) {
    std::ofstream f(report_out);
    if (!f) {
      std::cerr << "cannot write " << report_out << "\n";
      return 2;
    }
    rep.write(f);
    std::cout << "[report] wrote " << report_out << "\n";
  }
  return rep.ok ? 0 : 1;
}

// -------------------------------------------------------------- selftest

// Each case scripts the checker through its public entry points — the same
// ones the live hooks call — so a detection failure here means the checker
// would also be blind in production.
struct SelfCase {
  std::string name;
  bool expect_violation = true;
  uint64_t violations = 0;
  std::string first_report;
  // Flight-recorder verdict: the dump file exists and its TAIL — the last
  // recorded event — is the seeded violation. Only meaningful (and only
  // gated) when expect_violation; clean cases must not dump at all.
  bool dump_ok = false;
  bool dumped = false;
  std::string dump_path;
};

// The dump's last trace event (one event per line; the otherData footer
// has no "ph" key, so the last "ph" line IS the newest ring entry).
std::string last_event_line(const std::string& path) {
  std::ifstream f(path);
  std::string line, last;
  while (std::getline(f, line))
    if (line.find("\"ph\":") != std::string::npos) last = line;
  return last;
}

SelfCase run_self_case(const std::string& name, bool expect_violation,
                       Time liveness_bound,
                       const std::function<void(obs::InvariantChecker&)>& fn,
                       Time finish_at, const std::string& dump_prefix) {
  sim::Simulator sim;
  net::Network net(sim, 4, std::make_unique<net::UniformDelay>(500, 1500), 1);
  obs::InvariantOptions opts;
  opts.liveness_bound = liveness_bound;
  obs::InvariantChecker checker(net, opts);
  // Black box per case: every scripted delivery and span edge lands in the
  // ring, so the dump written at first-violation time ends with the
  // violating event preceded by the traffic that caused it.
  obs::FlightRecorder flightrec(64);
  flightrec.set_label("dqme_check --selftest " + name);
  flightrec.set_dump_path(dump_prefix + name + ".json");
  checker.set_flight_recorder(&flightrec);
  fn(checker);
  checker.finish(finish_at);
  SelfCase c;
  c.name = name;
  c.expect_violation = expect_violation;
  c.violations = checker.violations();
  if (!checker.reports().empty()) c.first_report = checker.reports().front();
  c.dumped = flightrec.dumped();
  c.dump_path = dump_prefix + name + ".json";
  if (c.dumped) {
    const std::string tail = last_event_line(c.dump_path);
    c.dump_ok = tail.find("\"violation\"") != std::string::npos;
  }
  return c;
}

net::Message wire(net::Message m, SiteId src, SiteId dst, Time sent_at) {
  m.src = src;
  m.dst = dst;
  m.sent_at = sent_at;
  m.span = span_of(m.req);
  return m;
}

int run_selftest(const std::string& report_out,
                 const std::string& flightrec_out) {
  const ReqId r1{10, 1};  // site 1's request
  const ReqId r2{20, 2};  // site 2's request
  const std::string prefix =
      flightrec_out.empty() ? "flightrec_selftest_" : flightrec_out;
  std::vector<SelfCase> cases;

  // A legal direct-grant -> transfer -> proxied-handoff -> release cycle
  // (§3's Step A/B/C end to end) must produce zero violations.
  cases.push_back(run_self_case(
      "clean-proxy-handoff", false, 0,
      [&](obs::InvariantChecker& ck) {
        ck.on_span_issue(1, kLock0, span_of(r1), 0);
        ck.observe(wire(net::make_reply(0, r1), 0, 1, 5), 10);
        ck.on_span_enter(1, kLock0, span_of(r1), 12);
        ck.on_span_issue(2, kLock0, span_of(r2), 15);
        ck.observe(wire(net::make_transfer(r2, 0, r1), 0, 1, 16), 20);
        ck.on_span_exit(1, kLock0, span_of(r1), 25);
        ck.observe(wire(net::make_release(r1, r2), 1, 0, 25), 28);
        ck.observe(wire(net::make_reply(0, r2), 1, 2, 25), 30);
        ck.on_span_enter(2, kLock0, span_of(r2), 31);
        ck.on_span_exit(2, kLock0, span_of(r2), 40);
        ck.observe(wire(net::make_release(r2, ReqId{}), 2, 0, 40), 45);
      },
      50, prefix));

  // Safety: two sites inside the CS at once (Theorem 1 broken).
  cases.push_back(run_self_case(
      "double-cs-entry", true, 0,
      [&](obs::InvariantChecker& ck) {
        ck.on_span_issue(1, kLock0, span_of(r1), 0);
        ck.on_span_issue(2, kLock0, span_of(r2), 0);
        ck.on_span_enter(1, kLock0, span_of(r1), 10);
        ck.on_span_enter(2, kLock0, span_of(r2), 11);  // overlap
        ck.on_span_exit(1, kLock0, span_of(r1), 20);
        ck.on_span_exit(2, kLock0, span_of(r2), 21);
      },
      30, prefix));

  // Safety: an arbiter double-grants its permission.
  cases.push_back(run_self_case(
      "double-grant", true, 0,
      [&](obs::InvariantChecker& ck) {
        ck.on_span_issue(1, kLock0, span_of(r1), 0);
        ck.on_span_issue(2, kLock0, span_of(r2), 0);
        ck.observe(wire(net::make_reply(0, r1), 0, 1, 5), 10);
        ck.observe(wire(net::make_reply(0, r2), 0, 2, 6), 11);  // still held
      },
      30, prefix));

  // Conservation: an accepted transfer the holder never discharges — the
  // lost-permission leak Lemma 3's liveness argument forbids.
  cases.push_back(run_self_case(
      "lost-transfer", true, 0,
      [&](obs::InvariantChecker& ck) {
        ck.on_span_issue(1, kLock0, span_of(r1), 0);
        ck.on_span_issue(2, kLock0, span_of(r2), 0);
        ck.observe(wire(net::make_reply(0, r1), 0, 1, 5), 10);
        ck.on_span_enter(1, kLock0, span_of(r1), 12);
        ck.observe(wire(net::make_transfer(r2, 0, r1), 0, 1, 14), 18);
        ck.on_span_exit(1, kLock0, span_of(r1), 25);  // exits without forwarding
      },
      60, prefix));

  // Conservation: FIFO inversion on one channel.
  cases.push_back(run_self_case(
      "fifo-inversion", true, 0,
      [&](obs::InvariantChecker& ck) {
        ck.observe(wire(net::make_request(r1), 1, 0, 100), 110);
        ck.observe(wire(net::make_request(r1), 1, 0, 50), 115);  // older
      },
      120, prefix));

  // Liveness: a request open past the watchdog bound with no progress.
  cases.push_back(run_self_case(
      "stalled-request", true, 1000,
      [&](obs::InvariantChecker& ck) {
        ck.on_span_issue(1, kLock0, span_of(r1), 0);
      },
      5000, prefix));

  // Liveness, crash-aware: the same stall is written off when the owner
  // crashed — §6 requires recovery to stay quiet, not be reported.
  cases.push_back(run_self_case(
      "crashed-owner-quiet", false, 1000,
      [&](obs::InvariantChecker& ck) {
        ck.on_span_issue(1, kLock0, span_of(r1), 0);
        ck.on_crash(1);
      },
      5000, prefix));

  Report rep;
  rep.mode = "selftest";
  harness::Table t({"case", "expect", "violations", "flightrec", "verdict"});
  for (const SelfCase& c : cases) {
    const bool detect = (c.violations > 0) == c.expect_violation;
    // Seeded negatives must also leave a usable black box behind: a dump
    // exists and its newest ring entry is the violation. Clean cases must
    // not dump (no violation ever fired).
    const bool box = c.expect_violation ? c.dump_ok : !c.dumped;
    const bool pass = detect && box;
    rep.ok = rep.ok && pass;
    ++rep.checks;
    if (!pass) ++rep.violations;
    std::ostringstream note;
    note << c.name << ": " << (pass ? "pass" : "FAIL");
    if (!detect) note << " (detection)";
    if (!box) note << " (flight recorder)";
    if (!c.first_report.empty()) note << " [" << c.first_report << "]";
    rep.notes.push_back(note.str());
    t.add_row({c.name, c.expect_violation ? "violation" : "clean",
               harness::Table::integer(c.violations),
               c.expect_violation
                   ? (c.dump_ok ? c.dump_path : "BAD DUMP")
                   : (c.dumped ? "UNEXPECTED DUMP" : "-"),
               pass ? "pass" : "FAIL"});
  }
  std::cout << "dqme_check --selftest: seeded-negative detection\n\n";
  t.print(std::cout);
  std::cout << (rep.ok ? "\nOK: every seeded violation detected (and black-"
                         "boxed), clean cases quiet.\n"
                       : "\nFAILED: the checker missed a seeded violation, "
                         "flagged a clean case, or wrote a bad dump.\n");
  return emit(rep, report_out);
}

// ------------------------------------------------------------ trace mode

// The writer keeps one event per line, so a line scanner is a full parser
// for our own output (and fails loudly on anything else).
bool field_str(const std::string& line, const std::string& key,
               std::string& out) {
  const std::string probe = "\"" + key + "\": \"";
  const auto p = line.find(probe);
  if (p == std::string::npos) return false;
  const auto e = line.find('"', p + probe.size());
  if (e == std::string::npos) return false;
  out = line.substr(p + probe.size(), e - p - probe.size());
  return true;
}

bool field_num(const std::string& line, const std::string& key,
               long long& out) {
  const std::string probe = "\"" + key + "\": ";
  const auto p = line.find(probe);
  if (p == std::string::npos) return false;
  out = std::atoll(line.c_str() + p + probe.size());
  return true;
}

int run_trace_check(const std::string& path, const std::string& report_out) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  Report rep;
  rep.mode = "trace";

  struct Flow {
    int sends = 0, finishes = 0;
    long long s_ts = 0, f_ts = 0;
  };
  std::map<long long, Flow> flows;
  struct Interval {
    long long begin, end, tid;
  };
  std::map<long long, long long> open_cs;  // tid -> B ts
  std::vector<Interval> cs;
  std::map<long long, int> open_requests;  // async id -> depth
  uint64_t events = 0;

  auto flag = [&](const std::string& what) {
    ++rep.violations;
    if (rep.notes.size() < 32) rep.notes.push_back(what);
  };

  std::string line;
  while (std::getline(f, line)) {
    std::string ph;
    if (!field_str(line, "ph", ph)) continue;
    ++events;
    std::string name, cat;
    field_str(line, "name", name);
    field_str(line, "cat", cat);
    long long ts = 0, tid = 0, id = 0;
    field_num(line, "ts", ts);
    field_num(line, "tid", tid);

    // Proxy tagging: cat "proxy" if and only if the proxied-reply name —
    // the paper's 1T handoff must be identifiable in the viewer.
    ++rep.checks;
    if ((cat == "proxy") != (name == "reply (proxy)"))
      flag("proxy tag mismatch: name '" + name + "' cat '" + cat + "'");

    if ((ph == "s" || ph == "f") && field_num(line, "id", id)) {
      Flow& fl = flows[id];
      if (ph == "s") {
        ++fl.sends;
        fl.s_ts = ts;
      } else {
        ++fl.finishes;
        fl.f_ts = ts;
      }
    } else if (ph == "B" && name == "CS") {
      if (open_cs.count(tid)) flag("nested CS begin on site lane " +
                                   std::to_string(tid));
      open_cs[tid] = ts;
    } else if (ph == "E") {
      auto it = open_cs.find(tid);
      if (it == open_cs.end()) {
        flag("CS end with no begin on site lane " + std::to_string(tid));
      } else {
        cs.push_back({it->second, ts, tid});
        open_cs.erase(it);
      }
    } else if (ph == "b" && field_num(line, "id", id)) {
      ++open_requests[id];
    } else if (ph == "e" && field_num(line, "id", id)) {
      if (--open_requests[id] < 0)
        flag("async end before begin, id " + std::to_string(id));
    }
  }
  if (events == 0) {
    std::cerr << path << ": no trace events found\n";
    return 2;
  }

  // Every flow arrow pairs one send with one finish, forward in time.
  for (const auto& [id, fl] : flows) {
    ++rep.checks;
    if (fl.sends != 1 || fl.finishes != 1)
      flag("flow " + std::to_string(id) + ": " + std::to_string(fl.sends) +
           " s / " + std::to_string(fl.finishes) + " f events");
    else if (fl.f_ts < fl.s_ts)
      flag("flow " + std::to_string(id) + " delivered at " +
           std::to_string(fl.f_ts) + " before send at " +
           std::to_string(fl.s_ts));
  }
  for (const auto& [tid, ts] : open_cs)
    flag("unclosed CS on site lane " + std::to_string(tid) + " from " +
         std::to_string(ts));
  for (const auto& [id, depth] : open_requests)
    if (depth != 0) flag("unbalanced request span, id " + std::to_string(id));

  // Mutual exclusion, re-derived from the rendered intervals alone.
  std::sort(cs.begin(), cs.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  for (size_t i = 1; i < cs.size(); ++i) {
    ++rep.checks;
    if (cs[i].begin < cs[i - 1].end)
      flag("CS overlap: site " + std::to_string(cs[i].tid) + " at " +
           std::to_string(cs[i].begin) + " enters before site " +
           std::to_string(cs[i - 1].tid) + " exits at " +
           std::to_string(cs[i - 1].end));
  }

  rep.ok = rep.violations == 0;
  std::cout << "dqme_check --trace " << path << ": " << events
            << " events, " << flows.size() << " flows, " << cs.size()
            << " CS intervals\n";
  for (const std::string& n : rep.notes) std::cout << "  " << n << "\n";
  std::cout << (rep.ok ? "OK: trace is structurally sound.\n"
                       : "FAILED: structural violations in trace.\n");
  return emit(rep, report_out);
}

// ------------------------------------------------- single run and preset

double gauge_or(const harness::ExperimentResult& r, const char* name,
                double fallback) {
  const double* g = r.registry.find_gauge(name);
  return g != nullptr ? *g : fallback;
}

void describe_run(const harness::ExperimentConfig& cfg,
                  const harness::ExperimentResult& r, std::ostream& os) {
  using harness::Table;
  Table t({"check", "value"});
  t.add_row({"invariant checks", Table::integer(r.invariant_checks)});
  t.add_row({"invariant violations", Table::integer(r.invariant_violations)});
  t.add_row({"ME violations (metrics)", Table::integer(r.summary.violations)});
  t.add_row({"drained clean", r.drained_clean ? "yes" : "NO"});
  t.add_row({"CS completed", Table::integer(r.summary.completed)});
  t.add_row({"sync delay / T", Table::num(r.sync_delay_in_t, 3)});
  t.add_row({"model sync delay pred / T",
             Table::num(gauge_or(r, "model.sync_delay_pred_t", 0), 3)});
  t.add_row({"model divergence (delay)",
             Table::num(gauge_or(r, "model_divergence_sync_delay", 0), 4)});
  t.add_row({"model divergence (msgs)",
             Table::num(gauge_or(r, "model_divergence_msgs", 0), 4)});
  t.print(os);
  for (const std::string& rep : r.invariant_reports)
    os << "  violation: " << rep << "\n";
  (void)cfg;
}

int run_single(harness::ExperimentConfig cfg, double tolerance,
               bool gate_divergence, const std::string& report_out,
               const std::string& flightrec_out) {
  cfg.check_invariants = true;
  cfg.flight_recorder_dump = flightrec_out;
  const harness::ExperimentResult r = harness::run_experiment(cfg);

  std::cout << "dqme_check: " << mutex::to_string(cfg.algo)
            << "  N=" << cfg.n;
  if (mutex::algo_uses_quorum(cfg.algo))
    std::cout << "  quorum=" << cfg.quorum << "  K=" << r.mean_quorum_size;
  std::cout << "  seed=" << cfg.seed << "\n\n";
  describe_run(cfg, r, std::cout);

  Report rep;
  rep.mode = "run";
  rep.checks = r.invariant_checks;
  rep.violations = r.invariant_violations;
  rep.notes = r.invariant_reports;
  const double div_delay = gauge_or(r, "model_divergence_sync_delay", 0);
  const double div_msgs = gauge_or(r, "model_divergence_msgs", 0);
  rep.stats = {{"model_divergence_sync_delay", div_delay},
               {"model_divergence_msgs", div_msgs}};
  rep.ok = r.invariant_violations == 0 && r.summary.violations == 0 &&
           r.drained_clean;
  if (gate_divergence)
    rep.ok = rep.ok && div_delay <= tolerance && div_msgs <= tolerance;
  std::cout << (rep.ok ? "\nOK: invariants hold"
                       : "\nFAILED: checks failed")
            << (gate_divergence ? " (divergence gated)" : "") << ".\n";
  return emit(rep, report_out);
}

int run_smoke(double tolerance, uint64_t seed, const std::string& report_out,
              const std::string& flightrec_out) {
  // Closed loop under constant delay: the regime where Table 1's closed
  // forms are exact, so divergence is protocol error, not workload noise.
  struct Row {
    mutex::Algo algo;
    int n;
    const char* quorum;
  };
  // Grid quorums only: with FPP's minimal pairwise overlap a successor's
  // completing grant often routes through a waiter's yield instead of the
  // holder's release, so 2-hop-classified entries land below 2T and the
  // count-based mixed model overestimates by ~6% — structural, not noise.
  const Row rows[] = {
      {mutex::Algo::kCaoSinghal, 25, "grid"},
      {mutex::Algo::kCaoSinghal, 49, "grid"},
      {mutex::Algo::kMaekawa, 25, "grid"},
      {mutex::Algo::kCaoSinghalNoProxy, 25, "grid"},
  };
  Report rep;
  rep.mode = "smoke";
  harness::Table t({"config", "invariants", "delay/T", "pred/T",
                    "div(delay)", "div(msgs)", "verdict"});
  for (const Row& row : rows) {
    harness::ExperimentConfig cfg;
    cfg.algo = row.algo;
    cfg.n = row.n;
    cfg.quorum = row.quorum;
    cfg.delay_kind = harness::ExperimentConfig::DelayKind::kConstant;
    cfg.seed = seed;
    cfg.check_invariants = true;
    const std::string label = std::string(mutex::to_string(row.algo)) +
                              "/N" + std::to_string(row.n);
    if (!flightrec_out.empty()) {
      // Per-row dump: insert the row label before the extension so a
      // failing matrix leaves one black box per configuration.
      std::string stem = flightrec_out, ext;
      const auto dot = stem.rfind('.');
      if (dot != std::string::npos && dot > stem.rfind('/') + 1) {
        ext = stem.substr(dot);
        stem.resize(dot);
      }
      std::string tag = label;
      std::replace(tag.begin(), tag.end(), '/', '-');
      cfg.flight_recorder_dump = stem + "-" + tag + ext;
    }
    const harness::ExperimentResult r = harness::run_experiment(cfg);
    const double div_delay = gauge_or(r, "model_divergence_sync_delay", 0);
    const double div_msgs = gauge_or(r, "model_divergence_msgs", 0);
    const bool ok = r.invariant_violations == 0 &&
                    r.summary.violations == 0 && r.drained_clean &&
                    div_delay <= tolerance && div_msgs <= tolerance;
    rep.ok = rep.ok && ok;
    rep.checks += r.invariant_checks;
    rep.violations += r.invariant_violations;
    rep.stats.push_back({label + ".div_delay", div_delay});
    rep.stats.push_back({label + ".div_msgs", div_msgs});
    for (const std::string& note : r.invariant_reports)
      rep.notes.push_back(label + ": " + note);
    if (!ok && r.invariant_reports.empty())
      rep.notes.push_back(label + ": divergence above tolerance");
    t.add_row({label,
               r.invariant_violations == 0 ? "clean" : "VIOLATED",
               harness::Table::num(r.sync_delay_in_t, 3),
               harness::Table::num(gauge_or(r, "model.sync_delay_pred_t", 0),
                                   3),
               harness::Table::num(div_delay, 4),
               harness::Table::num(div_msgs, 4), ok ? "pass" : "FAIL"});
  }
  std::cout << "dqme_check --preset smoke (tolerance "
            << harness::Table::num(tolerance, 3) << ", seed " << seed
            << ")\n\n";
  t.print(std::cout);
  std::cout << (rep.ok ? "\nOK: invariants hold and Table 1 conformance is "
                         "within tolerance.\n"
                       : "\nFAILED: invariant violation or model "
                         "divergence above tolerance.\n");
  return emit(rep, report_out);
}

}  // namespace

int main(int argc, char** argv) try {
  harness::ExperimentConfig cfg;
  double rate = 0.5;
  double tolerance = 0.05;
  bool gate_divergence = false;
  bool selftest = false;
  std::string trace_path, preset, report_out, flightrec_out;

  flags::Flags f("dqme_check", "[mode] [options]");
  f.section("modes (default: run one checked experiment):")
      .toggle("--selftest", &selftest,
              "verify the checker detects seeded violations")
      .value("--trace", &trace_path, "FILE",
             "structural check of a Chrome trace JSON")
      .value("--preset", &preset, "smoke",
             "CI matrix: invariants + model conformance")
      .section("");
  harness::add_experiment_flags(f, cfg, rate);
  f.section("reporting:")
      .custom("--tolerance", "X",
              "max model divergence (default 0.05; a single run gates\n"
              "on it only when given explicitly)",
              [&](const std::string& v) {
                tolerance = flags::to_double("--tolerance", v);
                gate_divergence = true;
              })
      .value("--report-out", &report_out, "FILE", "write a JSON verdict")
      .value("--flightrec-out", &flightrec_out, "PATH",
             "black-box flight recorder: single run / smoke rows dump\n"
             "PATH(-row) on the first violation; selftest uses PATH as\n"
             "the per-case dump prefix (default flightrec_selftest_)");
  const std::vector<std::string> positional = f.parse(argc, argv);
  if (!positional.empty())
    f.fail("unexpected argument '" + positional.front() + "'");

  if (selftest) return run_selftest(report_out, flightrec_out);
  if (!trace_path.empty()) return run_trace_check(trace_path, report_out);
  if (!preset.empty()) {
    if (preset != "smoke") {
      std::cerr << "unknown preset: " << preset << "\n";
      return 2;
    }
    return run_smoke(tolerance, cfg.seed, report_out, flightrec_out);
  }
  harness::apply_open_rate(cfg, rate);
  return run_single(cfg, tolerance, gate_divergence, report_out,
                    flightrec_out);
} catch (const dqme::CheckError& e) {
  std::cerr << "configuration error: " << e.what() << "\n";
  return 2;
}
