// Shared configuration builders and CLI plumbing for the reproduction
// benches (E1..E9, X1..X3, rt_core, micro_core).
// Conventions: T = 1000 ticks, closed loop = the paper's "heavy load",
// open loop Poisson arrivals = "light load" (§5).
//
// Every bench reads its command line through one flag table
// (common/flags.h via parse_bench_flags; `--flag value` = `--flag=value`,
// --help lists them, a usage error exits 2):
//   --jobs N  --seeds K  --quick  --check  --json[=PATH]  --trace-out FILE
// --quick shrinks warmup/measure windows ~8x; --check fails the suite on
// any invariant violation. rt_core adds --threads K; micro_core passes
// --benchmark_* flags through to google-benchmark.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/chrome_trace.h"
#include "obs/critpath.h"
#include "obs/lock_stats.h"

namespace dqme::bench {

inline constexpr Time kT = 1000;  // the paper's mean message delay

// --quick divides every simulated-time window by this; parse_bench_flags
// sets it so the heavy()/open_load() builders honor the flag everywhere.
inline Time g_time_divisor = 1;

inline Time scale_time(Time t) {
  Time s = t / g_time_divisor;
  return s < 1 ? 1 : s;
}

struct BenchOptions {
  int jobs = 1;           // sweep worker threads; 0 = hardware concurrency
  int seeds = 0;          // 0 = each suite's per-row default
  int threads = 0;        // rt suites only: restrict grid to this site count
  bool quick = false;
  bool check = false;     // run every row under the invariant checker
  bool json = false;
  std::string json_path;  // resolved to BENCH_<suite>.json when empty
  std::string trace_out;  // Chrome trace output path; empty = no trace
  std::string suite;
};

// Parses the shared bench flags plus whatever `extra` registers (rt_core's
// --threads, micro_core's --benchmark_ passthrough). Any positional
// argument is a usage error. Passthrough arguments stay in argv (argc
// updated) for the suite's own parser. Simulator suites reject --threads
// loudly: the discrete-event engine is single-logical-threaded per run,
// so the flag would silently mean nothing there.
inline BenchOptions parse_bench_flags(
    int& argc, char** argv, const std::string& suite,
    const std::function<void(flags::Flags&, BenchOptions&)>& extra = {}) {
  BenchOptions o;
  o.suite = suite;
  flags::Flags f(suite);
  f.value("--jobs", &o.jobs, "N",
          "worker threads for sweep-based suites (0 = all cores)")
      .min(0)
      .value("--seeds", &o.seeds, "K",
             "replications per row (overrides the suite's default)")
      .min(1)
      .toggle("--quick", &o.quick, "shrink warmup/measure windows ~8x")
      .toggle("--check", &o.check,
              "attach the invariant checker to every run; a violation\n"
              "fails the suite")
      .optional("--json", &o.json, &o.json_path, "PATH",
                "write machine-readable results (default BENCH_" + suite +
                    ".json)")
      .value("--trace-out", &o.trace_out, "FILE",
             "Chrome trace-event JSON of one short representative run");
  if (extra) extra(f, o);
  if (!f.has("--threads"))
    f.custom("--threads", "K", "", [](const std::string&) {
      throw flags::Error(
          "--threads is only meaningful for real-threads (rt) suites; this "
          "suite runs on the discrete-event simulator (use --jobs=N for "
          "sweep parallelism)");
    });
  const std::vector<std::string> positional = f.parse(argc, argv);
  if (!positional.empty())
    f.fail("unknown argument '" + positional.front() + "'");
  if (o.json && o.json_path.empty()) o.json_path = "BENCH_" + suite + ".json";
  if (o.quick) g_time_divisor = 8;
  return o;
}

inline harness::ExperimentConfig heavy(mutex::Algo algo, int n,
                                       const std::string& quorum = "grid",
                                       uint64_t seed = 1) {
  harness::ExperimentConfig cfg;
  cfg.algo = algo;
  cfg.n = n;
  cfg.quorum = quorum;
  cfg.mean_delay = kT;
  cfg.workload.mode = harness::Workload::Config::Mode::kClosed;
  cfg.workload.cs_duration = 100;  // E = T/10
  cfg.warmup = scale_time(200'000);
  cfg.measure = scale_time(2'000'000);
  cfg.seed = seed;
  return cfg;
}

// `relative_load` = offered aggregate demand as a fraction of the SLOWEST
// baseline's saturation throughput, 1/(2T+E) (Maekawa's cycle). Using the
// slower denominator keeps every algorithm in a stable queueing regime
// across a 0..1 sweep, so cross-algorithm waiting/delay comparisons are
// apples-to-apples. 0.05 = the paper's light load.
inline harness::ExperimentConfig open_load(mutex::Algo algo, int n,
                                           double relative_load,
                                           const std::string& quorum = "grid",
                                           uint64_t seed = 1) {
  harness::ExperimentConfig cfg = heavy(algo, n, quorum, seed);
  cfg.workload.mode = harness::Workload::Config::Mode::kOpen;
  const double capacity =
      1.0 / static_cast<double>(2 * kT + cfg.workload.cs_duration);
  cfg.workload.arrival_rate = relative_load * capacity / n;
  cfg.measure = scale_time(4'000'000);
  return cfg;
}

// --trace-out support: records ONE short single run of `cfg` with the
// observability capture attached and writes it as Chrome trace-event JSON.
// Deliberately a separate re-execution — the statistical sweep stays
// recorder-free, so --trace-out never perturbs the numbers a bench reports.
// The windows are capped (traces are for reading, not statistics) to keep
// the JSON loadable in the viewer.
inline void maybe_write_trace(const BenchOptions& opts,
                              harness::ExperimentConfig cfg) {
  if (opts.trace_out.empty()) return;
  if (cfg.warmup > 20'000) cfg.warmup = 20'000;
  if (cfg.measure > 100'000) cfg.measure = 100'000;
  obs::RunCapture cap;
  cfg.capture = &cap;
  harness::run_experiment(cfg);

  obs::ChromeTraceData data;
  data.n_sites = cap.n_sites;
  data.label = cap.label;
  data.messages = std::move(cap.messages);
  data.span_events = std::move(cap.span_events);
  std::ofstream f(opts.trace_out);
  if (!f) {
    std::cerr << "cannot write " << opts.trace_out << "\n";
    return;
  }
  obs::write_chrome_trace(f, data);
  std::cout << "  [trace] wrote " << opts.trace_out << " ("
            << data.messages.size() << " messages, "
            << data.span_events.size() << " span events"
            << (cap.messages_dropped + cap.span_events_dropped > 0
                    ? ", truncated"
                    : "")
            << ")\n";
}

// --- machine-readable results (BENCH_*.json) --------------------------

struct JsonMetric {
  std::string metric;
  double mean = 0;
  double sd = 0;
};

inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Provenance block: which machine, when, and at which commit the numbers
// were produced. scripts/check_perf.py prints it for both sides of a
// comparison, so a committed baseline that predates the code it gates is
// visible instead of silently trusted. The commit comes from DQME_COMMIT
// (set by CI / the regeneration recipe); "unknown" means a local ad-hoc run.
inline void write_provenance(std::ostream& f) {
  char host[256] = "unknown";
  if (gethostname(host, sizeof host - 1) != 0)
    std::strcpy(host, "unknown");  // NOLINT(runtime/printf)
  host[sizeof host - 1] = '\0';
  char date[32] = "unknown";
  const std::time_t t = std::time(nullptr);
  std::tm tmv{};
  if (gmtime_r(&t, &tmv) != nullptr)
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", &tmv);
  const char* commit = std::getenv("DQME_COMMIT");
  f << "\"provenance\": {\"host\": " << json_quote(host)
    << ", \"date\": \"" << date << "\", \"commit\": "
    << json_quote(commit != nullptr ? commit : "unknown") << "}";
}

// One flat, self-describing file per suite so the perf trajectory can be
// tracked across commits: suite + per-metric (mean, sd) + engine totals.
// `registry` (optional) embeds the merged obs::Registry of the sweep under
// a "registry" key — counters/gauges/histograms in deterministic order.
// `timeline` (optional) embeds the merged obs::Timeline under a "timeline"
// key — per-window series + markers, same determinism contract.
// `lock_stats` (optional) embeds the merged obs::LockStats hot-set tracker
// under a "lock_stats" key.
// `critpath` (optional) embeds the merged obs::CritStats delay budget
// under a "critpath" key — integer counters merged in result-index order,
// so the bytes are identical for any --jobs value.
inline void write_bench_json(const BenchOptions& opts, bool ok,
                             double wall_ms, double events_per_sec,
                             const std::vector<JsonMetric>& metrics,
                             const obs::Registry* registry = nullptr,
                             const obs::Timeline* timeline = nullptr,
                             const obs::LockStats* lock_stats = nullptr,
                             const obs::CritStats* critpath = nullptr) {
  if (!opts.json) return;
  std::ofstream f(opts.json_path);
  if (!f) {
    std::cerr << "cannot write " << opts.json_path << "\n";
    return;
  }
  f << "{\n"
    << "  \"suite\": " << json_quote(opts.suite) << ",\n"
    << "  \"ok\": " << (ok ? "true" : "false") << ",\n"
    << "  \"jobs\": " << opts.jobs << ",\n"
    << "  \"seeds\": " << opts.seeds << ",\n"
    << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
    << "  \"wall_ms\": " << json_num(wall_ms) << ",\n"
    << "  \"events_per_sec\": " << json_num(events_per_sec) << ",\n"
    << "  ";
  write_provenance(f);
  f << ",\n"
    << "  \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    f << (i ? "," : "") << "\n    {\"suite\": " << json_quote(opts.suite)
      << ", \"metric\": " << json_quote(metrics[i].metric)
      << ", \"mean\": " << json_num(metrics[i].mean)
      << ", \"sd\": " << json_num(metrics[i].sd) << "}";
  }
  f << "\n  ]";
  if (registry != nullptr && !registry->empty()) {
    f << ",\n  \"registry\": ";
    registry->write_json(f);
  }
  if (timeline != nullptr && timeline->enabled() && !timeline->empty()) {
    f << ",\n  \"timeline\": ";
    timeline->write_json(f);
  }
  if (lock_stats != nullptr && lock_stats->enabled()) {
    f << ",\n  \"lock_stats\": ";
    lock_stats->write_json(f);
  }
  if (critpath != nullptr && critpath->enabled()) {
    f << ",\n  \"critpath\": ";
    critpath->write_json(f);
  }
  f << "\n}\n";
  std::cout << "  [json] wrote " << opts.json_path << "\n";
}

}  // namespace dqme::bench
