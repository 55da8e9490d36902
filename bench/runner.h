// Unified bench runner: declarative rows (label + config + metric lambdas)
// executed as ONE parallel sweep over (rows × seeds) through
// harness::SweepRunner, honoring the shared --jobs/--seeds/--quick/--json
// flags from bench_util.h. The integrity check and the BENCH_<suite>.json
// emission are folded into finish().
//
// Usage shape:
//   auto opts = bench::parse_bench_flags(argc, argv, "e3_sync_delay");
//   bench::Runner run("e3_sync_delay", opts);
//   int r = run.add("proposed/0.3", open_load(...), {{"delay/T", fn}});
//   run.execute();                       // the only simulation pass
//   ... run.stat(r, "delay/T").mean ...  // format any tables you like
//   return run.finish(std::cout);
#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "harness/sweep.h"

namespace dqme::bench {

struct MetricDef {
  std::string name;
  std::function<double(const harness::ExperimentResult&)> fn;
};

class Runner {
 public:
  Runner(std::string suite, BenchOptions opts)
      : suite_(std::move(suite)), opts_(std::move(opts)) {}

  // Declares one row. `default_seeds` is the replication count when the
  // user did not pass --seeds. Returns the row index.
  int add(std::string label, harness::ExperimentConfig cfg,
          std::vector<MetricDef> metrics, int default_seeds = 1) {
    if (opts_.check) cfg.check_invariants = true;
    Row row;
    row.label = std::move(label);
    row.cfg = std::move(cfg);
    row.metrics = std::move(metrics);
    row.seeds = opts_.seeds > 0 ? opts_.seeds : default_seeds;
    rows_.push_back(std::move(row));
    return static_cast<int>(rows_.size()) - 1;
  }

  // Declares a row whose runs are not a plain run_experiment(cfg): `fn` is
  // called once per seed on the worker pool and returns a result it filled
  // itself (quorum combinatorics, replica-layer rounds). The integrity fold
  // applies to whatever fn reports — set drained_clean/violations honestly.
  int add_custom(std::string label,
                 std::function<harness::ExperimentResult(uint64_t)> fn,
                 std::vector<MetricDef> metrics, int default_seeds = 1) {
    Row row;
    row.label = std::move(label);
    row.custom = std::move(fn);
    row.metrics = std::move(metrics);
    row.seeds = opts_.seeds > 0 ? opts_.seeds : default_seeds;
    rows_.push_back(std::move(row));
    return static_cast<int>(rows_.size()) - 1;
  }

  // Folds a suite-specific pass/fail condition (a paper-bound check a row's
  // metrics can't express) into the exit code and the JSON "ok" field.
  void require(bool condition) { ok_ = ok_ && condition; }

  // Runs every declared (row, seed) job on the worker pool. Results are
  // deterministic in content and order for any --jobs value: each job is a
  // pure function of (config/custom fn, seed) and lands in its own slot.
  void execute() {
    std::vector<std::function<harness::ExperimentResult()>> jobs;
    for (const Row& row : rows_) {
      for (int s = 0; s < row.seeds; ++s) {
        const uint64_t seed = row.cfg.seed + static_cast<uint64_t>(s);
        if (row.custom) {
          jobs.push_back([fn = &row.custom, seed] { return (*fn)(seed); });
        } else {
          harness::ExperimentConfig cfg = row.cfg;
          cfg.seed = seed;
          jobs.push_back(
              [cfg = std::move(cfg)] { return harness::run_experiment(cfg); });
        }
      }
    }
    harness::SweepOptions sopts;
    sopts.jobs = opts_.jobs;
    sopts.check_integrity = false;  // benches report, they don't throw
    const auto start = std::chrono::steady_clock::now();
    auto results = harness::SweepRunner(sopts).run_jobs(jobs);
    wall_ms_ = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    size_t at = 0;
    for (Row& row : rows_) {
      row.runs.assign(results.begin() + static_cast<ptrdiff_t>(at),
                      results.begin() + static_cast<ptrdiff_t>(at + row.seeds));
      at += static_cast<size_t>(row.seeds);
      for (const auto& r : row.runs) {
        sim_events_ += r.sim_events;
        ok_ = ok_ && r.summary.violations == 0 && r.drained_clean &&
              r.invariant_violations == 0;
        if (first_report_.empty() && !r.invariant_reports.empty())
          first_report_ = r.invariant_reports.front();
      }
    }
    executed_ = true;
    // --trace-out: one extra short recorded run of the first plain row's
    // config, after the sweep so the numbers above are recorder-free.
    for (const Row& row : rows_)
      if (!row.custom) {
        maybe_write_trace(opts_, row.cfg);
        break;
      }
  }

  // Aggregated metric (mean/sd over the row's seeds).
  harness::Replicated stat(int row, const std::string& metric) const {
    const Row& r = at(row);
    for (const MetricDef& m : r.metrics)
      if (m.name == metric) return harness::aggregate(r.runs, m.fn);
    DQME_CHECK_MSG(false, "no metric '" << metric << "' on row '" << r.label
                                        << "'");
    return {};
  }

  // The row's first (lowest-seed) run, for counters and protocol stats the
  // declared metrics don't cover.
  const harness::ExperimentResult& first(int row) const {
    return at(row).runs.front();
  }
  const std::vector<harness::ExperimentResult>& runs(int row) const {
    return at(row).runs;
  }

  int jobs() const { return opts_.jobs; }
  bool ok() const { return ok_; }
  double wall_ms() const { return wall_ms_; }
  double events_per_sec() const {
    return wall_ms_ > 0 ? static_cast<double>(sim_events_) /
                              (wall_ms_ / 1000.0)
                        : 0;
  }

  // Integrity line + JSON emission; returns the process exit code.
  int finish(std::ostream& os) const {
    DQME_CHECK(executed_);
    os << "\n[integrity] all runs safe and drained: " << (ok_ ? "yes" : "NO")
       << "  (" << total_runs() << " runs, jobs=" << opts_.jobs
       << (opts_.check ? ", invariants checked" : "") << ", "
       << Table::num(wall_ms_, 0) << " ms, "
       << Table::num(events_per_sec() / 1e6, 2) << "M events/s)\n";
    if (!first_report_.empty())
      os << "[integrity] first violation: " << first_report_ << "\n";
    std::vector<JsonMetric> jm;
    for (size_t i = 0; i < rows_.size(); ++i)
      for (const MetricDef& m : rows_[i].metrics) {
        auto rep = stat(static_cast<int>(i), m.name);
        jm.push_back({rows_[i].label + "/" + m.name, rep.mean, rep.sd});
      }
    // Fold every run's registry into the suite JSON (row order, then seed
    // order — deterministic for any --jobs). Timelines fold the same way;
    // suites that enable one do so on a single row (or same-spec rows), so
    // the merged series stays interpretable.
    obs::Registry merged;
    obs::Timeline merged_tl;
    obs::LockStats merged_ls;
    obs::CritStats merged_cp;
    for (const Row& row : rows_) {
      merged.merge(harness::merge_registries(row.runs));
      for (const auto& r : row.runs) {
        merged_tl.merge(r.timeline);
        merged_ls.merge(r.lock_stats);
        merged_cp.merge(r.critpath);
      }
    }
    write_bench_json(opts_, ok_, wall_ms_, events_per_sec(), jm, &merged,
                     &merged_tl, &merged_ls, &merged_cp);
    return ok_ ? 0 : 1;
  }

 private:
  struct Row {
    std::string label;
    harness::ExperimentConfig cfg;
    std::function<harness::ExperimentResult(uint64_t)> custom;  // add_custom
    std::vector<MetricDef> metrics;
    int seeds = 1;
    std::vector<harness::ExperimentResult> runs;
  };

  const Row& at(int i) const {
    DQME_CHECK(executed_);
    DQME_CHECK(0 <= i && i < static_cast<int>(rows_.size()));
    return rows_[static_cast<size_t>(i)];
  }

  size_t total_runs() const {
    size_t n = 0;
    for (const Row& r : rows_) n += static_cast<size_t>(r.seeds);
    return n;
  }

  std::string suite_;
  BenchOptions opts_;
  std::vector<Row> rows_;
  bool executed_ = false;
  bool ok_ = true;
  std::string first_report_;
  double wall_ms_ = 0;
  uint64_t sim_events_ = 0;
  using Table = harness::Table;
};

}  // namespace dqme::bench
