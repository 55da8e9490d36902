// rt_core — real-threads backend throughput (DESIGN.md §9).
//
// Unlike the E-benches (simulated ticks, virtual time), every number here
// is wall-clock: real contended CS handoffs/sec and wire messages/sec with
// one OS thread per site pumping lock-free SPSC rings. The grid covers
// {2,4,8,16} threads x {cao_singhal, maekawa, suzuki_kasami} x {1,256}
// locks; locks=1 is the paper's heavy load (one request in service per
// site), locks=256 is the x3 sharded-service shape where each site keeps a
// pipeline of independent grants in flight — the row that shows whether
// the backend scales past the protocol's single-lock serialization.
//
// Flags: the shared set (bench_util.h) plus --threads=K (rt suites only)
// to restrict the grid to one site count. --check attaches the per-lock
// atomic SafetyProbe and replays the merged observability feed through the
// PR-3 invariant checker after quiesce.
//
// check_perf.py gates these rows with a wider tolerance than the sim rows
// (wall-clock on a shared host is noisy) and additionally requires
// rt_scaling_cao_singhal_8t_over_2t_locks256 >= 2.0: eight pump threads
// must at least double the two-thread row even when the host oversubscribes
// them onto fewer cores — that is the batching argument of DESIGN.md §9.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/table.h"
#include "mutex/factory.h"
#include "rt/driver.h"

namespace {

using namespace dqme;

struct Row {
  const char* name;  // metric-safe algorithm name
  mutex::Algo algo;
  int threads;
  LockId locks;
  rt::FreeRunResult res;
};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_bench_flags(
      argc, argv, "rt_core", [](flags::Flags& f, bench::BenchOptions& o) {
        f.value("--threads", &o.threads, "K",
                "run only the grid rows with this many sites (pump threads)")
            .min(2);
      });
  const auto wall_start = std::chrono::steady_clock::now();

  const struct {
    const char* name;
    mutex::Algo algo;
  } kAlgos[] = {
      {"cao_singhal", mutex::Algo::kCaoSinghal},
      {"maekawa", mutex::Algo::kMaekawa},
      {"suzuki_kasami", mutex::Algo::kSuzukiKasami},
  };
  const int kThreads[] = {2, 4, 8, 16};
  const LockId kLocks[] = {1, 256};

  std::vector<Row> rows;
  for (const auto& a : kAlgos) {
    // --quick keeps the gated trajectory rows: cao_singhal at 2 and 8
    // threads, both lock shapes (the scaling ratio needs exactly those).
    if (opts.quick && a.algo != mutex::Algo::kCaoSinghal) continue;
    for (int t : kThreads) {
      if (opts.threads != 0 && t != opts.threads) continue;
      if (opts.quick && t != 2 && t != 8) continue;
      for (LockId locks : kLocks) rows.push_back({a.name, a.algo, t, locks, {}});
    }
  }
  if (rows.empty()) {
    std::cerr << "rt_core: --threads=" << opts.threads
              << " is not in the grid {2,4,8,16}\n";
    return 2;
  }

  std::cout << "rt_core — real-threads backend, one pump thread per site"
            << (opts.check ? " (+safety probe & invariant replay)" : "")
            << "\n";
  bool ok = true;
  for (Row& row : rows) {
    rt::FreeRunConfig cfg;
    cfg.algo = row.algo;
    cfg.n = row.threads;
    cfg.quorum = "majority";  // valid for every n in the grid
    cfg.num_locks = row.locks;
    cfg.check = opts.check;
    // The paper's T as an emulated wire latency. With it, contended
    // throughput measures how many protocol pipelines the backend keeps in
    // flight concurrently — the quantity that scales with pump threads —
    // instead of raw single-host CPU, which does not.
    cfg.wire_delay_us = 100;
    // Enough entries to amortize thread startup; the soft wall-clock stop
    // bounds each row, and throughput is entries/wall either way. locks=1
    // rows are latency-bound (one grant chain per lock, ~T per hop), so
    // they get a smaller target than the pipelined locks=256 rows.
    cfg.target_entries = row.locks > 1
                             ? static_cast<uint64_t>(opts.quick ? 8'000 : 80'000)
                             : static_cast<uint64_t>(opts.quick ? 500 : 5'000);
    cfg.max_seconds = opts.quick ? 5.0 : 15.0;
    row.res = rt::run_free(cfg);
    if (!row.res.ok) {
      ok = false;
      std::cerr << "  FAIL " << row.name << " " << row.threads << "t locks="
                << row.locks << ": " << row.res.error;
      for (const auto& r : row.res.reports) std::cerr << "\n    " << r;
      std::cerr << "\n";
      continue;
    }
    std::cout << "  " << row.name << " " << row.threads << "t locks="
              << row.locks << ": "
              << harness::Table::num(row.res.handoffs_per_sec / 1e3, 1)
              << "k handoffs/s, "
              << harness::Table::num(row.res.wire_msgs_per_sec / 1e3, 1)
              << "k wire msgs/s (" << row.res.cs_entries << " entries in "
              << harness::Table::num(row.res.wall_seconds, 2) << "s)\n";
  }

  std::vector<bench::JsonMetric> metrics;
  const auto find = [&rows](const char* name, int t, LockId locks) -> Row* {
    for (Row& r : rows)
      if (std::string(r.name) == name && r.threads == t && r.locks == locks)
        return &r;
    return nullptr;
  };
  for (const Row& row : rows) {
    if (!row.res.ok) continue;
    const std::string key = std::string(row.name) + "_" +
                            std::to_string(row.threads) + "t_locks" +
                            std::to_string(row.locks);
    metrics.push_back({"rt_handoffs_per_sec_" + key, row.res.handoffs_per_sec, 0});
    metrics.push_back({"rt_wire_msgs_per_sec_" + key, row.res.wire_msgs_per_sec, 0});
  }
  Row* cao2 = find("cao_singhal", 2, 256);
  Row* cao8 = find("cao_singhal", 8, 256);
  if (cao2 != nullptr && cao8 != nullptr && cao2->res.ok && cao8->res.ok &&
      cao2->res.handoffs_per_sec > 0) {
    const double scaling =
        cao8->res.handoffs_per_sec / cao2->res.handoffs_per_sec;
    metrics.push_back({"rt_scaling_cao_singhal_8t_over_2t_locks256", scaling, 0});
    std::cout << "  scaling cao_singhal 8t/2t (locks=256): "
              << harness::Table::num(scaling, 2) << "x\n";
  }

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  double total_handoffs = 0;
  for (const Row& row : rows) total_handoffs += row.res.handoffs_per_sec;
  bench::write_bench_json(opts, ok, wall_ms, total_handoffs, metrics);
  return ok ? 0 : 1;
}
