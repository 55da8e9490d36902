// E8 — §5.2's case analysis: how often each arbiter-side case fires under
// load, and that the observed message cost per CS stays within the paper's
// 6(K-1) ceiling.
//
// Ported to the unified bench::Runner: the load sweep runs as one parallel
// sweep, the saturated row doubles as the proxy-utilisation probe, and the
// ceiling check folds into the runner's exit code via require().
#include <iostream>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::heavy;
  using bench::open_load;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e8_case_analysis");

  const bench::MetricDef kWire{
      "wire_msgs_per_cs",
      [](const ExperimentResult& r) { return r.summary.wire_msgs_per_cs; }};

  bench::Runner run("e8_case_analysis", opts);
  const double loads[] = {0.05, 0.3, 0.6, 0.9};
  int rows[4];
  for (int i = 0; i < 4; ++i)
    rows[i] = run.add("load/" + Table::num(loads[i], 2),
                      open_load(mutex::Algo::kCaoSinghal, 25, loads[i]),
                      {kWire});
  const int sat = run.add("saturated", heavy(mutex::Algo::kCaoSinghal, 25),
                          {kWire});
  run.execute();

  std::cout << "E8 — arbiter case frequencies (proposed algorithm, N=25, "
               "grid, K=9)\n\n";
  Table t({"load", "free grant", "c1 q0,r<L", "c2 q0,L<r", "c3 r>head",
           "c4 r<h<L", "c5 r<L<h", "c6 L<r<h", "msgs/CS", "6(K-1)"});
  auto add = [&](const std::string& name, int row) {
    const ExperimentResult& r = run.first(row);
    const auto& c = r.case_stats;
    const double total = static_cast<double>(c.total());
    auto pct = [&](uint64_t v) {
      return Table::num(100.0 * static_cast<double>(v) / total, 1) + "%";
    };
    const double ceiling = 6.0 * (r.mean_quorum_size - 1);
    run.require(run.stat(row, "wire_msgs_per_cs").mean <= ceiling + 1);
    t.add_row({name, pct(c.grant_free), pct(c.c1_empty_higher),
               pct(c.c2_empty_lower), pct(c.c3_fail_newcomer),
               pct(c.c4_displace_head), pct(c.c5_beats_lock),
               pct(c.c6_between),
               Table::num(run.stat(row, "wire_msgs_per_cs").mean, 1),
               Table::num(ceiling, 0)});
  };
  for (int i = 0; i < 4; ++i) add(Table::num(loads[i], 2), rows[i]);
  add("saturated", sat);
  t.print(std::cout);

  std::cout << "\nProxy path utilisation at saturation:\n";
  const auto& satr = run.first(sat);
  Table u({"metric", "count"});
  u.add_row({"replies forwarded by proxies",
             Table::integer(satr.protocol_stats.replies_forwarded)});
  u.add_row({"replies sent by arbiters",
             Table::integer(satr.protocol_stats.replies_direct)});
  u.add_row({"transfers accepted",
             Table::integer(satr.protocol_stats.transfers_accepted)});
  u.add_row({"transfers discarded as outdated",
             Table::integer(satr.protocol_stats.transfers_ignored)});
  u.add_row({"yields", Table::integer(satr.protocol_stats.yields_sent)});
  u.add_row({"inquires deferred (early/hopeful)",
             Table::integer(satr.protocol_stats.inquires_deferred)});
  u.print(std::cout);

  std::cout << "\nExpected shape: at light load free grants dominate; at "
               "saturation the contended cases (c2/c3/c6) dominate and "
               "msgs/CS stays below the 6(K-1) ceiling; most handoffs ride "
               "the proxy path.\n";
  return run.finish(std::cout);
}
