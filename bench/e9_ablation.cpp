// E9 — ablations of the paper's two design choices:
//  (a) the transfer/proxy path (§3's contribution): disabling it reverts
//      the handoff to release->arbiter->reply, i.e. Maekawa's 2T;
//  (b) piggybacking (§5: "a control message piggybacked with another
//      message is counted as one message"): disabling it inflates the wire
//      count while leaving control-message counts unchanged.
//
// Ported to the unified bench::Runner: all four variants run as one
// parallel sweep.
#include <iostream>

#include "runner.h"

int main(int argc, char** argv) {
  using namespace dqme;
  using bench::heavy;
  using harness::ExperimentConfig;
  using harness::ExperimentResult;
  using harness::Table;

  auto opts = bench::parse_bench_flags(argc, argv, "e9_ablation");

  const bench::MetricDef kDelayT{
      "delay_t",
      [](const ExperimentResult& r) { return r.sync_delay_in_t; }};
  const bench::MetricDef kThroughput{
      "throughput_per_t", [](const ExperimentResult& r) {
        return r.summary.throughput * bench::kT;
      }};
  const bench::MetricDef kWire{
      "wire_msgs_per_cs",
      [](const ExperimentResult& r) { return r.summary.wire_msgs_per_cs; }};
  const bench::MetricDef kCtrl{
      "ctrl_msgs_per_cs",
      [](const ExperimentResult& r) { return r.summary.ctrl_msgs_per_cs; }};
  const std::vector<bench::MetricDef> kMetrics{kDelayT, kThroughput, kWire,
                                               kCtrl};

  bench::Runner run("e9_ablation", opts);
  const int proxy_on = run.add(
      "proxy_on", heavy(mutex::Algo::kCaoSinghal, 25), kMetrics);
  const int proxy_off = run.add(
      "proxy_off", heavy(mutex::Algo::kCaoSinghalNoProxy, 25), kMetrics);
  ExperimentConfig no_piggy = heavy(mutex::Algo::kCaoSinghal, 25);
  no_piggy.options.piggyback = false;
  const int piggy_off = run.add("piggyback_off", no_piggy, kMetrics);
  run.execute();

  std::cout << "E9 — ablations (N=25, grid, saturated, T=1000, E=T/10)\n\n";

  std::cout << "(a) proxy transfer path:\n";
  Table a({"variant", "delay/T", "throughput CS/T", "msgs/CS",
           "replies forwarded"});
  for (int row : {proxy_on, proxy_off}) {
    const auto& r = run.first(row);
    a.add_row({row == proxy_on ? "proposed (proxy on)"
                               : "proxy off (Maekawa-style)",
               Table::num(run.stat(row, "delay_t").mean, 2),
               Table::num(run.stat(row, "throughput_per_t").mean, 3),
               Table::num(run.stat(row, "wire_msgs_per_cs").mean, 1),
               Table::integer(r.protocol_stats.replies_forwarded)});
  }
  a.print(std::cout);

  std::cout << "\n(b) piggybacking:\n";
  Table b({"variant", "wire msgs/CS", "ctrl msgs/CS", "delay/T"});
  for (int row : {proxy_on, piggy_off}) {
    b.add_row({row == proxy_on ? "piggyback on (paper)" : "piggyback off",
               Table::num(run.stat(row, "wire_msgs_per_cs").mean, 1),
               Table::num(run.stat(row, "ctrl_msgs_per_cs").mean, 1),
               Table::num(run.stat(row, "delay_t").mean, 2)});
  }
  b.print(std::cout);

  std::cout << "\nExpected shape: (a) proxy off doubles the delay and "
               "roughly halves throughput at the same message budget — the "
               "entire contribution of the paper in one row pair; (b) "
               "piggyback off keeps control messages equal but pays more "
               "wire messages.\n";
  return run.finish(std::cout);
}
