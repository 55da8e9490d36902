#include "harness/experiment_flags.h"

#include <string>
#include <utility>
#include <vector>

namespace dqme::harness {

void add_experiment_flags(flags::Flags& f, ExperimentConfig& cfg,
                          double& rate) {
  using Mode = Workload::Config::Mode;
  using Delay = ExperimentConfig::DelayKind;
  std::vector<std::pair<std::string, mutex::Algo>> algos;
  for (const mutex::Algo a : mutex::all_algos())
    algos.emplace_back(std::string(mutex::to_string(a)), a);
  f.choice("--algo", &cfg.algo, std::move(algos), "NAME",
           "lamport | ricart-agrawala | roucairol-carvalho | maekawa\n"
           "| raymond | suzuki-kasami | cao-singhal (default)\n"
           "| cao-singhal-noproxy")
      .value("--n", &cfg.n, "N", "number of sites (default 25)")
      .value("--quorum", &cfg.quorum, "KIND",
             "grid | fpp | tree | majority | hqc | gridset[:G] | rst[:G]\n"
             "| singleton | all (default grid)")
      .value("--seed", &cfg.seed, "S", "(default 1)")
      .value("--locks", &cfg.options.num_locks, "M",
             "lock-table size (default 1; dense LockIds 0..M-1,\n"
             "independent critical sections)")
      .min(1)
      .toggle("--ft", &cfg.options.fault_tolerant,
              "enable the §6 fault-tolerance layer");
  f.section(kSimulatorSection)
      .value("--t", &cfg.mean_delay, "TICKS",
             "mean message delay T (default 1000)")
      .choice("--delay", &cfg.delay_kind,
              {{"constant", Delay::kConstant},
               {"uniform", Delay::kUniform},
               {"exponential", Delay::kExponential}},
              "KIND", "constant (default) | uniform | exponential")
      .choice("--load", &cfg.workload.mode,
              {{"closed", Mode::kClosed}, {"open", Mode::kOpen}}, "MODE",
              "closed (saturation, default) | open")
      .value("--rate", &rate, "R",
             "open loop: offered load as a fraction of 1/(2T+E)\n"
             "aggregate capacity (default 0.5)")
      .value("--cs", &cfg.workload.cs_duration, "TICKS",
             "CS duration E (default 10)")
      .toggle("--exp-cs", &cfg.workload.exponential_cs,
              "exponential CS durations")
      .value("--think", &cfg.workload.think_time, "TICKS",
             "closed loop think time (default 0)")
      .value("--warmup", &cfg.warmup, "TICKS", "(default 200000)")
      .value("--measure", &cfg.measure, "TICKS", "(default 2000000)")
      .value("--zipf", &cfg.workload.zipf_skew, "S",
             "open loop, --locks > 1: lock-popularity skew\n"
             "(0 = uniform, default)")
      .value("--lock-piggyback", &cfg.lock_piggyback_window, "W",
             "staged messages for different locks to the same site\n"
             "within W ticks share one wire flight (default off)")
      .repeatable("--crash", "T:SITE", "crash SITE at time T",
                  [&cfg](const std::string& spec) {
                    const auto colon = spec.find(':');
                    if (colon == std::string::npos)
                      throw flags::Error("--crash expects T:SITE, got '" +
                                         spec + "'");
                    cfg.crashes.push_back(
                        {flags::to_number<Time>("--crash",
                                                spec.substr(0, colon)),
                         flags::to_number<SiteId>("--crash",
                                                  spec.substr(colon + 1))});
                  })
      .value("--liveness-bound", &cfg.liveness_bound, "TICKS",
             "invariant-checker watchdog bound (default: from the\n"
             "run's scale)");
}

void apply_open_rate(ExperimentConfig& cfg, double rate) {
  if (cfg.workload.mode != Workload::Config::Mode::kOpen) return;
  const double capacity = 1.0 / static_cast<double>(
                                    2 * cfg.mean_delay +
                                    cfg.workload.cs_duration);
  cfg.workload.arrival_rate = rate * capacity / cfg.n;
}

}  // namespace dqme::harness
