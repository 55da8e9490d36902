// The experiment-flag group dqme_sim and dqme_check share: every
// ExperimentConfig knob a command line sets, registered once on a
// flags::Flags table. Backend-neutral flags (algorithm, size, quorum, seed,
// locks, the §6 layer) come first; the ones that shape simulated time and
// workload are registered under kSimulatorSection, so a tool with a
// real-threads backend can reject exactly those by section.
#pragma once

#include "common/flags.h"
#include "harness/experiment.h"

namespace dqme::harness {

inline constexpr const char* kSimulatorSection = "simulated run:";

// `rate` receives --rate: open-loop offered load as a fraction of the
// 1/(2T+E) aggregate capacity (apply it with apply_open_rate).
void add_experiment_flags(flags::Flags& f, ExperimentConfig& cfg,
                          double& rate);

// Open loop: sets the per-site arrival rate that offers `rate` of the
// 1/(2T+E) aggregate capacity. Closed loop: no-op.
void apply_open_rate(ExperimentConfig& cfg, double rate);

}  // namespace dqme::harness
