// Simulator workloads: sim_saturated and sim_lock_service_observed.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "util.h"

namespace perfbench {

// End-to-end run (trace = false) or traced per-layer run (trace = true).
// `spans` receives the traced run's span log; may be null.
Result run_sim(const std::string& workload, uint64_t seed, double seconds,
               bool trace, std::ostream* spans);

}  // namespace perfbench
