// Metric names and the per-layer arithmetic shared by both backends.
#pragma once

#include <string>
#include <vector>

#include "trace.h"
#include "util.h"

namespace perfbench {

// Printed metric names, in print order. BENCHMARK.json lists the same
// names; run.py refuses a result whose names differ.
extern const std::vector<std::string> kEndToEndMetrics;
extern const std::vector<std::string> kPerLayerMetrics;

// core.handler_ns.<type>: mean handler self time per message type.
void add_handler_metrics(const SpanTotals& t, Result& res);

// <layer>.share of `basis_ns` for every layer, plus trace.unattributed_frac
// (the basis no span covers). Fails the result if the shares and the
// unattributed rest do not add up to the basis.
void add_shares(const SpanTotals& t, double basis_ns, Result& res);

// Puts res.metrics in the order of `names`. A per-layer metric of a layer
// the workload does not run reads 0; a missing end-to-end metric, or a
// measured metric `names` does not list, fails the result.
void order_metrics(const std::vector<std::string>& names, bool fill_zero,
                   Result& res);

}  // namespace perfbench
