#include "layers.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

const std::vector<std::string> kEndToEndMetrics = {
    "cs_per_s",         "cs_per_cpu_s", "wait_p50_t",  "wait_p95_t",
    "handoff_p50_t",    "wire_msgs_per_cs", "setup_s", "peak_rss_mb",
};

namespace {

// Message types whose handlers get a core.handler_ns.<type> metric: the
// Cao–Singhal vocabulary.
constexpr net::MsgType kHandled[] = {
    net::MsgType::kRequest, net::MsgType::kReply, net::MsgType::kRelease,
    net::MsgType::kInquire, net::MsgType::kFail,  net::MsgType::kYield,
    net::MsgType::kTransfer,
};

constexpr Layer kLayers[] = {Layer::kSim, Layer::kNet,  Layer::kCore,
                             Layer::kObs, Layer::kRt, Layer::kClient};

}  // namespace

const std::vector<std::string> kPerLayerMetrics = {
    "sim.step_self_ns",
    "sim.events_per_cs",
    "sim.share",
    "net.send_ns",
    "net.deliver_self_ns",
    "net.msgs_per_flight",
    "net.share",
    "core.handler_ns.request",
    "core.handler_ns.reply",
    "core.handler_ns.release",
    "core.handler_ns.inquire",
    "core.handler_ns.fail",
    "core.handler_ns.yield",
    "core.handler_ns.transfer",
    "core.request_cs_ns",
    "core.release_cs_ns",
    "core.proxy_reply_frac",
    "core.stale_drop_frac",
    "core.share",
    "quorum.build_ms",
    "obs.checker_ns",
    "obs.span_ns",
    "obs.timeline_sample_ns",
    "obs.critpath_build_ms",
    "obs.share",
    "obs.spans_dropped",
    "rt.send_ns",
    "rt.handler_ns",
    "rt.poll_ns",
    "rt.pump_busy_frac",
    "rt.transit_p50_us",
    "rt.transit_p99_us",
    "rt.cpu_per_cs_us",
    "rt.feed_reports",
    "rt.spills",
    "rt.share",
    "client.share",
    "trace.overhead_frac",
    "trace.unattributed_frac",
};

void add_handler_metrics(const SpanTotals& t, Result& res) {
  for (net::MsgType type : kHandled)
    res.metric("core.handler_ns." + std::string(net::to_string(type)),
               t.self_per_span_ns(kHandler0 + static_cast<int>(type)));
}

void add_shares(const SpanTotals& t, double basis_ns, Result& res) {
  double covered = 0;
  for (Layer l : kLayers) {
    const double share = static_cast<double>(t.layer_self_ns(l)) / basis_ns;
    covered += share;
    res.metric(std::string(layer_name(l)) + ".share", share);
  }
  const double unattributed =
      (basis_ns - static_cast<double>(t.top_level_ns)) / basis_ns;
  res.metric("trace.unattributed_frac", unattributed);
  // Self times telescope: every span's duration is its self time plus its
  // children's durations, so the layers' self times must sum to the
  // outermost spans' time, and those must fit inside the basis.
  if (std::abs(covered + unattributed - 1) > 1e-6 || unattributed < -1e-6)
    res.fail("layer self times (" + std::to_string(covered) +
             ") plus unattributed (" + std::to_string(unattributed) +
             ") do not add up to the traced wall time");
}

void order_metrics(const std::vector<std::string>& names, bool fill_zero,
                   Result& res) {
  std::map<std::string, double> have(res.metrics.begin(), res.metrics.end());
  for (const auto& [name, value] : have)
    if (std::find(names.begin(), names.end(), name) == names.end())
      res.fail("measured metric " + name + " is not a listed metric");
  res.metrics.clear();
  for (const std::string& name : names) {
    const auto it = have.find(name);
    if (it != have.end()) {
      res.metric(name, it->second);
    } else {
      if (!fill_zero) res.fail("metric " + name + " was not measured");
      res.metric(name, 0);
    }
  }
}

}  // namespace perfbench
