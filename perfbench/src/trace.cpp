#include "trace.h"

#include <string>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSim:    return "sim";
    case Layer::kNet:    return "net";
    case Layer::kCore:   return "core";
    case Layer::kObs:    return "obs";
    case Layer::kRt:     return "rt";
    case Layer::kClient: return "client";
  }
  return "unknown";
}

Layer layer_of(int kind) {
  if (kind >= kHandler0) return Layer::kCore;
  switch (kind) {
    case kStep:        return Layer::kSim;
    case kDeliverStep:
    case kNetSend:     return Layer::kNet;
    case kRtSend:      return Layer::kRt;
    case kRequestCs:
    case kReleaseCs:   return Layer::kCore;
    case kObsChecker:
    case kObsSpan:
    case kObsTimeline:
    case kObsCritpath: return Layer::kObs;
    default:           return Layer::kClient;
  }
}

void SpanTotals::add(const Tracer& t) {
  for (int k = 0; k < kNumKinds; ++k) {
    Tracer::Stat& s = kinds[static_cast<size_t>(k)];
    s.count += t.stat(k).count;
    s.self_ns += t.stat(k).self_ns;
    s.total_ns += t.stat(k).total_ns;
  }
  top_level_ns += t.top_level_ns();
}

double SpanTotals::self_per_span_ns(int kind) const {
  const Tracer::Stat& s = stat(kind);
  return s.count > 0 ? static_cast<double>(s.self_ns) /
                           static_cast<double>(s.count)
                     : 0;
}

int64_t SpanTotals::layer_self_ns(Layer l) const {
  int64_t sum = 0;
  for (int k = 0; k < kNumKinds; ++k)
    if (layer_of(k) == l) sum += kinds[static_cast<size_t>(k)].self_ns;
  return sum;
}

void Tracer::write_spans(std::ostream& os, int thread) const {
  for (size_t i = 0; i < log_.size(); ++i) {
    const Rec& r = log_[i];
    if (r.end == 0) continue;  // still open when the run ended
    os << thread << ' ' << i << ' ' << r.kind << ' ' << r.start << ' '
       << r.end << ' ' << r.parent << '\n';
  }
}

}  // namespace perfbench
