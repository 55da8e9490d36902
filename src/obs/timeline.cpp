#include "obs/timeline.h"

#include <algorithm>

#include "common/json.h"

namespace dqme::obs {

Timeline::Counter& Timeline::counter(std::string_view name) {
  DQME_CHECK_MSG(enabled(), "series on a disabled timeline");
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), Counter()).first;
  it->second.owner_ = this;
  return it->second;
}

Timeline::Gauge& Timeline::gauge(std::string_view name) {
  DQME_CHECK_MSG(enabled(), "series on a disabled timeline");
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), Gauge()).first;
  it->second.owner_ = this;
  return it->second;
}

Timeline::Sketch& Timeline::sketch(std::string_view name, double lo,
                                   size_t buckets) {
  DQME_CHECK_MSG(enabled(), "series on a disabled timeline");
  DQME_CHECK(lo > 0 && buckets > 0);
  auto it = sketches_.find(name);
  if (it == sketches_.end()) {
    it = sketches_.emplace(std::string(name), Sketch()).first;
    it->second.lo_ = lo;
    it->second.buckets_ = buckets;
  }
  DQME_CHECK_MSG(it->second.lo_ == lo && it->second.buckets_ == buckets,
                 "sketch '" << name << "' re-declared with another spec");
  it->second.owner_ = this;
  return it->second;
}

const Timeline::Counter* Timeline::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Timeline::Gauge* Timeline::find_gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Timeline::Sketch* Timeline::find_sketch(std::string_view name) const {
  auto it = sketches_.find(name);
  return it == sketches_.end() ? nullptr : &it->second;
}

void Timeline::mark(std::string_view label, Time at) {
  DQME_CHECK_MSG(enabled(), "marker on a disabled timeline");
  markers_.push_back({at, std::string(label)});
}

size_t Timeline::num_windows() const {
  size_t n = 0;
  for (const auto& [name, s] : counters_)
    n = std::max(n, s.sums_.size());
  for (const auto& [name, s] : gauges_) n = std::max(n, s.vals_.size());
  for (const auto& [name, s] : sketches_)
    n = std::max(n, s.hists_.size());
  return n;
}

void Timeline::merge(const Timeline& other) {
  if (!other.enabled()) return;
  if (!enabled()) {
    *this = other;
    // Re-home the series owners: *this was copied wholesale, but each
    // series still points at `other`.
    for (auto& [name, s] : counters_) s.owner_ = this;
    for (auto& [name, s] : gauges_) s.owner_ = this;
    for (auto& [name, s] : sketches_) s.owner_ = this;
    return;
  }
  DQME_CHECK_MSG(origin_ == other.origin_ && window_ == other.window_,
                 "merging timelines with different window specs");
  for (const auto& [name, s] : other.counters_) {
    Counter& mine = counter(name);
    if (mine.sums_.size() < s.sums_.size())
      mine.sums_.resize(s.sums_.size(), 0);
    for (size_t w = 0; w < s.sums_.size(); ++w) mine.sums_[w] += s.sums_[w];
  }
  for (const auto& [name, s] : other.gauges_) {
    Gauge& mine = gauge(name);
    if (mine.vals_.size() < s.vals_.size())
      mine.vals_.resize(s.vals_.size(), 0.0);
    for (size_t w = 0; w < s.vals_.size(); ++w)
      mine.vals_[w] = std::max(mine.vals_[w], s.vals_[w]);
  }
  for (const auto& [name, s] : other.sketches_) {
    Sketch& mine = sketch(name, s.lo_, s.buckets_);
    if (mine.hists_.size() < s.hists_.size())
      mine.hists_.resize(s.hists_.size(), Histogram::log2(s.lo_, s.buckets_));
    for (size_t w = 0; w < s.hists_.size(); ++w)
      mine.hists_[w].merge(s.hists_[w]);
  }
  // Marker union: concatenate, sort, dedupe — independent of merge order.
  markers_.insert(markers_.end(), other.markers_.begin(),
                  other.markers_.end());
  std::sort(markers_.begin(), markers_.end());
  markers_.erase(std::unique(markers_.begin(), markers_.end()),
                 markers_.end());
}

void Timeline::write_json(std::ostream& os) const {
  const size_t k = num_windows();
  os << "{\"origin\": " << origin_ << ", \"window\": " << window_
     << ", \"windows\": " << k << ",\n\"counters\": {";
  bool first = true;
  for (const auto& [name, s] : counters_) {
    os << (first ? "" : ",") << "\n  ";
    write_json_string(os, name);
    os << ": [";
    for (size_t w = 0; w < k; ++w)
      os << (w ? ", " : "") << (w < s.sums_.size() ? s.sums_[w] : 0);
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n") << "},\n\"gauges\": {";
  first = true;
  for (const auto& [name, s] : gauges_) {
    os << (first ? "" : ",") << "\n  ";
    write_json_string(os, name);
    os << ": [";
    for (size_t w = 0; w < k; ++w)
      os << (w ? ", " : "") << (w < s.vals_.size() ? s.vals_[w] : 0.0);
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n") << "},\n\"sketches\": {";
  first = true;
  for (const auto& [name, s] : sketches_) {
    os << (first ? "" : ",") << "\n  ";
    write_json_string(os, name);
    os << ": {\"lo\": " << s.lo_ << ", \"buckets\": " << s.buckets_;
    const Histogram empty = Histogram::log2(s.lo_, s.buckets_);
    auto h = [&](size_t w) -> const Histogram& {
      return w < s.hists_.size() ? s.hists_[w] : empty;
    };
    os << ",\n    \"count\": [";
    for (size_t w = 0; w < k; ++w) os << (w ? ", " : "") << h(w).count();
    os << "],\n    \"p50\": [";
    for (size_t w = 0; w < k; ++w) os << (w ? ", " : "") << h(w).p50();
    os << "],\n    \"p95\": [";
    for (size_t w = 0; w < k; ++w) os << (w ? ", " : "") << h(w).p95();
    os << "],\n    \"p99\": [";
    for (size_t w = 0; w < k; ++w) os << (w ? ", " : "") << h(w).p99();
    os << "],\n    \"p999\": [";
    for (size_t w = 0; w < k; ++w) os << (w ? ", " : "") << h(w).p999();
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n") << "},\n\"markers\": [";
  for (size_t i = 0; i < markers_.size(); ++i) {
    os << (i ? ", " : "") << "{\"at\": " << markers_[i].at << ", \"label\": ";
    write_json_string(os, markers_[i].label);
    os << "}";
  }
  os << "]}";
}

}  // namespace dqme::obs
