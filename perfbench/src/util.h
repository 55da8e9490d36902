// Small measurement helpers shared by the workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Process CPU time (all threads) in seconds.
double process_cpu_s();
// Peak resident set size of this process in MiB.
double peak_rss_mb();

// Sample p-quantile (p in [0,1]) by Parzen's mid-distribution function:
// at each distinct value x, F(x) = (#samples < x + #samples == x / 2) / n,
// and the quantile inverts F linearly between distinct values (clamped to
// the extremes outside them). Without ties this is linear interpolation
// between order statistics at plotting positions (i + 1/2) / n. With ties —
// simulated delays are whole ticks, and under constant delay a handoff
// takes exactly 1·T or 2·T — it moves continuously with the sample mix
// instead of sticking to one atom: for a two-point sample on {1, 2} the
// median is the mean. Sorts `v` in place; 0 for an empty set.
double quantile(std::vector<double>& v, double p);
double median(std::vector<double> v);

// Uniform random sample of at most `cap` values from a stream (Algorithm
// R). Storage is allocated and written up front, so the memory a run
// touches does not depend on how many values its stream produced.
class Reservoir {
 public:
  Reservoir() = default;
  Reservoir(size_t cap, uint64_t seed) : buf_(cap, 0.0), rng_(seed | 1) {}

  void add(double v) {
    ++seen_;
    if (size_ < buf_.size()) {
      buf_[size_++] = v;
      return;
    }
    rng_ ^= rng_ << 13;  // xorshift64
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const uint64_t j = rng_ % seen_;
    if (j < buf_.size()) buf_[j] = v;
  }
  uint64_t seen() const { return seen_; }
  void append_to(std::vector<double>& out) const {
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(size_));
  }

 private:
  std::vector<double> buf_;
  size_t size_ = 0;
  uint64_t seen_ = 0;
  uint64_t rng_ = 1;
};

// One printed benchmark result. Metric order is print order.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  // Sample count behind each percentile metric.
  std::vector<std::pair<std::string, uint64_t>> samples;
  // Failed checks, human-readable.
  std::vector<std::string> failures;
  // Free-form facts about the run (string values).
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void fail(const std::string& what) {
    correct = false;
    failures.push_back(what);
  }
};

// `v` with all 17 significant digits, for reports.
std::string num(double v);
// Space-separated num() of each value.
std::string join(const std::vector<double>& v);
// a / b, or 0 when b is 0.
inline double safe_div(double a, double b) { return b != 0 ? a / b : 0; }

// Derives the seed of repetition `rep` from the run's seed.
uint64_t rep_seed(uint64_t seed, uint64_t rep);

}  // namespace perfbench
