#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <sstream>

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double prev_x = v.front();
  double prev_f = -1;  // no distinct value seen yet
  for (size_t i = 0; i < v.size();) {
    size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double f =
        (static_cast<double>(i) + static_cast<double>(j - i) / 2) / n;
    if (p <= f) {
      if (prev_f < 0) return v[i];
      return prev_x + (v[i] - prev_x) * (p - prev_f) / (f - prev_f);
    }
    prev_x = v[i];
    prev_f = f;
    i = j;
  }
  return v.back();
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : " ") + num(x);
  return out;
}

uint64_t rep_seed(uint64_t seed, uint64_t rep) {
  // splitmix64 of (seed, rep): distinct, well-spread seeds per repetition.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + rep + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) % 1'000'000'007ull + 1;
}

}  // namespace perfbench
