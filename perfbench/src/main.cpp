// perfbench — the repo benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench --list
//
// Runs one workload and prints one JSON line: correctness, attempted and
// failed requests, the metrics (end-to-end with --trace 0, per-layer with
// --trace 1), the sample count behind each percentile, failed checks, and
// provenance. perfbench/run.py builds this binary, adds units and prints
// the result; run it through that script.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "layers.h"
#include "rt_bench.h"
#include "sim_bench.h"

namespace {

using perfbench::Result;

const char* const kWorkloads[] = {"sim_saturated", "sim_lock_service_observed",
                                  "rt_contended", "rt_pipelined"};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Why this build may not report: an unoptimised or sanitizer build times
// something other than what users run.
std::string build_refusal() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
#if !defined(__OPTIMIZE__)
  return "built without optimisation (flags: " + flags + ")";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer (flags: " + flags + ")";
#else
  if (flags.find("-fsanitize") != std::string::npos)
    return "built with a sanitizer (flags: " + flags + ")";
  if (flags.find("-O0") != std::string::npos)
    return "built with -O0 (flags: " + flags + ")";
  return "";
#endif
}

std::string provenance() {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  std::ostringstream os;
  os << "{\"host\": " << json_str(host)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_str("g++ " __VERSION__)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << json_str(PERFBENCH_CXX_FLAGS) << "}";
  return os.str();
}

void print(const std::string& workload, bool trace, const Result& r) {
  std::ostringstream os;
  os << "{\"workload\": " << json_str(workload)
     << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i)
    os << (i ? ", " : "") << json_str(r.metrics[i].first) << ": "
       << json_num(r.metrics[i].second);
  os << "}, \"samples\": {";
  for (size_t i = 0; i < r.samples.size(); ++i)
    os << (i ? ", " : "") << json_str(r.samples[i].first) << ": "
       << r.samples[i].second;
  os << "}, \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? ", " : "") << json_str(r.failures[i]);
  os << "], \"info\": [";
  for (size_t i = 0; i < r.info.size(); ++i)
    os << (i ? ", " : "") << "[" << json_str(r.info[i].first) << ", "
       << json_str(r.info[i].second) << "]";
  os << "], \"provenance\": " << provenance() << "}";
  std::cout << os.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n       perfbench --list\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      for (const char* w : kWorkloads) std::cout << w << "\n";
      std::cout << "end_to_end";
      for (const auto& m : perfbench::kEndToEndMetrics) std::cout << " " << m;
      std::cout << "\nper_layer";
      for (const auto& m : perfbench::kPerLayerMetrics) std::cout << " " << m;
      std::cout << "\n";
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--spans") spans_path = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known || (trace != 0 && trace != 1) || !(seconds > 0)) return usage();

  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "perfbench: refusing to report: " << refusal << "\n";
    return 3;
  }

  std::ofstream spans_file;
  if (trace == 1 && !spans_path.empty()) spans_file.open(spans_path);
  std::ostream* spans = spans_file.is_open() ? &spans_file : nullptr;
  if (spans != nullptr)
    *spans << "# thread index kind start_ns end_ns parent\n";

  const bool traced = trace == 1;
  Result r = workload.rfind("sim_", 0) == 0
                 ? perfbench::run_sim(workload, seed, seconds, traced, spans)
                 : perfbench::run_rt(workload, seed, seconds, traced, spans);
  perfbench::order_metrics(
      traced ? perfbench::kPerLayerMetrics : perfbench::kEndToEndMetrics,
      traced, r);
  print(workload, traced, r);
  return 0;
}
