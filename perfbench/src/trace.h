// Span tracer for the benchmark's traced runs.
//
// Spans are recorded around calls into the repo's public seams (see
// wrappers.h): each span has a kind, a start and an end, and the span
// that encloses it. A span's self time is its duration minus the time its
// child spans cover; the tracer folds self times per kind as spans close
// and keeps the first `log_capacity` spans in memory so they can be
// written out when the run ends. One Tracer per thread of control — the
// simulator uses one, the real-threads backend one per pump thread.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "net/message.h"

namespace perfbench {

namespace net = dqme::net;
using dqme::LockId;
using dqme::SiteId;
using dqme::SpanId;
using dqme::Time;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t { kSim, kNet, kCore, kObs, kRt, kClient };
const char* layer_name(Layer l);

// Span kinds. Handler kinds are kHandler0 + net::MsgType.
enum Kind : int {
  kStep,          // sim: a Simulator::step that delivered no message
  kDeliverStep,   // net: a Simulator::step whose event delivered a flight
  kNetSend,       // net: Executor::send / send_bundle into net::Network
  kRtSend,        // rt: Executor::send / send_bundle into rt::Runtime
  kRequestCs,     // core: MutexSite::request_cs
  kReleaseCs,     // core: MutexSite::release_cs
  kObsChecker,    // obs: InvariantChecker link of a hook chain
  kObsSpan,       // obs: span-recording link (SpanRecorder; rt::ObsTap)
  kObsTimeline,   // obs: one timeline window sample
  kObsCritpath,   // obs: critical-path extraction after the run
  kClient,        // client: the workload driver reacting to a CS entry
  kPoll,          // client: one Runtime::run poll of the benchmark's client
  kHandler0,      // core: NetSite::on_message, by message type
  kNumKinds = kHandler0 + net::kNumMsgTypes,
};
Layer layer_of(int kind);

class Tracer {
 public:
  struct Stat {
    uint64_t count = 0;
    int64_t self_ns = 0;
    int64_t total_ns = 0;
  };

  explicit Tracer(size_t log_capacity) : log_capacity_(log_capacity) {
    stack_.reserve(16);
  }

  void open() {
    int32_t id = -1;
    if (log_.size() < log_capacity_) {
      id = static_cast<int32_t>(log_.size());
      log_.push_back({});
    } else {
      ++log_dropped_;
    }
    stack_.push_back({now_ns(), 0, id});
  }

  // Closes the innermost open span as `kind`; returns its self time.
  int64_t close(int kind) {
    const int64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const int64_t dur = end - f.start;
    const int64_t self = dur - f.child;
    Stat& s = stats_[static_cast<size_t>(kind)];
    ++s.count;
    s.self_ns += self;
    s.total_ns += dur;
    if (stack_.empty())
      top_level_ns_ += dur;
    else
      stack_.back().child += dur;
    if (f.id >= 0)
      log_[static_cast<size_t>(f.id)] = {
          f.start, end, stack_.empty() ? -1 : stack_.back().id,
          static_cast<int16_t>(kind)};
    return self;
  }

  const Stat& stat(int kind) const {
    return stats_[static_cast<size_t>(kind)];
  }
  // Summed duration of the outermost spans: the traced time the layers
  // account for. Wall time minus this is unattributed.
  int64_t top_level_ns() const { return top_level_ns_; }

  // One line per closed span: thread index kind start_ns end_ns parent.
  void write_spans(std::ostream& os, int thread) const;
  uint64_t spans_logged() const { return log_.size(); }
  uint64_t spans_not_logged() const { return log_dropped_; }

 private:
  struct Frame {
    int64_t start;
    int64_t child;
    int32_t id;
  };
  struct Rec {
    int64_t start = 0;
    int64_t end = 0;
    int32_t parent = -1;
    int16_t kind = 0;
  };

  std::vector<Frame> stack_;
  std::array<Stat, kNumKinds> stats_{};
  int64_t top_level_ns_ = 0;
  size_t log_capacity_;
  uint64_t log_dropped_ = 0;
  std::vector<Rec> log_;
};

// Span statistics summed over one or more tracers (one per thread).
struct SpanTotals {
  std::array<Tracer::Stat, kNumKinds> kinds{};
  int64_t top_level_ns = 0;

  void add(const Tracer& t);
  const Tracer::Stat& stat(int kind) const {
    return kinds[static_cast<size_t>(kind)];
  }
  // Mean self time per span of `kind`; 0 when none closed.
  double self_per_span_ns(int kind) const;
  int64_t layer_self_ns(Layer l) const;
};

// RAII span; a null tracer makes it free apart from one branch.
class Scope {
 public:
  Scope(Tracer* t, int kind) : t_(t), kind_(kind) {
    if (t_ != nullptr) t_->open();
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(kind_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int kind_;
};

}  // namespace perfbench
