#include "obs/flight_recorder.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "obs/span.h"

namespace dqme::obs {

namespace {

// Dedicated lane for checker violations, far above any plausible SiteId.
constexpr SiteId kCheckerLane = 1'000'000;

std::string_view kind_name(FlightRecorder::Kind k) {
  switch (k) {
    case FlightRecorder::Kind::kDeliver:
      return "deliver";
    case FlightRecorder::Kind::kCrash:
      return "crash";
    case FlightRecorder::Kind::kSpanIssue:
      return "issue";
    case FlightRecorder::Kind::kSpanEnter:
      return "enter";
    case FlightRecorder::Kind::kSpanExit:
      return "exit";
    case FlightRecorder::Kind::kSpanAbort:
      return "abort";
    case FlightRecorder::Kind::kViolation:
      return "violation";
  }
  return "?";
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity) {
  DQME_CHECK_MSG(capacity > 0, "flight recorder needs a positive capacity");
  ring_.reserve(capacity);
}

void FlightRecorder::attach(net::Network& net) {
  net_ = &net;
  auto previous = std::move(net.on_deliver);
  net.on_deliver = [this, &net, previous = std::move(previous)](
                       const net::Message& m, LockId lock) {
    record_message(m, lock, net.simulator().now());
    if (previous) previous(m, lock);
  };
  auto prev_crash = std::move(net.on_crash);
  net.on_crash = [this, &net, prev_crash = std::move(prev_crash)](SiteId s) {
    record_crash(s, net.simulator().now());
    if (prev_crash) prev_crash(s);
  };
}

void FlightRecorder::push(Event e) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[next_] = std::move(e);
  next_ = (next_ + 1) % capacity_;
}

void FlightRecorder::record_message(const net::Message& m, LockId lock,
                                    Time at) {
  Event e;
  e.at = at;
  e.kind = Kind::kDeliver;
  e.msg = m;
  // Sever the side-payload handle: the pool recycles the slot as soon as
  // the delivery handler returns, same hazard net::TraceRecorder guards.
  e.msg.payload = net::kNoPayload;
  e.lock = lock;
  e.site = m.dst;
  e.span = m.span;
  push(std::move(e));
}

void FlightRecorder::record_crash(SiteId site, Time at) {
  Event e;
  e.at = at;
  e.kind = Kind::kCrash;
  e.site = site;
  push(std::move(e));
  if (dump_on_crash_) maybe_dump();
}

void FlightRecorder::record_span(Kind kind, SiteId site, LockId lock,
                                 SpanId span, Time at) {
  Event e;
  e.at = at;
  e.kind = kind;
  e.lock = lock;
  e.site = site;
  e.span = span;
  push(std::move(e));
}

void FlightRecorder::record_violation(const std::string& what, Time at) {
  Event e;
  e.at = at;
  e.kind = Kind::kViolation;
  e.note = what;
  push(std::move(e));
  maybe_dump();
}

void FlightRecorder::maybe_dump() {
  if (dumped_ || dump_path_.empty()) return;
  dumped_ = true;  // first trigger only, even if the dump itself fails
  dump_to(dump_path_);
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  // Ring layout: [next_, end) is the older half once wrapped.
  for (size_t i = next_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (size_t i = 0; i < next_; ++i) out.push_back(ring_[i]);
  return out;
}

void FlightRecorder::dump(std::ostream& os) const {
  const std::vector<Event> evs = events();

  // Lane metadata first: the validator requires a thread_name for every tid
  // that carries events.
  std::set<SiteId> lanes;
  for (const Event& e : evs)
    lanes.insert(e.kind == Kind::kViolation ? kCheckerLane : e.site);

  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](std::string_view name, std::string_view cat, char ph,
                        Time ts, SiteId tid, std::string_view extra,
                        std::string_view args_json) {
    os << (first ? "  " : ",\n  ") << "{\"name\": ";
    write_json_string(os, name);
    os << ", \"cat\": ";
    write_json_string(os, cat);
    os << ", \"ph\": \"" << ph << "\", \"ts\": " << ts
       << ", \"pid\": 0, \"tid\": " << tid;
    if (!extra.empty()) os << ", " << extra;
    if (!args_json.empty()) os << ", \"args\": " << args_json;
    os << "}";
    first = false;
  };

  for (SiteId lane : lanes) {
    const std::string name =
        lane == kCheckerLane ? "checker" : "site " + std::to_string(lane);
    emit("thread_name", "__metadata", 'M', 0, lane, {},
         "{\"name\": \"" + name + "\"}");
  }

  for (const Event& e : evs) {
    switch (e.kind) {
      case Kind::kDeliver: {
        const net::Message& m = e.msg;
        std::string args = "{\"src\": " + std::to_string(m.src) +
                           ", \"dst\": " + std::to_string(m.dst) +
                           ", \"sent_at\": " + std::to_string(m.sent_at) +
                           ", \"lock\": " + std::to_string(e.lock) +
                           ", \"span\": \"" + format_span(m.span) + "\"}";
        emit(net::to_string(m.type), "flightrec", 'X', e.at, e.site,
             "\"dur\": 1", args);
        break;
      }
      case Kind::kCrash:
        emit("crash", "flightrec", 'X', e.at, e.site, "\"dur\": 1",
             "{\"site\": " + std::to_string(e.site) + "}");
        break;
      case Kind::kViolation: {
        std::string args = "{\"report\": ";
        {
          std::ostringstream tmp;
          write_json_string(tmp, e.note);
          args += tmp.str();
        }
        args += "}";
        emit("violation", "flightrec", 'X', e.at, kCheckerLane, "\"dur\": 1",
             args);
        break;
      }
      default:  // span edges
        emit(kind_name(e.kind), "flightrec", 'X', e.at, e.site, "\"dur\": 1",
             "{\"lock\": " + std::to_string(e.lock) + ", \"span\": \"" +
                 format_span(e.span) + "\"}");
        break;
    }
  }

  os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"label\": ";
  write_json_string(os, label_);
  os << ", \"recorded\": " << recorded_ << ", \"capacity\": " << capacity_
     << "}}\n";
}

bool FlightRecorder::dump_to(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  dump(f);
  return f.good();
}

}  // namespace dqme::obs
