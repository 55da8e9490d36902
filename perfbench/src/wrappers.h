// Timing wrappers installed at the repo's public seams for traced runs.
//
//   * TimedExecutor    — a forwarding net::Executor handed to make_site, so
//                        every send a protocol makes is a span of the
//                        backend (net::Network or rt::Runtime).
//   * TimedNetSite     — a forwarding NetSite installed with attach(), so
//                        every delivery's handler is a core span.
//   * TimedSpanObserver— one link of a MutexSite's SpanObserver chain.
//   * wrap_on_deliver  — one link of Network::on_deliver's chain.
//
// The wrappers only forward: a traced run makes the same protocol decisions
// as an untraced one (sim_bench.cpp checks this against run_experiment).
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "mutex/mutex_site.h"
#include "net/executor.h"
#include "net/network.h"
#include "trace.h"

namespace perfbench {

namespace mutex = dqme::mutex;
namespace sim = dqme::sim;

// Send and handler instants per directed channel, for send-to-handler
// transit times matched by FIFO index. A channel's send list is written
// only by its source thread and its handler list only by its destination
// thread; each keeps at most `cap` entries (a prefix, so indices match).
class TransitLog {
 public:
  TransitLog(int n, size_t cap)
      : n_(n),
        cap_(cap),
        sent_(static_cast<size_t>(n) * static_cast<size_t>(n)),
        handled_(sent_.size()) {}

  void sent(SiteId src, SiteId dst, int64_t at) {
    auto& v = sent_[index(src, dst)];
    if (v.size() < cap_) v.push_back(at);
  }
  void handled(SiteId src, SiteId dst, int64_t at) {
    auto& v = handled_[index(src, dst)];
    if (v.size() < cap_) v.push_back(at);
  }
  // Transit times in nanoseconds over every matched (send, handler) pair.
  std::vector<double> transits_ns() const {
    std::vector<double> out;
    for (size_t c = 0; c < sent_.size(); ++c) {
      const size_t k = std::min(sent_[c].size(), handled_[c].size());
      for (size_t i = 0; i < k; ++i)
        out.push_back(static_cast<double>(handled_[c][i] - sent_[c][i]));
    }
    return out;
  }

 private:
  size_t index(SiteId src, SiteId dst) const {
    return static_cast<size_t>(src) * static_cast<size_t>(n_) +
           static_cast<size_t>(dst);
  }
  int n_;
  size_t cap_;
  std::vector<std::vector<int64_t>> sent_;
  std::vector<std::vector<int64_t>> handled_;
};

class TimedExecutor final : public net::Executor {
 public:
  // `tracers[s]` records site s's sends (sends only happen on the sending
  // site's thread of control).
  TimedExecutor(net::Executor& inner, std::vector<Tracer*> tracers,
                int send_kind, TransitLog* transit = nullptr)
      : inner_(inner),
        tracers_(std::move(tracers)),
        send_kind_(send_kind),
        transit_(transit) {}

  int size() const override { return inner_.size(); }
  Time now() const override { return inner_.now(); }
  void attach(SiteId id, net::NetSite* site) override {
    inner_.attach(id, site);
  }
  void send(SiteId src, SiteId dst, const net::Message& m,
            LockId lock) override {
    Scope s(tracer(src), send_kind_);
    if (transit_ != nullptr) transit_->sent(src, dst, now_ns());
    inner_.send(src, dst, m, lock);
  }
  using net::Executor::send_bundle;
  void send_bundle(SiteId src, SiteId dst, const net::Message* msgs, size_t n,
                   LockId lock) override {
    Scope s(tracer(src), send_kind_);
    if (transit_ != nullptr) {
      const int64_t at = now_ns();
      for (size_t i = 0; i < n; ++i) transit_->sent(src, dst, at);
    }
    inner_.send_bundle(src, dst, msgs, n, lock);
  }
  net::KvFields& attach_kv(net::Message& m) override {
    return inner_.attach_kv(m);
  }
  net::TokenPayload& attach_token(net::Message& m) override {
    return inner_.attach_token(m);
  }
  net::KvFields read_kv(const net::Message& m) const override {
    return inner_.read_kv(m);
  }
  net::TokenPayload take_token(const net::Message& m) override {
    return inner_.take_token(m);
  }
  uint64_t schedule_timeout(SiteId site, Time delay,
                            sim::Callback fn) override {
    return inner_.schedule_timeout(site, delay, std::move(fn));
  }

 private:
  Tracer* tracer(SiteId s) const { return tracers_[static_cast<size_t>(s)]; }

  net::Executor& inner_;
  std::vector<Tracer*> tracers_;
  int send_kind_;
  TransitLog* transit_;
};

class TimedNetSite final : public net::NetSite {
 public:
  // `delivered` counts handled messages; it may be shared by every site
  // that runs on one thread of control.
  TimedNetSite(net::NetSite& inner, Tracer* tracer, uint64_t* delivered,
               TransitLog* transit = nullptr)
      : inner_(inner),
        tracer_(tracer),
        delivered_(delivered),
        transit_(transit) {}

  void on_message(const net::Message& m, LockId lock) override {
    ++*delivered_;
    if (transit_ != nullptr) transit_->handled(m.src, m.dst, now_ns());
    Scope s(tracer_, kHandler0 + static_cast<int>(m.type));
    inner_.on_message(m, lock);
  }

 private:
  net::NetSite& inner_;
  Tracer* tracer_;
  uint64_t* delivered_;
  TransitLog* transit_;
};

class TimedSpanObserver final : public mutex::SpanObserver {
 public:
  // Wraps the observer currently attached to `site` and takes its place.
  TimedSpanObserver(mutex::MutexSite& site, Tracer* tracer, int kind)
      : downstream_(site.span_observer()), tracer_(tracer), kind_(kind) {
    site.attach_span_observer(this);
  }
  void on_span_issue(SiteId site, LockId lock, SpanId span,
                     Time at) override {
    Scope s(tracer_, kind_);
    downstream_->on_span_issue(site, lock, span, at);
  }
  void on_span_enter(SiteId site, LockId lock, SpanId span,
                     Time at) override {
    Scope s(tracer_, kind_);
    downstream_->on_span_enter(site, lock, span, at);
  }
  void on_span_exit(SiteId site, LockId lock, SpanId span, Time at) override {
    Scope s(tracer_, kind_);
    downstream_->on_span_exit(site, lock, span, at);
  }
  void on_span_abort(SiteId site, LockId lock, SpanId span,
                     Time at) override {
    Scope s(tracer_, kind_);
    downstream_->on_span_abort(site, lock, span, at);
  }

 private:
  mutex::SpanObserver* downstream_;
  Tracer* tracer_;
  int kind_;
};

// Wraps the current head of net.on_deliver in a span of `kind`. Call right
// after constructing the consumer that installed that head.
inline void wrap_on_deliver(net::Network& net, Tracer* tracer, int kind) {
  auto inner = std::move(net.on_deliver);
  net.on_deliver = [tracer, kind, inner = std::move(inner)](
                       const net::Message& m, LockId lock) {
    Scope s(tracer, kind);
    inner(m, lock);
  };
}

}  // namespace perfbench
