// Real-threads workloads.
//
// The benchmark's own closed-loop client on rt::Runtime::run: 3 sites (3
// pump threads), majority quorums (K=2), Cao–Singhal. Each site's poll
// releases the locks it entered and keeps up to `depth` requests in service
// over a seeded per-site lock rotation (rt::run_free's scheme):
//
//   rt_contended  1 lock, one outstanding request per site, wire delay
//                 100 µs — the paper's T, so throughput is bound by the
//                 handoff chain.
//   rt_pipelined  256 locks, 8 outstanding requests per site, no wire
//                 delay — CPU-bound rings, pool, pump and handlers.
//
// Latencies are wall-clock nanoseconds, reported in units of the
// benchmark's rt T = 100 µs on both workloads. On every enter and exit the
// client CASes a per-lock owner word (rt::SafetyProbe), and each run must
// quiesce with in_flight() == 0.
#include "rt_bench.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "core/cao_singhal.h"
#include "layers.h"
#include "mutex/factory.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "obs/invariants.h"
#include "quorum/factory.h"
#include "rt/driver.h"
#include "rt/runtime.h"
#include "sim/simulator.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using namespace dqme;

// Three pumps, not four: pumps spin, and four of them occupy every vCPU of
// a 4-vCPU VM. Measured on one: with four busy threads the hypervisor took
// 5-36% of their CPU time in bursts (steal), each burst stalling the handoff
// chain, and run-to-run throughput varied 2x; with three, steal stayed
// at 0-2%.
constexpr int kSites = 3;
constexpr double kTNs = 100'000;  // the benchmark's rt T: 100 µs
constexpr double kSliceS = 1.0;   // issuing time of one repetition
constexpr double kHardTimeoutS = 30.0;
constexpr size_t kTransitCap = 200'000;  // per channel
constexpr size_t kSpanLog = 50'000;      // logged spans per pump thread
constexpr size_t kSampleCap = 65'536;    // latency samples per site and rep

struct RtSpec {
  LockId locks;
  int depth;
  uint64_t wire_delay_us;
};

RtSpec spec_for(const std::string& workload) {
  if (workload == "rt_contended") return {1, 1, 100};
  return {256, 8, 0};
}

class RtRun {
 public:
  // `sample_cap` sizes each site's latency reservoirs (0: keep none).
  RtRun(const RtSpec& spec, uint64_t seed, bool traced,
        size_t sample_cap = kSampleCap);
  RtRun(const RtRun&) = delete;
  RtRun& operator=(const RtRun&) = delete;

  // Issues requests for `slice_s` seconds, then runs to quiescence.
  void run(double slice_s);
  // Replays the merged observability feed (traced runs) through the
  // invariant checker; returns its violation count.
  uint64_t replay_feed(std::vector<std::string>& reports);

  // Outputs, valid after run().
  uint64_t entries = 0;
  uint64_t issued = 0;
  double wall_s = 0;
  double cpu_s = 0;
  bool timed_out = false;
  uint64_t in_flight_after = 0;
  uint64_t probe_violations = 0;
  // Sampled latencies (at most kSampleCap per site) and how many there were.
  std::vector<double> waits_ns;
  std::vector<double> handoffs_ns;
  uint64_t waits_seen = 0;
  uint64_t handoffs_seen = 0;
  rt::RuntimeStats stats;
  uint64_t replies_forwarded = 0;
  uint64_t replies_direct = 0;
  uint64_t stale_drops = 0;
  double quorum_build_ms = 0;

  SpanTotals totals() const;
  const TransitLog* transit() const { return transit_.get(); }
  void write_spans(std::ostream& os) const;

 private:
  // Per-site client state, touched only by the site's pump thread.
  struct SiteDrv {
    std::vector<LockId> rotation;
    size_t next = 0;
    std::deque<LockId> entered;  // entered, awaiting release at next poll
    int in_service = 0;
    uint64_t issued = 0;
    std::vector<int64_t> requested_at;  // per lock, ns
    Reservoir waits;
    Reservoir handoffs;
    uint64_t delivered = 0;
  };

  bool poll(SiteId s);
  void entered(SiteId s, LockId lock);
  Tracer* tracer(SiteId s) const {
    return traced_ ? tracers_[static_cast<size_t>(s)].get() : nullptr;
  }

  const RtSpec spec_;
  const bool traced_;
  rt::Runtime rtc_;
  std::unique_ptr<quorum::QuorumSystem> quorums_;
  std::vector<std::unique_ptr<Tracer>> tracers_;
  std::unique_ptr<TransitLog> transit_;
  std::unique_ptr<TimedExecutor> exec_;
  std::vector<SiteDrv> drv_;
  rt::SafetyProbe probe_;
  std::vector<std::atomic<int64_t>> last_exit_;  // per lock, ns
  std::vector<std::unique_ptr<mutex::MutexSite>> sites_;
  std::vector<std::unique_ptr<TimedNetSite>> net_sites_;
  std::vector<std::unique_ptr<rt::ObsTap>> taps_;
  std::vector<std::unique_ptr<TimedSpanObserver>> tap_links_;
  std::atomic<bool> stop_issuing_{false};
  double slice_s_ = 0;
  int64_t start_ns_ = 0;
};

rt::RuntimeOptions runtime_options(const RtSpec& spec, bool traced) {
  rt::RuntimeOptions o;
  o.wire_delay_us = spec.wire_delay_us;
  o.obs_feed = traced;
  return o;
}

RtRun::RtRun(const RtSpec& spec, uint64_t seed, bool traced,
             size_t sample_cap)
    : spec_(spec),
      traced_(traced),
      rtc_(kSites, runtime_options(spec, traced)),
      drv_(static_cast<size_t>(kSites)),
      probe_(spec.locks),
      last_exit_(static_cast<size_t>(spec.locks)) {
  const int64_t q0 = now_ns();
  quorums_ = quorum::make_quorum_system("majority", kSites);
  quorum_build_ms = static_cast<double>(now_ns() - q0) * 1e-6;

  net::Executor* exec = &rtc_;
  if (traced_) {
    std::vector<Tracer*> raw;
    for (int s = 0; s < kSites; ++s) {
      tracers_.push_back(std::make_unique<Tracer>(kSpanLog));
      raw.push_back(tracers_.back().get());
    }
    transit_ = std::make_unique<TransitLog>(kSites, kTransitCap);
    exec_ = std::make_unique<TimedExecutor>(rtc_, raw, kRtSend, transit_.get());
    exec = exec_.get();
  }

  mutex::AlgoOptions aopts;
  aopts.num_locks = spec_.locks;
  for (SiteId s = 0; s < kSites; ++s) {
    SiteDrv& d = drv_[static_cast<size_t>(s)];
    d.rotation.resize(static_cast<size_t>(spec_.locks));
    for (LockId l = 0; l < spec_.locks; ++l)
      d.rotation[static_cast<size_t>(l)] = l;
    // rt::run_free's seeded per-site shuffle, so both clients sweep the
    // lock table in the same orders for the same seed.
    Rng rng(seed * 6364136223846793005ull + static_cast<uint64_t>(s));
    for (size_t i = d.rotation.size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(i) - 1));
      std::swap(d.rotation[i - 1], d.rotation[j]);
    }
    d.requested_at.assign(static_cast<size_t>(spec_.locks), 0);
    const uint64_t stream = 2 * static_cast<uint64_t>(s);
    d.waits = Reservoir(sample_cap, rep_seed(seed, stream));
    d.handoffs = Reservoir(sample_cap, rep_seed(seed, stream + 1));

    sites_.push_back(mutex::make_site(mutex::Algo::kCaoSinghal, s, *exec,
                                      quorums_.get(), aopts));
    mutex::MutexSite& site = *sites_.back();
    site.on_enter = [this, s](SiteId, LockId lock) { entered(s, lock); };
    if (traced_) {
      net_sites_.push_back(
          std::make_unique<TimedNetSite>(site, tracer(s), &d.delivered,
                                         transit_.get()));
      rtc_.attach(s, net_sites_.back().get());
      taps_.push_back(std::make_unique<rt::ObsTap>(rtc_, site));
      tap_links_.push_back(
          std::make_unique<TimedSpanObserver>(site, tracer(s), kObsSpan));
    } else {
      rtc_.attach(s, &site);
    }
  }
}

// on_enter: runs on the site's own pump thread, inside a handler (or
// inside request_cs). Only notes the entry; the release happens at the
// site's next poll.
void RtRun::entered(SiteId s, LockId lock) {
  Scope sc(tracer(s), kClient);
  const int64_t t = now_ns();
  probe_.enter(lock, s);
  SiteDrv& d = drv_[static_cast<size_t>(s)];
  const int64_t req = d.requested_at[static_cast<size_t>(lock)];
  d.waits.add(static_cast<double>(t - req));
  // Contended handoff: this request was already waiting when the previous
  // holder left. The holder's exit store happens-before this entry (it
  // precedes the release's messages), so the load sees it.
  const int64_t last =
      last_exit_[static_cast<size_t>(lock)].load(std::memory_order_acquire);
  if (last > 0 && req <= last) d.handoffs.add(static_cast<double>(t - last));
  d.entered.push_back(lock);
}

bool RtRun::poll(SiteId s) {
  SiteDrv& d = drv_[static_cast<size_t>(s)];
  if (s == 0) {
    const double elapsed = static_cast<double>(now_ns() - start_ns_) * 1e-9;
    if (elapsed > slice_s_)
      stop_issuing_.store(true, std::memory_order_release);
    if (elapsed > slice_s_ + kHardTimeoutS && !timed_out) {
      timed_out = true;
      rtc_.request_stop();
    }
  }
  const bool issuing = !stop_issuing_.load(std::memory_order_acquire);
  if (!d.entered.empty() || (issuing && d.in_service < spec_.depth)) {
    Scope sc(tracer(s), kPoll);
    mutex::MutexSite& site = *sites_[static_cast<size_t>(s)];
    while (!d.entered.empty()) {
      const LockId lock = d.entered.front();
      d.entered.pop_front();
      last_exit_[static_cast<size_t>(lock)].store(now_ns(),
                                                  std::memory_order_release);
      probe_.exit(lock, s);
      {
        Scope r(tracer(s), kReleaseCs);
        site.release_cs(lock);
      }
      --d.in_service;
    }
    if (issuing) {
      size_t scanned = 0;
      while (d.in_service < spec_.depth && scanned < d.rotation.size()) {
        const LockId lock = d.rotation[d.next];
        d.next = (d.next + 1) % d.rotation.size();
        ++scanned;
        if (!site.idle(lock)) continue;
        d.requested_at[static_cast<size_t>(lock)] = now_ns();
        ++d.in_service;
        ++d.issued;
        Scope r(tracer(s), kRequestCs);
        site.request_cs(lock);
      }
    }
  }
  return !issuing && d.in_service == 0 && d.entered.empty();
}

void RtRun::run(double slice_s) {
  slice_s_ = slice_s;
  const double c0 = process_cpu_s();
  start_ns_ = now_ns();
  rtc_.run([this](SiteId s) { return poll(s); });
  wall_s = static_cast<double>(now_ns() - start_ns_) * 1e-9;
  cpu_s = process_cpu_s() - c0;

  in_flight_after = rtc_.in_flight();
  probe_violations = probe_.violations();
  stats = rtc_.stats();
  for (size_t s = 0; s < sites_.size(); ++s) {
    entries += sites_[s]->cs_entries();
    stale_drops += sites_[s]->stale_drops();
    if (const auto* cs =
            dynamic_cast<const core::CaoSinghalSite*>(sites_[s].get())) {
      replies_forwarded += cs->protocol_stats().replies_forwarded;
      replies_direct += cs->protocol_stats().replies_direct;
    }
    SiteDrv& d = drv_[s];
    issued += d.issued;
    d.waits.append_to(waits_ns);
    d.handoffs.append_to(handoffs_ns);
    waits_seen += d.waits.seen();
    handoffs_seen += d.handoffs.seen();
  }
}

uint64_t RtRun::replay_feed(std::vector<std::string>& reports) {
  // rt::run_free's audit: the dummy network only provides the checker's
  // constructor seam; nothing is scheduled on it.
  sim::Simulator dummy_sim;
  net::Network dummy_net(dummy_sim, kSites,
                         std::make_unique<net::ConstantDelay>(1), 1);
  obs::InvariantOptions iopts;
  iopts.liveness_bound = 0;
  iopts.quorum_arbitration = true;
  obs::InvariantChecker checker(dummy_net, iopts);
  rtc_.replay_into(checker);
  reports = checker.reports();
  return checker.violations();
}

SpanTotals RtRun::totals() const {
  SpanTotals t;
  for (const auto& tr : tracers_) t.add(*tr);
  return t;
}

void RtRun::write_spans(std::ostream& os) const {
  for (size_t s = 0; s < tracers_.size(); ++s)
    tracers_[s]->write_spans(os, static_cast<int>(s));
}

std::vector<std::string> check_run(const RtRun& r) {
  std::vector<std::string> bad;
  if (r.timed_out) bad.push_back("run did not quiesce (hard timeout)");
  if (r.probe_violations != 0)
    bad.push_back("owner word saw " + std::to_string(r.probe_violations) +
                  " mutual-exclusion violations");
  if (r.in_flight_after != 0)
    bad.push_back("in_flight() = " + std::to_string(r.in_flight_after) +
                  " at quiescence");
  if (r.entries != r.issued)
    bad.push_back("entered " + std::to_string(r.entries) + " of " +
                  std::to_string(r.issued) + " requests");
  return bad;
}

}  // namespace

Result run_rt(const std::string& workload, uint64_t seed, double seconds,
              bool trace, std::ostream* spans) {
  const RtSpec spec = spec_for(workload);
  Result res;
  const unsigned cores = std::thread::hardware_concurrency();
  res.info.emplace_back("pump_threads", std::to_string(kSites));
  res.info.emplace_back("oversubscribed", cores < kSites ? "true" : "false");

  // Set-up time: runtime (rings), quorum system, sites and the client's
  // per-site state, without the benchmark's latency reservoirs; median of
  // several.
  std::vector<double> setups;
  const int64_t setup_start = now_ns();
  for (uint64_t i = 0; i < 101; ++i) {
    const int64_t t0 = now_ns();
    RtRun r(spec, rep_seed(seed, i), false, 0);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (i >= 20 && now_ns() - setup_start > 300'000'000) break;
  }

  // One discarded repetition first: the first threads a process starts on
  // an idle VM run measurably slower than the ones after them.
  {
    RtRun warm(spec, rep_seed(seed, 1'000'000), false);
    warm.run(std::min(kSliceS, seconds));
  }

  if (!trace) {
    const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
    std::vector<double> per_s, per_cpu_s, w50, w95, w99, h50, h99, wire;
    uint64_t wait_samples = 0, handoff_samples = 0;
    for (uint64_t rep = 0;; ++rep) {
      const int64_t t0 = now_ns();
      RtRun r(spec, rep_seed(seed, rep), false);
      r.run(std::min(kSliceS, seconds));
      const double n = static_cast<double>(r.entries);
      per_s.push_back(n / r.wall_s);
      per_cpu_s.push_back(n / r.cpu_s);
      w50.push_back(quantile(r.waits_ns, 0.50) / kTNs);
      w95.push_back(quantile(r.waits_ns, 0.95) / kTNs);
      w99.push_back(quantile(r.waits_ns, 0.99) / kTNs);
      h50.push_back(quantile(r.handoffs_ns, 0.50) / kTNs);
      h99.push_back(quantile(r.handoffs_ns, 0.99) / kTNs);
      wire.push_back(safe_div(static_cast<double>(r.stats.wire_messages), n));
      wait_samples += r.waits_seen;
      handoff_samples += r.handoffs_seen;

      res.attempted += r.issued;
      const auto bad = check_run(r);
      if (!bad.empty()) {
        res.failed += r.issued;
        for (const auto& b : bad)
          res.fail("rep " + std::to_string(rep) + ": " + b);
      }
      // Stop when another repetition would overrun the budget.
      const int64_t rep_ns = now_ns() - t0;
      if (now_ns() + rep_ns > deadline) break;
    }
    res.metric("cs_per_s", median(per_s));
    res.metric("cs_per_cpu_s", median(per_cpu_s));
    res.metric("wait_p50_t", median(w50));
    res.metric("wait_p95_t", median(w95));
    res.info.emplace_back("wait_p99_t", num(median(w99)));
    res.metric("handoff_p50_t", median(h50));
    res.info.emplace_back("handoff_p99_t", num(median(h99)));
    res.metric("wire_msgs_per_cs", median(wire));
    res.metric("setup_s", median(setups));
    res.metric("peak_rss_mb", peak_rss_mb());
    res.samples.emplace_back("wait", wait_samples);
    res.samples.emplace_back("handoff", handoff_samples);
    res.info.emplace_back("cs_per_s_by_rep", join(per_s));
    return res;
  }

  // Traced run: untraced repetitions alternating with rt::run_free on the
  // same configuration (a cross-check of the client), then one traced
  // repetition of the same seed.
  const double slice = std::min(kSliceS, seconds);
  std::vector<double> client_rate, free_rate, plain_ns_per_cs, plain_cpu_us;
  for (uint64_t pair = 0; pair < 3; ++pair) {
    RtRun plain(spec, seed, false);
    plain.run(slice);
    const auto bad = check_run(plain);
    res.attempted += plain.issued;
    if (!bad.empty()) res.failed += plain.issued;
    for (const auto& b : bad) res.fail("untraced run: " + b);
    const double n = static_cast<double>(plain.entries);
    client_rate.push_back(n / plain.wall_s);
    plain_ns_per_cs.push_back(plain.wall_s * 1e9 / n);
    plain_cpu_us.push_back(plain.cpu_s * 1e6 / n);

    rt::FreeRunConfig fc;
    fc.algo = mutex::Algo::kCaoSinghal;
    fc.n = kSites;
    fc.quorum = "majority";
    fc.num_locks = spec.locks;
    fc.outstanding = spec.depth;
    fc.seed = seed;
    fc.wire_delay_us = spec.wire_delay_us;
    fc.target_entries = plain.entries;
    fc.max_seconds = kHardTimeoutS;
    const rt::FreeRunResult free_run = rt::run_free(fc);
    if (!free_run.ok) res.fail("rt::run_free cross-check: " + free_run.error);
    free_rate.push_back(free_run.handoffs_per_sec);
  }
  res.info.emplace_back("client_cs_per_s", num(median(client_rate)));
  res.info.emplace_back("run_free_cs_per_s", num(median(free_rate)));

  RtRun traced(spec, seed, true);
  traced.run(slice);
  {
    const auto bad = check_run(traced);
    res.attempted += traced.issued;
    if (!bad.empty()) res.failed += traced.issued;
    for (const auto& b : bad) res.fail("traced run: " + b);
  }

  const SpanTotals t = traced.totals();
  const double basis_ns = traced.wall_s * 1e9 * kSites;
  uint64_t handled = 0;
  int64_t handler_self = 0;
  for (int k = kHandler0; k < kNumKinds; ++k) {
    handled += t.stat(k).count;
    handler_self += t.stat(k).self_ns;
  }
  std::vector<double> transit = traced.transit()->transits_ns();
  std::vector<std::string> feed;
  const uint64_t feed_reports = traced.replay_feed(feed);
  for (const auto& f : feed) res.info.emplace_back("feed_report", f);

  add_handler_metrics(t, res);
  res.metric("core.request_cs_ns", t.self_per_span_ns(kRequestCs));
  res.metric("core.release_cs_ns", t.self_per_span_ns(kReleaseCs));
  res.metric("core.proxy_reply_frac",
             safe_div(static_cast<double>(traced.replies_forwarded),
                      static_cast<double>(traced.replies_forwarded +
                                          traced.replies_direct)));
  res.metric("core.stale_drop_frac",
             safe_div(static_cast<double>(traced.stale_drops),
                      static_cast<double>(traced.stats.delivered_messages)));
  res.metric("quorum.build_ms", traced.quorum_build_ms);
  res.metric("rt.send_ns", t.self_per_span_ns(kRtSend));
  res.metric("rt.handler_ns", safe_div(static_cast<double>(handler_self),
                                       static_cast<double>(handled)));
  res.metric("rt.poll_ns", t.self_per_span_ns(kPoll));
  res.metric("rt.pump_busy_frac",
             static_cast<double>(t.top_level_ns) / basis_ns);
  res.metric("rt.transit_p50_us", quantile(transit, 0.50) * 1e-3);
  res.metric("rt.transit_p99_us", quantile(transit, 0.99) * 1e-3);
  res.metric("rt.cpu_per_cs_us", median(plain_cpu_us));
  res.metric("rt.feed_reports", static_cast<double>(feed_reports));
  res.metric("rt.spills", static_cast<double>(traced.stats.spilled_messages));
  add_shares(t, basis_ns, res);
  res.metric("trace.overhead_frac",
             traced.wall_s * 1e9 / static_cast<double>(traced.entries) /
                     median(plain_ns_per_cs) -
                 1);
  res.samples.emplace_back("transit", transit.size());
  if (spans != nullptr) traced.write_spans(*spans);
  return res;
}

}  // namespace perfbench
