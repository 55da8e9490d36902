// Simulator workloads.
//
// Both workloads run Cao–Singhal (N=25, grid quorums, K=9) under constant
// delay T = 1000 ticks with E = T/10:
//
//   sim_saturated              closed loop, one outstanding request per
//                              site, one lock, no observers (§5.2); CS
//                              durations exponential with mean E.
//   sim_lock_service_observed  256 locks, open-loop Poisson arrivals at 60%
//                              of the hottest lock's headroom under Zipf 0.9
//                              (x3_lock_service's formula), piggyback window
//                              T, with the invariant checker, critical-path
//                              recorder, timeline and lock_stats attached.
//
// SimRun composes the run from the same public parts, in the same order, as
// harness::run_experiment, adding only the benchmark's client (ClientSite,
// which records request, entry and exit instants) and, in traced runs, the
// timing wrappers of wrappers.h. The traced run checks that both its
// untraced and traced compositions reproduce run_experiment's virtual-time
// outputs exactly for the same seed.
#include "sim_bench.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/cao_singhal.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/workload.h"
#include "mutex/factory.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "obs/critpath.h"
#include "obs/invariants.h"
#include "obs/lock_stats.h"
#include "obs/model.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "quorum/factory.h"
#include "sim/simulator.h"
#include "layers.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using namespace dqme;
using Mode = harness::Workload::Config::Mode;

constexpr Time kT = 1000;  // the paper's T, in ticks
// Measurement windows; one repetition of either takes about a second.
constexpr Time kSaturatedWindow = 100'000 * kT;
constexpr Time kObservedWindow = 20'000 * kT;
constexpr size_t kSpanLog = 200'000;  // spans written to the span log

harness::ExperimentConfig make_config(bool observed, uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.algo = mutex::Algo::kCaoSinghal;
  cfg.n = 25;
  cfg.quorum = "grid";
  cfg.delay_kind = harness::ExperimentConfig::DelayKind::kConstant;
  cfg.mean_delay = kT;
  cfg.workload.cs_duration = kT / 10;
  cfg.warmup = 200 * kT;
  cfg.seed = seed;
  if (!observed) {
    cfg.workload.mode = Mode::kClosed;
    // E ~ Exp(T/10) rather than exactly T/10: with constant E and constant
    // delay the closed loop locks into one periodic schedule whatever the
    // seed, so every virtual-time output would be the same number on every
    // seed. The mean E, and the 1·T proxy handoff, are unchanged.
    cfg.workload.exponential_cs = true;
    cfg.measure = kSaturatedWindow;
    return cfg;
  }
  constexpr LockId kLocks = 256;
  constexpr double kSkew = 0.9;
  cfg.workload.mode = Mode::kOpen;
  cfg.workload.zipf_skew = kSkew;
  cfg.options.num_locks = kLocks;
  // x3_lock_service's offered load: aggregate demand 0.6 * C1 * H keeps
  // the hottest lock (Zipf weight 1/H) at 60% of one lock's conservative
  // capacity C1 = 1/(2T+E).
  double hot_headroom = 0;
  for (LockId k = 0; k < kLocks; ++k)
    hot_headroom += std::pow(static_cast<double>(k + 1), -kSkew);
  hot_headroom = std::min(hot_headroom, 40.0);
  const double c1 =
      1.0 / static_cast<double>(2 * kT + cfg.workload.cs_duration);
  cfg.workload.arrival_rate = 0.6 * c1 * hot_headroom / cfg.n;
  cfg.lock_piggyback_window = kT;
  cfg.check_invariants = true;
  cfg.critpath = true;
  // Far above any window's span count, so spans_dropped == 0 is a check
  // on the configuration rather than a hope.
  cfg.critpath_capacity = 200'000'000;
  cfg.timeline_window = 10 * kT;
  cfg.lock_stats_k = 64;
  cfg.measure = kObservedWindow;
  return cfg;
}

// run_experiment's watchdog bound when the config leaves it to the run.
Time auto_liveness_bound(const harness::ExperimentConfig& cfg) {
  const Time cycle = 2 * cfg.mean_delay + cfg.workload.cs_duration;
  return 8 * static_cast<Time>(cfg.n) * cycle + 400 * cfg.mean_delay +
         10 * (cfg.detection_latency + cfg.detection_jitter);
}

// Request, entry and exit instants seen by the benchmark's client, and the
// measurement-window samples derived from them. The populations match
// harness::Metrics: waits of CSs entered and exited inside the window, and
// contended handoffs (the entering request was issued before the previous
// holder's exit on the same lock) entered inside the window.
struct ClientLog {
  ClientLog(int n, LockId locks)
      : num_locks(locks),
        requested(static_cast<size_t>(n) * static_cast<size_t>(locks), 0),
        entered(requested.size(), 0),
        counted(requested.size(), 0),
        last_exit(static_cast<size_t>(locks), 0),
        have_exit(static_cast<size_t>(locks), 0) {}

  size_t slot(SiteId s, LockId l) const {
    return static_cast<size_t>(s) * static_cast<size_t>(num_locks) +
           static_cast<size_t>(l);
  }
  void open_window() {
    window = true;
    std::fill(counted.begin(), counted.end(), 0);
    std::fill(have_exit.begin(), have_exit.end(), 0);
  }
  void on_request(SiteId s, LockId l, Time now) { requested[slot(s, l)] = now; }
  void on_enter(SiteId s, LockId l, Time now) {
    const size_t i = slot(s, l);
    const size_t L = static_cast<size_t>(l);
    entered[i] = now;
    counted[i] = window ? 1 : 0;
    if (window && have_exit[L] != 0 && requested[i] <= last_exit[L])
      handoffs.push_back(static_cast<double>(now - last_exit[L]));
  }
  void on_exit(SiteId s, LockId l, Time now) {
    const size_t i = slot(s, l);
    if (window && counted[i] != 0)
      waits.push_back(static_cast<double>(entered[i] - requested[i]));
    last_exit[static_cast<size_t>(l)] = now;
    have_exit[static_cast<size_t>(l)] = 1;
  }

  LockId num_locks;
  bool window = false;
  std::vector<Time> requested;
  std::vector<Time> entered;
  std::vector<char> counted;
  std::vector<Time> last_exit;
  std::vector<char> have_exit;
  std::vector<double> waits;     // ticks
  std::vector<double> handoffs;  // ticks
};

// The benchmark's client: a MutexSite that forwards request_cs/release_cs
// to the protocol site and reports its entries back to the driver, noting
// each instant in the ClientLog. Traced runs time the forwarded calls.
class ClientSite final : public mutex::MutexSite {
 public:
  ClientSite(mutex::MutexSite& inner, net::Executor& net, ClientLog& log,
             Tracer* tracer)
      : MutexSite(inner.id(), net, inner.num_locks()),
        inner_(inner),
        log_(log),
        tracer_(tracer) {
    inner_.on_enter = [this](SiteId, LockId lock) { entered(lock); };
    inner_.on_abort = [this](SiteId, LockId lock) { abort_request(lock); };
  }

  // The protocol site stays attached to the network; nothing delivers here.
  void on_message(const net::Message& m, LockId lock) override {
    inner_.on_message(m, lock);
  }

 protected:
  void do_request(LockId lock) override {
    log_.on_request(id(), lock, net().now());
    Scope s(tracer_, kRequestCs);
    inner_.request_cs(lock);
  }
  void do_release(LockId lock) override {
    log_.on_exit(id(), lock, net().now());
    Scope s(tracer_, kReleaseCs);
    inner_.release_cs(lock);
  }

 private:
  void entered(LockId lock) {
    log_.on_enter(id(), lock, net().now());
    set_entry_hops(lock, inner_.last_entry_hops(lock));
    Scope s(tracer_, kClient);
    enter_cs(lock);
  }

  mutex::MutexSite& inner_;
  ClientLog& log_;
  Tracer* tracer_;
};

// run_experiment's timeline sampler: network-side series sampled once per
// window from a self-rescheduling event.
class TimelineSampler {
 public:
  TimelineSampler(net::Network& net,
                  const std::vector<std::unique_ptr<mutex::MutexSite>>& sites,
                  obs::Timeline& tl, Time end, Tracer* tracer)
      : net_(net),
        sites_(sites),
        tl_(tl),
        wire_(tl.counter("net.wire_msgs")),
        ctrl_(tl.counter("net.ctrl_msgs")),
        piggy_(tl.counter("net.piggybacked_msgs")),
        mpf_(tl.gauge("net.msgs_per_flight")),
        end_(end),
        tracer_(tracer) {}

  void start() {
    const Time first = std::min(tl_.window(), end_);
    net_.simulator().schedule_at(first, [this, first] { sample(first); });
  }

 private:
  void sample(Time now) {
    Scope s(tracer_, kObsTimeline);
    const Time in_window = now > 0 ? now - 1 : 0;
    const auto& ns = net_.stats();
    const uint64_t d_wire = ns.wire_messages - prev_wire_;
    const uint64_t d_ctrl = ns.control_messages - prev_ctrl_;
    wire_.record(in_window, d_wire);
    ctrl_.record(in_window, d_ctrl);
    piggy_.record(in_window, ns.piggybacked_messages - prev_piggy_);
    mpf_.record(in_window, d_wire > 0 ? static_cast<double>(d_ctrl) /
                                            static_cast<double>(d_wire)
                                      : 1.0);
    prev_wire_ = ns.wire_messages;
    prev_ctrl_ = ns.control_messages;
    prev_piggy_ = ns.piggybacked_messages;
    uint64_t rec = 0;
    for (const auto& site : sites_)
      if (const auto* cs =
              dynamic_cast<const core::CaoSinghalSite*>(site.get()))
        rec += cs->protocol_stats().recoveries;
    if (rec > prev_recoveries_) {
      tl_.mark("recovery x" + std::to_string(rec - prev_recoveries_),
               in_window);
      prev_recoveries_ = rec;
    }
    if (now < end_) {
      const Time next = std::min(now + tl_.window(), end_);
      net_.simulator().schedule_at(next, [this, next] { sample(next); });
    }
  }

  net::Network& net_;
  const std::vector<std::unique_ptr<mutex::MutexSite>>& sites_;
  obs::Timeline& tl_;
  obs::Timeline::Counter& wire_;
  obs::Timeline::Counter& ctrl_;
  obs::Timeline::Counter& piggy_;
  obs::Timeline::Gauge& mpf_;
  Time end_;
  Tracer* tracer_;
  uint64_t prev_wire_ = 0, prev_ctrl_ = 0, prev_piggy_ = 0;
  uint64_t prev_recoveries_ = 0;
};

class SimRun {
 public:
  SimRun(const harness::ExperimentConfig& cfg, Tracer* tracer);
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  // Warmup, measurement window, drain and the post-run obs passes.
  void run();

  const harness::ExperimentConfig cfg;
  // Outputs, valid after run().
  harness::Summary summary;
  obs::Registry registry;
  obs::Timeline timeline;
  obs::LockStats lock_stats;
  obs::CritStats critpath;
  bool drained_clean = false;
  uint64_t me_violations = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t events = 0;
  uint64_t invariant_violations = 0;
  std::vector<std::string> invariant_reports;
  uint64_t span_events = 0;
  uint64_t spans_dropped = 0;
  uint64_t replies_forwarded = 0;
  uint64_t replies_direct = 0;
  uint64_t stale_drops = 0;
  double quorum_build_ms = 0;
  double mean_quorum_size = 0;

  const ClientLog& log() const { return log_; }
  const net::NetworkStats& net_stats() const { return net_.stats(); }
  uint64_t delivered() const { return delivered_; }

 private:
  // Runs every event up to and including instant `until`, like
  // Simulator::run_until; traced runs step one event at a time.
  void advance(Time until);

  Tracer* tracer_;
  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<obs::SpanRecorder> span_rec_;
  std::unique_ptr<quorum::QuorumSystem> quorums_;
  std::unique_ptr<TimedExecutor> exec_;
  std::vector<std::unique_ptr<mutex::MutexSite>> sites_;
  std::vector<std::unique_ptr<TimedNetSite>> net_sites_;
  std::vector<std::unique_ptr<TimedSpanObserver>> span_links_;
  std::unique_ptr<obs::InvariantChecker> checker_;
  ClientLog log_;
  std::vector<std::unique_ptr<ClientSite>> clients_;
  harness::Metrics metrics_;
  std::unique_ptr<harness::Workload> workload_;
  std::unique_ptr<TimelineSampler> sampler_;
  uint64_t delivered_ = 0;
  uint64_t sentinels_ = 0;
};

SimRun::SimRun(const harness::ExperimentConfig& config, Tracer* tracer)
    : cfg(config),
      tracer_(tracer),
      net_(sim_, config.n,
           std::make_unique<net::ConstantDelay>(config.mean_delay),
           config.seed * 7919 + 13),
      log_(config.n, config.options.num_locks),
      metrics_(net_, config.options.num_locks) {
  DQME_CHECK(cfg.delay_kind ==
             harness::ExperimentConfig::DelayKind::kConstant);
  if (cfg.lock_piggyback_window >= 0)
    net_.set_lock_piggyback(cfg.lock_piggyback_window);
  if (cfg.critpath) {
    span_rec_ =
        std::make_unique<obs::SpanRecorder>(net_, cfg.critpath_capacity);
    if (tracer_ != nullptr) wrap_on_deliver(net_, tracer_, kObsSpan);
  }

  const int64_t q0 = now_ns();
  quorums_ = quorum::make_quorum_system(cfg.quorum, cfg.n);
  quorum_build_ms = static_cast<double>(now_ns() - q0) * 1e-6;
  mean_quorum_size = quorums_->mean_quorum_size();

  net::Executor* exec = &net_;
  if (tracer_ != nullptr) {
    exec_ = std::make_unique<TimedExecutor>(
        net_, std::vector<Tracer*>(static_cast<size_t>(cfg.n), tracer_),
        kNetSend);
    exec = exec_.get();
  }
  for (SiteId id = 0; id < cfg.n; ++id) {
    sites_.push_back(
        mutex::make_site(cfg.algo, id, *exec, quorums_.get(), cfg.options));
    if (tracer_ != nullptr) {
      net_sites_.push_back(
          std::make_unique<TimedNetSite>(*sites_.back(), tracer_, &delivered_));
      net_.attach(id, net_sites_.back().get());
    } else {
      net_.attach(id, sites_.back().get());
    }
  }
  if (span_rec_) {
    span_rec_->attach_all(sites_);
    if (tracer_ != nullptr)
      for (auto& s : sites_)
        span_links_.push_back(
            std::make_unique<TimedSpanObserver>(*s, tracer_, kObsSpan));
  }
  if (cfg.check_invariants) {
    obs::InvariantOptions iopts;
    iopts.liveness_bound =
        cfg.liveness_bound > 0 ? cfg.liveness_bound : auto_liveness_bound(cfg);
    iopts.quorum_arbitration = mutex::algo_uses_quorum(cfg.algo);
    checker_ = std::make_unique<obs::InvariantChecker>(net_, iopts);
    if (tracer_ != nullptr) wrap_on_deliver(net_, tracer_, kObsChecker);
    checker_->attach_all(sites_);
    if (tracer_ != nullptr)
      for (auto& s : sites_)
        span_links_.push_back(
            std::make_unique<TimedSpanObserver>(*s, tracer_, kObsChecker));
  }
  if (cfg.timeline_window > 0)
    timeline = obs::Timeline(0, cfg.timeline_window);
  if (cfg.lock_stats_k > 0)
    lock_stats = obs::LockStats(static_cast<size_t>(cfg.lock_stats_k));

  std::vector<mutex::MutexSite*> clients;
  for (auto& s : sites_) {
    clients_.push_back(std::make_unique<ClientSite>(*s, net_, log_, tracer_));
    clients.push_back(clients_.back().get());
  }
  harness::Workload::Config wl = cfg.workload;
  wl.seed = cfg.seed * 104729 + 7;
  wl.num_locks = cfg.options.num_locks;
  workload_ = std::make_unique<harness::Workload>(sim_, clients, wl, &metrics_);

  if (timeline.enabled()) {
    sampler_ = std::make_unique<TimelineSampler>(
        net_, sites_, timeline, cfg.warmup + cfg.measure, tracer_);
    sampler_->start();
  }
}

void SimRun::advance(Time until) {
  if (tracer_ == nullptr) {
    sim_.run_until(until);
    return;
  }
  // A sentinel event at `until` ends the stepped loop; events scheduled at
  // `until` after it still run, in order, through run_until. The sentinel
  // only sets a flag, so the other events keep their relative order.
  bool reached = false;
  sim_.schedule_at(until, [&reached] { reached = true; });
  ++sentinels_;
  while (!reached) {
    const uint64_t before = delivered_;
    tracer_->open();
    sim_.step();
    tracer_->close(delivered_ != before ? kDeliverStep : kStep);
  }
  Scope s(tracer_, kStep);
  sim_.run_until(until);
}

void SimRun::run() {
  workload_->start();
  advance(cfg.warmup);
  metrics_.reset(sim_.now());
  log_.open_window();
  metrics_.bind_registry(&registry, cfg.mean_delay);
  metrics_.bind_timeline(&timeline, cfg.mean_delay);
  if (lock_stats.enabled()) metrics_.bind_lock_stats(&lock_stats);
  advance(cfg.warmup + cfg.measure);
  summary = metrics_.summarize(sim_.now());
  log_.window = false;
  metrics_.bind_registry(nullptr, 0);
  metrics_.bind_timeline(nullptr, 0);
  metrics_.bind_lock_stats(nullptr);

  workload_->drain();
  advance(sim_.now() + 1000 * cfg.mean_delay + 100 * cfg.workload.cs_duration);
  drained_clean = workload_->demands_outstanding() == 0;
  me_violations = metrics_.violations();
  issued = workload_->demands_issued();
  completed = workload_->demands_completed();
  events = sim_.events_executed() - sentinels_;
  for (const auto& s : sites_) {
    stale_drops += s->stale_drops();
    if (const auto* cs = dynamic_cast<const core::CaoSinghalSite*>(s.get())) {
      replies_forwarded += cs->protocol_stats().replies_forwarded;
      replies_direct += cs->protocol_stats().replies_direct;
    }
  }
  if (checker_) {
    Scope s(tracer_, kObsChecker);
    checker_->finish(sim_.now());
    invariant_violations = checker_->violations();
    invariant_reports = checker_->reports();
  }
  if (span_rec_) {
    Scope s(tracer_, kObsCritpath);
    span_events = span_rec_->events().size();
    spans_dropped = span_rec_->dropped();
    critpath = obs::CritStats(cfg.mean_delay);
    const Time lo = cfg.warmup;
    const Time hi = cfg.warmup + cfg.measure;
    for (const obs::CritPath& p :
         obs::extract_critical_paths(span_rec_->events()))
      if (p.entered >= lo && p.entered < hi) critpath.record(p);
  }
}

// Table 1's sync delay for this run, refined by its observed relay mix.
double predicted_sync_delay_t(const SimRun& r) {
  const obs::ModelPrediction pred =
      obs::predict(r.cfg.algo, r.cfg.n, r.mean_quorum_size);
  return obs::mixed_sync_delay(r.summary.contended_proxied,
                               r.summary.contended_direct, pred.sync_delay_t);
}

double handoff_p50_t(const SimRun& r) {
  std::vector<double> h = r.log().handoffs;
  return quantile(h, 0.50) / static_cast<double>(kT);
}

// The correctness checks of one repetition; returns what failed.
std::vector<std::string> check_run(const SimRun& r) {
  std::vector<std::string> bad;
  if (r.me_violations != 0)
    bad.push_back("mutual exclusion violated " +
                  std::to_string(r.me_violations) + "x");
  if (!r.drained_clean) bad.push_back("demands left outstanding after drain");
  if (r.cfg.check_invariants && r.invariant_violations != 0) {
    bad.push_back("invariant checker: " +
                  std::to_string(r.invariant_violations) + " violations");
    for (const auto& rep : r.invariant_reports) bad.push_back("  " + rep);
  }
  if (r.cfg.critpath && r.spans_dropped != 0)
    bad.push_back("critical-path recorder dropped " +
                  std::to_string(r.spans_dropped) + " spans");
  if (r.cfg.critpath && r.critpath.residual_ticks() != 0)
    bad.push_back("critical paths do not tile their waits");
  if (r.cfg.workload.mode == Mode::kClosed) {
    // Table 1 conformance: the measured handoff against obs::predict().
    const double pred = predicted_sync_delay_t(r);
    const double meas = handoff_p50_t(r);
    if (std::abs(meas - pred) > 0.05 * pred)
      bad.push_back("handoff_p50_t " + num(meas) + " is not within 5% of "
                    "the model's " + num(pred) + "T");
  }
  return bad;
}

// Fidelity: the composition must reproduce run_experiment's virtual-time
// outputs for the same config and seed.
void compare(const SimRun& r, const harness::ExperimentResult& o,
             const std::string& which, Result& res) {
  const auto same = [&](const std::string& what, double a, double b) {
    if (a != b)
      res.fail(which + " run: " + what + " " + num(a) +
               " differs from run_experiment's " + num(b));
  };
  const harness::Summary& s = r.summary;
  const harness::Summary& e = o.summary;
  same("window CS count", static_cast<double>(s.completed),
       static_cast<double>(e.completed));
  same("all CS count", static_cast<double>(r.completed),
       static_cast<double>(o.demands_completed));
  same("wire msgs per CS", s.wire_msgs_per_cs, e.wire_msgs_per_cs);
  same("ctrl msgs per CS", s.ctrl_msgs_per_cs, e.ctrl_msgs_per_cs);
  same("contended gaps", static_cast<double>(s.contended_gaps),
       static_cast<double>(e.contended_gaps));
  same("contended sync delay", s.sync_delay_contended, e.sync_delay_contended);
  same("proxied entries", static_cast<double>(s.contended_proxied),
       static_cast<double>(e.contended_proxied));
  same("waiting p50", s.waiting_p50, e.waiting_p50);
  same("waiting p99", s.waiting_p99, e.waiting_p99);
  same("client handoff samples", static_cast<double>(r.log().handoffs.size()),
       static_cast<double>(e.contended_gaps));
  same("client wait samples", static_cast<double>(r.log().waits.size()),
       static_cast<double>(e.completed));
  const obs::Histogram* g = r.registry.find_histogram("sync_gap");
  const obs::Histogram* ge = o.registry.find_histogram("sync_gap");
  if (g == nullptr || ge == nullptr || g->buckets() != ge->buckets() ||
      g->sum() != ge->sum() || g->underflow() != ge->underflow() ||
      g->overflow() != ge->overflow())
    res.fail(which + " run: sync-gap record differs from run_experiment's");
  same("invariant violations", static_cast<double>(r.invariant_violations),
       static_cast<double>(o.invariant_violations));
  same("critical paths", static_cast<double>(r.critpath.paths()),
       static_cast<double>(o.critpath.paths()));
}

void add_layer_metrics(const SimRun& r, const SpanTotals& t, Result& res) {
  const double cs = static_cast<double>(r.completed);
  const net::NetworkStats& ns = r.net_stats();
  res.metric("sim.step_self_ns", t.self_per_span_ns(kStep));
  res.metric("sim.events_per_cs", safe_div(static_cast<double>(r.events), cs));
  res.metric("net.send_ns", t.self_per_span_ns(kNetSend));
  // A step that delivers a flight is charged to the network: its self time
  // is the heap pop plus Network's own delivery work.
  res.metric("net.deliver_self_ns",
             safe_div(static_cast<double>(t.stat(kDeliverStep).self_ns),
                      static_cast<double>(r.delivered())));
  res.metric("net.msgs_per_flight",
             safe_div(static_cast<double>(ns.control_messages),
                      static_cast<double>(ns.wire_messages)));
  add_handler_metrics(t, res);
  res.metric("core.request_cs_ns", t.self_per_span_ns(kRequestCs));
  res.metric("core.release_cs_ns", t.self_per_span_ns(kReleaseCs));
  res.metric("core.proxy_reply_frac",
             safe_div(static_cast<double>(r.replies_forwarded),
                      static_cast<double>(r.replies_forwarded +
                                          r.replies_direct)));
  res.metric("core.stale_drop_frac",
             safe_div(static_cast<double>(r.stale_drops),
                      static_cast<double>(ns.delivered_messages)));
  res.metric("quorum.build_ms", r.quorum_build_ms);
  res.metric("obs.checker_ns",
             safe_div(static_cast<double>(t.stat(kObsChecker).self_ns),
                      static_cast<double>(ns.delivered_messages)));
  res.metric("obs.span_ns",
             safe_div(static_cast<double>(t.stat(kObsSpan).self_ns),
                      static_cast<double>(r.span_events)));
  res.metric("obs.timeline_sample_ns", t.self_per_span_ns(kObsTimeline));
  res.metric("obs.critpath_build_ms",
             static_cast<double>(t.stat(kObsCritpath).self_ns) * 1e-6);
  res.metric("obs.spans_dropped", static_cast<double>(r.spans_dropped));
}

}  // namespace

Result run_sim(const std::string& workload, uint64_t seed, double seconds,
               bool trace, std::ostream* spans) {
  const bool observed = workload == "sim_lock_service_observed";
  Result res;

  // Set-up time: composing the run (network, quorum system, sites,
  // observers, client, workload), median of several.
  std::vector<double> setups;
  const int64_t setup_start = now_ns();
  for (uint64_t i = 0; i < 201; ++i) {
    const auto cfg = make_config(observed, rep_seed(seed, i));
    const int64_t t0 = now_ns();
    SimRun r(cfg, nullptr);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (i >= 20 && now_ns() - setup_start > 500'000'000) break;
  }

  if (!trace) {
    // Repetition 0 warms the process up (its heap and the core it runs on)
    // and supplies the virtual-time metrics, a pure function of the seed;
    // throughput is the median over the repetitions after it.
    int64_t deadline = 0;
    std::vector<double> per_s, per_cpu_s;
    for (uint64_t rep = 0;; ++rep) {
      SimRun r(make_config(observed, rep_seed(seed, rep)), nullptr);
      const double c0 = process_cpu_s();
      const int64_t t0 = now_ns();
      r.run();
      const int64_t t1 = now_ns();
      const double cpu = process_cpu_s() - c0;
      res.attempted += r.issued;
      const auto bad = check_run(r);
      if (!bad.empty()) {
        res.failed += r.issued;
        for (const auto& b : bad)
          res.fail("rep " + std::to_string(rep) + ": " + b);
      }
      if (rep == 0) {
        ClientLog log = r.log();
        const double t = static_cast<double>(kT);
        res.metric("wait_p50_t", quantile(log.waits, 0.50) / t);
        res.metric("wait_p95_t", quantile(log.waits, 0.95) / t);
        res.info.emplace_back("wait_p99_t", num(quantile(log.waits, 0.99) / t));
        res.metric("handoff_p50_t", quantile(log.handoffs, 0.50) / t);
        res.info.emplace_back("handoff_p99_t",
                              num(quantile(log.handoffs, 0.99) / t));
        res.metric("wire_msgs_per_cs", r.summary.wire_msgs_per_cs);
        res.samples.emplace_back("wait", log.waits.size());
        res.samples.emplace_back("handoff", log.handoffs.size());
        res.info.emplace_back("handoff_model_t",
                              num(predicted_sync_delay_t(r)));
        deadline = t1 + static_cast<int64_t>(seconds * 1e9);
        continue;
      }
      per_s.push_back(static_cast<double>(r.completed) /
                      (static_cast<double>(t1 - t0) * 1e-9));
      per_cpu_s.push_back(static_cast<double>(r.completed) / cpu);
      // Stop when another repetition would overrun the budget.
      if (now_ns() + (t1 - t0) > deadline) break;
    }
    res.metric("cs_per_s", median(per_s));
    res.metric("cs_per_cpu_s", median(per_cpu_s));
    res.metric("setup_s", median(setups));
    res.metric("peak_rss_mb", peak_rss_mb());
    res.info.emplace_back("cs_per_s_by_rep", join(per_s));
    return res;
  }

  // Traced run: run_experiment as the oracle, then the untraced and the
  // traced composition of the same config and seed.
  const harness::ExperimentConfig cfg = make_config(observed, seed);
  const harness::ExperimentResult oracle = harness::run_experiment(cfg);
  SimRun plain(cfg, nullptr);
  int64_t t0 = now_ns();
  plain.run();
  const double plain_ns = static_cast<double>(now_ns() - t0);
  Tracer tracer(kSpanLog);
  SimRun traced(cfg, &tracer);
  t0 = now_ns();
  traced.run();
  const double traced_ns = static_cast<double>(now_ns() - t0);

  compare(plain, oracle, "untraced", res);
  compare(traced, oracle, "traced", res);
  res.attempted = traced.issued;
  const auto bad = check_run(traced);
  for (const auto& b : bad) res.fail(b);
  if (!bad.empty()) res.failed = traced.issued;

  SpanTotals totals;
  totals.add(tracer);
  add_layer_metrics(traced, totals, res);
  add_shares(totals, traced_ns, res);
  res.metric("trace.overhead_frac", traced_ns / plain_ns - 1);
  if (spans != nullptr) tracer.write_spans(*spans, 0);
  res.info.emplace_back("traced_wall_s", num(traced_ns * 1e-9));
  res.info.emplace_back("untraced_wall_s", num(plain_ns * 1e-9));
  res.info.emplace_back("spans_logged", std::to_string(tracer.spans_logged()));
  return res;
}

}  // namespace perfbench
