#include "rt/runtime.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/invariants.h"

namespace dqme::rt {

Runtime::Runtime(int n, RuntimeOptions opts)
    : n_(n),
      opts_(opts),
      sites_(static_cast<size_t>(n), nullptr),
      alive_(static_cast<size_t>(n)),
      timers_(static_cast<size_t>(n)),
      timer_seq_(static_cast<size_t>(n), 0),
      obs_shards_(static_cast<size_t>(n)) {
  DQME_CHECK_MSG(n >= 1, "Runtime needs at least one site");
  channels_.resize(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (auto& c : channels_)
    c.ring = std::make_unique<SpscRing<WireSlot>>(opts_.ring_capacity);
  for (auto& a : alive_) a.store(true, std::memory_order_relaxed);
}

Runtime::~Runtime() {
  // Leak-free teardown even after an aborted run: recycle any payload slot
  // still referenced by an undelivered message.
  drain_residue();
}

void Runtime::attach(SiteId id, net::NetSite* site) {
  DQME_CHECK(0 <= id && id < n_);
  sites_[static_cast<size_t>(id)] = site;
}

void Runtime::enqueue(SiteId src, SiteId dst, const WireSlot& slot) {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  Channel& c = chan(src, dst);
  // FIFO: anything already spilled goes first; a new message may only take
  // the ring fast path when the spill queue is empty.
  if (!c.spill.empty()) {
    while (!c.spill.empty() && c.ring->try_push(c.spill.front()))
      c.spill.pop_front();
    if (!c.spill.empty()) {
      c.spill.push_back(slot);
      spilled_messages_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (!c.ring->try_push(slot)) {
    c.spill.push_back(slot);
    spilled_messages_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Runtime::send(SiteId src, SiteId dst, const net::Message& m,
                   LockId lock) {
  send_bundle(src, dst, &m, 1, lock);
}

void Runtime::send_bundle(SiteId src, SiteId dst, const net::Message* msgs,
                          size_t n, LockId lock) {
  DQME_CHECK(0 <= src && src < n_ && 0 <= dst && dst < n_);
  if (n == 0) return;
  if (!alive(src)) {
    // Fail-silent sender: nothing leaves a crashed site. Release any
    // payload the caller had already attached.
    for (size_t i = 0; i < n; ++i) {
      if (msgs[i].payload != net::kNoPayload) release_payload(msgs[i].payload);
      dropped_at_crashed_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  const Time at = now();
  WireSlot slot;
  slot.lock = lock;
  for (size_t i = 0; i < n; ++i) {
    slot.m = msgs[i];
    slot.m.src = src;
    slot.m.dst = dst;
    slot.m.sent_at = at;
    enqueue(src, dst, slot);
  }
  control_messages_.fetch_add(n, std::memory_order_relaxed);
  if (src == dst) {
    local_messages_.fetch_add(n, std::memory_order_relaxed);
  } else {
    // Piggyback accounting parity with net::Network: one bundle between
    // distinct sites = one wire message (§5 cost model).
    wire_messages_.fetch_add(1, std::memory_order_relaxed);
  }
}

net::KvFields& Runtime::attach_kv(net::Message& m) {
  std::lock_guard<std::mutex> g(payload_mu_);
  uint32_t id;
  if (payload_free_ != kNil) {
    id = payload_free_;
    payload_free_ = payloads_[id].next_free;
  } else {
    id = static_cast<uint32_t>(payloads_.size());
    payloads_.emplace_back();
  }
  payloads_[id].next_free = kNil;
  payloads_acquired_.fetch_add(1, std::memory_order_relaxed);
  m.payload = id;
  return payloads_[id].kv;
}

net::TokenPayload& Runtime::attach_token(net::Message& m) {
  attach_kv(m);  // same slot type; binds m.payload
  std::lock_guard<std::mutex> g(payload_mu_);
  return payloads_[m.payload].token;
}

net::KvFields Runtime::read_kv(const net::Message& m) const {
  DQME_CHECK(m.payload != net::kNoPayload);
  std::lock_guard<std::mutex> g(payload_mu_);
  return payloads_[m.payload].kv;
}

net::TokenPayload Runtime::take_token(const net::Message& m) {
  DQME_CHECK(m.payload != net::kNoPayload);
  std::lock_guard<std::mutex> g(payload_mu_);
  return std::move(payloads_[m.payload].token);
}

void Runtime::release_payload(net::PayloadId id) {
  std::lock_guard<std::mutex> g(payload_mu_);
  PayloadSlot& p = payloads_[id];
  p.token.ln.clear();
  p.token.queue.clear();
  p.kv = net::KvFields{};
  p.next_free = payload_free_;
  payload_free_ = id;
}

uint64_t Runtime::schedule_timeout(SiteId site, Time delay, sim::Callback fn) {
  DQME_CHECK(0 <= site && site < n_ && delay >= 0);
  auto& heap = timers_[static_cast<size_t>(site)];
  Timer t;
  t.deadline = now() + delay;
  t.seq = ++timer_seq_[static_cast<size_t>(site)];
  t.fn = std::move(fn);
  const uint64_t id = t.seq;
  heap.push_back(std::move(t));
  std::push_heap(heap.begin(), heap.end(), timer_later);
  return id;
}

void Runtime::run_due_timers(SiteId site) {
  auto& heap = timers_[static_cast<size_t>(site)];
  if (heap.empty()) return;
  const Time t = now();
  while (!heap.empty() && heap.front().deadline <= t) {
    std::pop_heap(heap.begin(), heap.end(), timer_later);
    sim::Callback fn = std::move(heap.back().fn);
    heap.pop_back();
    fn();
  }
}

void Runtime::crash(SiteId id) {
  DQME_CHECK(0 <= id && id < n_);
  DQME_CHECK_MSG(alive(id), "site " << id << " already crashed");
  alive_[static_cast<size_t>(id)].store(false, std::memory_order_release);
  if (opts_.obs_feed) {
    ObsEvent e;
    e.stamp = next_stamp();
    e.kind = ObsEvent::kCrash;
    e.site = id;
    e.at = now();
    std::lock_guard<std::mutex> g(obs_extra_mu_);
    obs_extra_.push_back(e);
  }
}

void Runtime::record_span(SiteId site, uint8_t kind, LockId lock,
                          SpanId span) {
  if (!opts_.obs_feed) return;
  ObsEvent e;
  e.stamp = next_stamp();
  e.kind = kind;
  e.site = site;
  e.lock = lock;
  e.span = span;
  e.at = now();
  obs_shards_[static_cast<size_t>(site)].push_back(e);
}

void Runtime::record_deliver(SiteId dst, const net::Message& m, LockId lock) {
  ObsEvent e;
  e.stamp = next_stamp();
  e.kind = ObsEvent::kDeliver;
  e.site = dst;
  e.lock = lock;
  e.m = m;
  // The payload slot is recycled the moment the handler returns; sever the
  // handle so the replay can never chase a reused slot.
  e.m.payload = net::kNoPayload;
  e.at = now();
  obs_shards_[static_cast<size_t>(dst)].push_back(e);
}

bool Runtime::dispatch(SiteId dst, const WireSlot& slot) {
  const net::Message& m = slot.m;
  const bool drop = !alive(dst) || !alive(m.src);
  if (drop) {
    if (m.payload != net::kNoPayload) release_payload(m.payload);
    dropped_at_crashed_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  // Recorded right before the handler runs, so the feed sees each
  // delivery when the receiver does.
  if (opts_.obs_feed) record_deliver(dst, m, slot.lock);
  net::NetSite* site = sites_[static_cast<size_t>(dst)];
  DQME_CHECK_MSG(site != nullptr, "delivery to unattached site " << dst);
  site->on_message(m, slot.lock);
  if (m.payload != net::kNoPayload) release_payload(m.payload);
  delivered_messages_.fetch_add(1, std::memory_order_relaxed);
  // Only after the handler returns: in_flight() == 0 means the receiver is
  // done reacting (its own sends were counted before this decrement).
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool Runtime::try_deliver_one(SiteId src, SiteId dst) {
  Channel& c = chan(src, dst);
  // Self-channels are exempt from the emulated wire delay, matching the
  // simulator's immediate self-delivery.
  const bool delayed = opts_.wire_delay_us > 0 && src != dst;
  const Time cutoff =
      delayed ? now() - static_cast<Time>(opts_.wire_delay_us) : 0;
  for (;;) {
    if (!c.has_staged) {
      if (!c.ring->try_pop(c.staged)) return false;
      c.has_staged = true;
    }
    // Emulated wire delay: the head message stays staged until its
    // timestamp ages past the delay. Per-producer timestamps are
    // monotonic, so gating only the head preserves channel FIFO.
    if (delayed && c.staged.m.sent_at > cutoff) return false;
    c.has_staged = false;
    if (dispatch(dst, c.staged)) return true;
    // Crash drop: resolved, keep scanning this channel.
  }
}

size_t Runtime::drain(SiteId dst, size_t max) {
  size_t delivered = 0;
  const bool delayed = opts_.wire_delay_us > 0;
  const Time cutoff =
      delayed ? now() - static_cast<Time>(opts_.wire_delay_us) : 0;
  for (SiteId src = 0; src < n_ && delivered < max; ++src) {
    Channel& c = chan(src, dst);
    // Self-channel exemption, as in try_deliver_one.
    const bool gate = delayed && src != dst;
    while (delivered < max) {
      if (!c.has_staged) {
        if (!c.ring->try_pop(c.staged)) break;
        c.has_staged = true;
      }
      if (gate && c.staged.m.sent_at > cutoff) break;
      c.has_staged = false;
      if (dispatch(dst, c.staged)) ++delivered;
    }
  }
  return delivered;
}

void Runtime::flush_spills(SiteId src) {
  for (SiteId dst = 0; dst < n_; ++dst) {
    Channel& c = chan(src, dst);
    while (!c.spill.empty() && c.ring->try_push(c.spill.front()))
      c.spill.pop_front();
  }
}

void Runtime::run(const std::function<bool(SiteId)>& poll) {
  stop_.store(false, std::memory_order_release);
  done_sites_.store(0, std::memory_order_release);
  std::vector<std::thread> pumps;
  pumps.reserve(static_cast<size_t>(n_));
  for (SiteId me = 0; me < n_; ++me) {
    pumps.emplace_back([this, me, &poll] {
      // Batch size: drain deep before yielding, so an oversubscribed host
      // (more pump threads than cores) amortizes each scheduling slice
      // over many deliveries instead of one ping-pong hop.
      constexpr size_t kBatch = 256;
      bool reported_done = false;
      while (!stop_requested()) {
        flush_spills(me);
        const size_t delivered = drain(me, kBatch);
        run_due_timers(me);
        const bool done = poll(me);
        if (done && !reported_done) {
          reported_done = true;
          done_sites_.fetch_add(1, std::memory_order_acq_rel);
        }
        if (done_sites_.load(std::memory_order_acquire) == n_ &&
            in_flight() == 0)
          break;
        if (delivered == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : pumps) t.join();
}

uint64_t Runtime::drain_residue() {
  uint64_t discarded = 0;
  WireSlot slot;
  for (auto& c : channels_) {
    if (c.has_staged) {
      c.has_staged = false;
      if (c.staged.m.payload != net::kNoPayload)
        release_payload(c.staged.m.payload);
      ++discarded;
    }
    while (c.ring->try_pop(slot)) {
      if (slot.m.payload != net::kNoPayload) release_payload(slot.m.payload);
      ++discarded;
    }
    for (const WireSlot& s : c.spill) {
      if (s.m.payload != net::kNoPayload) release_payload(s.m.payload);
      ++discarded;
    }
    c.spill.clear();
  }
  if (discarded > 0) {
    dropped_at_crashed_.fetch_add(discarded, std::memory_order_relaxed);
    in_flight_.fetch_sub(discarded, std::memory_order_acq_rel);
  }
  return discarded;
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.wire_messages = wire_messages_.load(std::memory_order_relaxed);
  s.control_messages = control_messages_.load(std::memory_order_relaxed);
  s.local_messages = local_messages_.load(std::memory_order_relaxed);
  s.delivered_messages = delivered_messages_.load(std::memory_order_relaxed);
  s.dropped_at_crashed =
      dropped_at_crashed_.load(std::memory_order_relaxed);
  s.spilled_messages = spilled_messages_.load(std::memory_order_relaxed);
  s.payloads_acquired = payloads_acquired_.load(std::memory_order_relaxed);
  return s;
}

void Runtime::replay_into(obs::InvariantChecker& chk) {
  // Merge the shards by global stamp. Stamps are unique (one atomic), so
  // the merged sequence is a total order; per-site subsequences keep their
  // local order because each shard was appended in stamp order.
  std::vector<const ObsEvent*> merged;
  size_t total = obs_extra_.size();
  for (const auto& shard : obs_shards_) total += shard.size();
  merged.reserve(total);
  for (const auto& shard : obs_shards_)
    for (const ObsEvent& e : shard) merged.push_back(&e);
  for (const ObsEvent& e : obs_extra_) merged.push_back(&e);
  std::sort(merged.begin(), merged.end(),
            [](const ObsEvent* a, const ObsEvent* b) {
              return a->stamp < b->stamp;
            });
  Time last = 0;
  for (const ObsEvent* e : merged) {
    // Guard against wall-clock reads racing the stamp acquisition across
    // threads: the checker only needs a non-decreasing clock.
    const Time at = std::max(e->at, last);
    last = at;
    switch (e->kind) {
      case ObsEvent::kSpanIssue:
        chk.on_span_issue(e->site, e->lock, e->span, at);
        break;
      case ObsEvent::kSpanEnter:
        chk.on_span_enter(e->site, e->lock, e->span, at);
        break;
      case ObsEvent::kSpanExit:
        chk.on_span_exit(e->site, e->lock, e->span, at);
        break;
      case ObsEvent::kSpanAbort:
        chk.on_span_abort(e->site, e->lock, e->span, at);
        break;
      case ObsEvent::kDeliver:
        chk.observe(e->m, e->lock, at);
        break;
      case ObsEvent::kCrash:
        chk.on_crash(e->site);
        break;
      default:
        DQME_CHECK_MSG(false, "unknown obs event kind");
    }
  }
  chk.finish(last);
}

}  // namespace dqme::rt
