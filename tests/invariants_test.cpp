// The online InvariantChecker: clean protocol runs stay quiet (including
// across crashes and under the parallel sweep), scripted violations are
// detected, and the Table 1 analytic model agrees with measurement.
#include <gtest/gtest.h>

#include "net/network.h"
#include "harness/sweep.h"
#include "obs/invariants.h"
#include "obs/model.h"
#include "obs/span.h"
#include "test_util.h"

namespace dqme {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using mutex::Algo;

ExperimentConfig checked(ExperimentConfig cfg) {
  cfg.check_invariants = true;
  return cfg;
}

// ----------------------------------------------------- clean runs stay quiet

TEST(InvariantChecker, CleanOnCaoSinghalUnderSaturation) {
  const ExperimentResult r = testing::run_checked(
      checked(testing::heavy_cfg(Algo::kCaoSinghal, 25, 7)));
  EXPECT_EQ(r.invariant_violations, 0u)
      << (r.invariant_reports.empty() ? "" : r.invariant_reports.front());
  EXPECT_GT(r.invariant_checks, 1000u);
}

TEST(InvariantChecker, CleanOnMaekawa) {
  const ExperimentResult r = testing::run_checked(
      checked(testing::heavy_cfg(Algo::kMaekawa, 25, 7)));
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.invariant_checks, 1000u);
}

TEST(InvariantChecker, CleanOnBroadcastBaseline) {
  // Non-quorum algorithms get FIFO/conservation/liveness checks only; the
  // arbiter rules would false-positive on broadcast grants and must be off.
  const ExperimentResult r = testing::run_checked(
      checked(testing::heavy_cfg(Algo::kRicartAgrawala, 9, 7)));
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.invariant_checks, 0u);
}

TEST(InvariantChecker, CleanAcrossCrashRecovery) {
  ExperimentConfig cfg = checked(
      testing::heavy_cfg(Algo::kCaoSinghal, 15, 5, "tree"));
  cfg.options.fault_tolerant = true;
  cfg.measure = 1'000'000;
  cfg.crashes = {{300'000, 1}, {600'000, 9}};
  const ExperimentResult r = harness::run_experiment(cfg);
  EXPECT_EQ(r.summary.violations, 0u);
  EXPECT_EQ(r.invariant_violations, 0u)
      << (r.invariant_reports.empty() ? "" : r.invariant_reports.front());
}

// The per-arbiter permission ledger stays quiet under jittered delays,
// across seeds and quorum constructions, for both quorum protocols.
TEST(InvariantChecker, CleanUnderJitterAcrossSeedsAndQuorums) {
  struct Case {
    Algo algo;
    int n;
    const char* quorum;
    uint64_t seed;
  };
  std::vector<Case> cases = {{Algo::kMaekawa, 16, "grid", 5},
                             {Algo::kCaoSinghal, 13, "fpp", 7},
                             {Algo::kCaoSinghal, 9, "majority", 7}};
  for (uint64_t seed = 1; seed <= 10; ++seed)
    cases.push_back({Algo::kCaoSinghal, 9, "grid", seed});
  for (const Case& c : cases) {
    ExperimentConfig cfg =
        checked(testing::heavy_cfg(c.algo, c.n, c.seed, c.quorum));
    cfg.delay_kind = ExperimentConfig::DelayKind::kUniform;
    cfg.measure = 200'000;
    const ExperimentResult r = testing::run_checked(cfg);
    EXPECT_EQ(r.invariant_violations, 0u)
        << c.quorum << " seed " << c.seed << ": "
        << (r.invariant_reports.empty() ? "" : r.invariant_reports.front());
    EXPECT_GT(r.invariant_checks, 100u) << c.quorum;
  }
}

TEST(InvariantChecker, DeterministicAcrossRepeatRuns) {
  const ExperimentConfig cfg =
      checked(testing::heavy_cfg(Algo::kCaoSinghal, 25, 11));
  const ExperimentResult a = harness::run_experiment(cfg);
  const ExperimentResult b = harness::run_experiment(cfg);
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
}

TEST(InvariantChecker, SweepGatesOnViolationsAcrossWorkers) {
  // The parallel sweep runs checked configs on worker threads; a clean
  // matrix must come back clean through that path too.
  std::vector<ExperimentConfig> cfgs;
  for (uint64_t s = 1; s <= 4; ++s) {
    ExperimentConfig cfg = checked(testing::heavy_cfg(
        s % 2 ? Algo::kCaoSinghal : Algo::kMaekawa, 25, s));
    cfg.measure = 200'000;
    cfgs.push_back(cfg);
  }
  harness::SweepRunner sweep(harness::SweepOptions{.jobs = 2});
  const auto results = sweep.run(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());
  for (const ExperimentResult& r : results)
    EXPECT_EQ(r.invariant_violations, 0u);
}

// ------------------------------------------------------- scripted negatives

struct Script {
  sim::Simulator sim;
  net::Network net{sim, 4, std::make_unique<net::UniformDelay>(500, 1500), 1};
  obs::InvariantChecker checker;

  explicit Script(obs::InvariantOptions opts = {}) : checker(net, opts) {}

  net::Message wire(net::Message m, SiteId src, SiteId dst, Time sent_at) {
    m.src = src;
    m.dst = dst;
    m.sent_at = sent_at;
    m.span = span_of(m.req);
    return m;
  }
};

const ReqId kR1{10, 1};
const ReqId kR2{20, 2};

TEST(InvariantChecker, FlagsDoubleEntry) {
  Script s;
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  s.checker.on_span_enter(1, kLock0,span_of(kR1), 10);
  s.checker.on_span_enter(2, kLock0,span_of(kR2), 11);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("safety"), std::string::npos);
}

// Different locks are independent critical sections: simultaneous entry on
// lock 0 and lock 3 is legal, and a genuine double entry on lock 3 is
// reported with the lock named in the violation text.
TEST(InvariantChecker, LocksAreIndependentCriticalSections) {
  Script s;
  s.checker.on_span_issue(1, kLock0, span_of(kR1), 0);
  s.checker.on_span_issue(2, LockId{3}, span_of(kR2), 0);
  s.checker.on_span_enter(1, kLock0, span_of(kR1), 10);
  s.checker.on_span_enter(2, LockId{3}, span_of(kR2), 11);
  EXPECT_EQ(s.checker.violations(), 0u);
  // Now a real collision inside lock 3.
  s.checker.on_span_issue(1, LockId{3}, span_of(kR1), 12);
  s.checker.on_span_enter(1, LockId{3}, span_of(kR1), 13);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("safety"), std::string::npos);
  EXPECT_NE(s.checker.reports().front().find("[lock 3]"), std::string::npos);
}

TEST(InvariantChecker, PermissionLedgerIsKeyedPerLock) {
  Script s;
  s.checker.on_span_issue(1, kLock0, span_of(kR1), 0);
  s.checker.on_span_issue(2, LockId{4}, span_of(kR2), 0);
  // Arbiter 0 grants site 1 on lock 0 and site 2 on lock 4 concurrently:
  // two locks, two independent permissions, no violation.
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), kLock0, 10);
  s.checker.observe(s.wire(net::make_reply(0, kR2), 0, 2, 6), LockId{4}, 11);
  EXPECT_EQ(s.checker.violations(), 0u)
      << s.checker.reports().front();
  // A true double grant within lock 4 is reported with the lock named.
  const ReqId r3{30, 3};
  s.checker.on_span_issue(3, LockId{4}, span_of(r3), 12);
  s.checker.observe(s.wire(net::make_reply(0, r3), 0, 3, 13), LockId{4}, 18);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("[lock 4]"), std::string::npos);
}

TEST(InvariantChecker, FlagsDoubleGrant) {
  Script s;
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
  EXPECT_EQ(s.checker.violations(), 0u);
  s.checker.observe(s.wire(net::make_reply(0, kR2), 0, 2, 6), 11);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("still holds its permission"),
            std::string::npos);
}

TEST(InvariantChecker, FlagsForwardWithoutHolding) {
  Script s;
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  // Site 3 proxies arbiter 0's reply without ever holding its permission.
  s.checker.observe(s.wire(net::make_reply(0, kR2), 3, 2, 5), 10);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("forwarded"),
            std::string::npos);
}

TEST(InvariantChecker, FlagsForwardFromNonHolder) {
  Script s;
  s.checker.on_span_issue(1, kLock0, span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0, span_of(kR2), 0);
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
  // Site 3, not the holder (site 1), forwards arbiter 0's permission.
  s.checker.observe(s.wire(net::make_reply(0, kR2), 3, 2, 12), 20);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("without holding it (holder: 1)"),
            std::string::npos);
}

// §3 Step C: the holder forwards the arbiter's reply and sends the
// arbiter a parameterized release. The two race on different channels,
// and neither arrival order is a violation.
TEST(InvariantChecker, AcceptsLegalHandoffEitherMessageOrder) {
  for (const bool release_first : {false, true}) {
    Script s;
    s.checker.on_span_issue(1, kLock0, span_of(kR1), 0);
    s.checker.on_span_issue(2, kLock0, span_of(kR2), 0);
    s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
    const net::Message release =
        s.wire(net::make_release(kR1, kR2), 1, 0, 20);
    const net::Message forward = s.wire(net::make_reply(0, kR2), 1, 2, 20);
    s.checker.observe(release_first ? release : forward, 30);
    s.checker.observe(release_first ? forward : release, 31);
    EXPECT_EQ(s.checker.violations(), 0u)
        << "release_first=" << release_first << ": "
        << s.checker.reports().front();
  }
}

// The same handoff when the holder is the arbiter's own request: site 0
// exits holding arbiter 0's permission with a transfer to site 2, so it
// forwards reply(arbiter 0) on channel 0->2 and sends itself release(R0, R2)
// on channel 0->0. The simulator always delivers the self-release first;
// the rt backend may record the forward first. Neither order is a
// violation, and either way the permission ends at site 2.
TEST(InvariantChecker, AcceptsArbiterForwardOfOwnPermissionEitherOrder) {
  const ReqId r0{5, 0};
  const ReqId r1{30, 1};
  for (const bool release_first : {false, true}) {
    Script s;
    s.checker.on_span_issue(0, kLock0, span_of(r0), 0);
    s.checker.observe(s.wire(net::make_reply(0, r0), 0, 0, 1), 1);
    s.checker.on_span_enter(0, kLock0, span_of(r0), 2);
    s.checker.on_span_issue(2, kLock0, span_of(kR2), 3);
    s.checker.observe(s.wire(net::make_transfer(kR2, 0, r0), 0, 0, 4), 4);
    s.checker.on_span_exit(0, kLock0, span_of(r0), 10);
    const net::Message forward = s.wire(net::make_reply(0, kR2), 0, 2, 10);
    const net::Message release =
        s.wire(net::make_release(r0, kR2), 0, 0, 10);
    s.checker.observe(release_first ? release : forward, 11);
    s.checker.observe(release_first ? forward : release, 12);
    EXPECT_EQ(s.checker.violations(), 0u)
        << "release_first=" << release_first << ": "
        << s.checker.reports().front();
    // Site 2 now holds the permission: a direct grant to site 1 is a
    // double grant, and the transfer was discharged by the release.
    s.checker.on_span_issue(1, kLock0, span_of(r1), 13);
    s.checker.observe(s.wire(net::make_reply(0, r1), 0, 1, 14), 15);
    s.checker.finish(20);
    ASSERT_EQ(s.checker.violations(), 1u) << "release_first=" << release_first;
    EXPECT_NE(s.checker.reports().front().find(
                  "granted to 1 at 15 while site 2 still holds its permission"),
              std::string::npos)
        << s.checker.reports().front();
  }
}

// The arbiter may not grant directly while its own request still holds its
// permission, whether that request is still collecting replies or is in
// the CS: only an exited request forwards.
TEST(InvariantChecker, FlagsArbiterGrantWhileOwnRequestHoldsPermission) {
  const ReqId r0{5, 0};
  for (const bool in_cs : {false, true}) {
    Script s;
    s.checker.on_span_issue(0, kLock0, span_of(r0), 0);
    s.checker.observe(s.wire(net::make_reply(0, r0), 0, 0, 1), 1);
    if (in_cs) s.checker.on_span_enter(0, kLock0, span_of(r0), 2);
    s.checker.on_span_issue(2, kLock0, span_of(kR2), 3);
    s.checker.observe(s.wire(net::make_reply(0, kR2), 0, 2, 4), 8);
    ASSERT_EQ(s.checker.violations(), 1u) << "in_cs=" << in_cs;
    EXPECT_NE(s.checker.reports().front().find(
                  "arbiter 0 granted to 2 at 8 while site 0 still holds its "
                  "permission"),
              std::string::npos)
        << s.checker.reports().front();
  }
}

TEST(InvariantChecker, FlagsLostTransferAtFinish) {
  Script s;
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
  s.checker.on_span_enter(1, kLock0,span_of(kR1), 12);
  s.checker.observe(s.wire(net::make_transfer(kR2, 0, kR1), 0, 1, 14), 18);
  s.checker.on_span_exit(1, kLock0,span_of(kR1), 25);  // never forwards or releases
  EXPECT_EQ(s.checker.violations(), 0u);
  s.checker.finish(60);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("never discharged"),
            std::string::npos);
}

TEST(InvariantChecker, TransferDischargedByProxyReplyIsClean) {
  Script s;
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 10);
  s.checker.on_span_enter(1, kLock0,span_of(kR1), 12);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 15);
  s.checker.observe(s.wire(net::make_transfer(kR2, 0, kR1), 0, 1, 16), 20);
  s.checker.on_span_exit(1, kLock0,span_of(kR1), 25);
  s.checker.observe(s.wire(net::make_release(kR1, kR2), 1, 0, 25), 28);
  s.checker.observe(s.wire(net::make_reply(0, kR2), 1, 2, 25), 30);
  s.checker.on_span_enter(2, kLock0,span_of(kR2), 31);
  s.checker.on_span_exit(2, kLock0,span_of(kR2), 40);
  s.checker.observe(s.wire(net::make_release(kR2, ReqId{}), 2, 0, 40), 45);
  s.checker.finish(50);
  EXPECT_EQ(s.checker.violations(), 0u)
      << s.checker.reports().front();
  EXPECT_GT(s.checker.checks(), 0u);
}

TEST(InvariantChecker, FlagsFifoInversion) {
  Script s;
  s.checker.observe(s.wire(net::make_request(kR1), 1, 0, 100), 110);
  s.checker.observe(s.wire(net::make_request(kR1), 1, 0, 50), 115);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("fifo"), std::string::npos);
}

TEST(InvariantChecker, FlagsStalledRequestAtFinish) {
  obs::InvariantOptions opts;
  opts.liveness_bound = 1000;
  Script s(opts);
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.finish(5000);
  EXPECT_EQ(s.checker.violations(), 1u);
  EXPECT_NE(s.checker.reports().front().find("liveness"), std::string::npos);
}

TEST(InvariantChecker, CrashedOwnersStallIsWrittenOff) {
  obs::InvariantOptions opts;
  opts.liveness_bound = 1000;
  Script s(opts);
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_crash(1);
  s.checker.finish(5000);
  EXPECT_EQ(s.checker.violations(), 0u);
}

// Regression for the crash-bench false positive: a grant delivered after
// its requester abandoned the attempt (§6 recovery reissued on a new span)
// is stale-dropped by the site and must not corrupt the holder ledger.
TEST(InvariantChecker, StaleGrantAfterRecoveryIsNotAViolation) {
  Script s;
  const ReqId r1b{30, 1};  // site 1's reissued request
  s.checker.on_span_issue(1, kLock0,span_of(kR1), 0);
  s.checker.on_span_issue(2, kLock0,span_of(kR2), 0);
  // Site 1 recovers before the arbiter's grant (still in flight) arrives.
  s.checker.on_span_issue(1, kLock0,span_of(r1b), 8);
  // Its recovery release reaches arbiter 0, which grants site 2 instead.
  s.checker.observe(s.wire(net::make_release(kR1, ReqId{}), 1, 0, 8), 12);
  // The stale grant for the abandoned attempt lands now: site 1 drops it.
  s.checker.observe(s.wire(net::make_reply(0, kR1), 0, 1, 5), 14);
  // The arbiter's fresh grant to site 2 must read as legal.
  s.checker.observe(s.wire(net::make_reply(0, kR2), 0, 2, 12), 16);
  EXPECT_EQ(s.checker.violations(), 0u)
      << s.checker.reports().front();
}

// ------------------------------------------------------------ model gauges

TEST(Model, Table1FormsForProposedAndBaselines) {
  const obs::ModelPrediction cs = obs::predict(Algo::kCaoSinghal, 25, 9);
  ASSERT_TRUE(cs.has_msgs);
  EXPECT_DOUBLE_EQ(cs.msgs_lo, 3 * 8.0);
  EXPECT_DOUBLE_EQ(cs.msgs_hi, 6 * 8.0);
  ASSERT_TRUE(cs.has_delay);
  EXPECT_DOUBLE_EQ(cs.sync_delay_t, 1.0);

  const obs::ModelPrediction ra = obs::predict(Algo::kRicartAgrawala, 25, 0);
  EXPECT_DOUBLE_EQ(ra.msgs_lo, 2 * 24.0);
  EXPECT_DOUBLE_EQ(ra.sync_delay_t, 1.0);

  EXPECT_FALSE(obs::predict(Algo::kRaymond, 25, 0).has_delay);
}

TEST(Model, MixedDelayAndDivergenceHelpers) {
  EXPECT_DOUBLE_EQ(obs::mixed_sync_delay(3, 1, 1.0), (3 + 2.0) / 4);
  EXPECT_DOUBLE_EQ(obs::mixed_sync_delay(0, 0, 1.5), 1.5);
  EXPECT_NEAR(obs::divergence_point(1.1, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(obs::divergence_band(5, 4, 6), 0.0);
  EXPECT_DOUBLE_EQ(obs::divergence_band(8, 4, 6), 2.0 / 6);
}

TEST(Model, RunEmitsDivergenceGaugesWithinTolerance) {
  // Constant delay, saturated: the regime where Table 1 is exact. This is
  // the same gate `dqme_check --preset smoke` applies in CI.
  ExperimentConfig cfg = checked(testing::heavy_cfg(Algo::kCaoSinghal, 25, 3));
  cfg.delay_kind = ExperimentConfig::DelayKind::kConstant;
  const ExperimentResult r = harness::run_experiment(cfg);
  const double* div = r.registry.find_gauge("model_divergence_sync_delay");
  ASSERT_NE(div, nullptr);
  EXPECT_LT(*div, 0.05);
  const double* msgs = r.registry.find_gauge("model_divergence_msgs");
  ASSERT_NE(msgs, nullptr);
  EXPECT_LT(*msgs, 0.05);
}

}  // namespace
}  // namespace dqme
