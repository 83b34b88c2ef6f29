// Unit tests for the resilient campaign engine: probe outcomes, retry
// with backoff and budget, circuit breakers, epoch gating, adaptive
// landmark replacement, and proxy-tunnel health.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "measure/campaign.hpp"
#include "measure/probe_policy.hpp"
#include "measure/proxy_measure.hpp"
#include "measure/testbed.hpp"
#include "measure/tools.hpp"
#include "measure/two_phase.hpp"

namespace ageo::measure {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig cfg;
    cfg.seed = 711;
    cfg.constellation.n_anchors = 120;
    cfg.constellation.n_probes = 200;
    bed_ = new Testbed(cfg);
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  static Testbed* bed_;
};

Testbed* CampaignTest::bed_ = nullptr;

TEST(ProbePolicy, LiftProbeMapsOutcomes) {
  RichProbeFn lifted = lift_probe([](std::size_t id) -> std::optional<double> {
    if (id == 0) return std::nullopt;
    return 12.5;
  });
  auto fail = lifted(0);
  EXPECT_EQ(fail.outcome, ProbeOutcome::kTimeout);
  EXPECT_FALSE(fail.measured());
  auto ok = lifted(1);
  EXPECT_EQ(ok.outcome, ProbeOutcome::kOk);
  EXPECT_TRUE(ok.measured());
  EXPECT_DOUBLE_EQ(ok.rtt_ms, 12.5);
}

TEST(ProbePolicy, OutcomeNames) {
  EXPECT_STREQ(to_string(ProbeOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(ProbeOutcome::kRefusedMeasured), "refused-measured");
  EXPECT_STREQ(to_string(ProbeOutcome::kTimeout), "timeout");
  EXPECT_STREQ(to_string(ProbeOutcome::kRetryExhausted), "retry-exhausted");
  EXPECT_STREQ(to_string(ProbeOutcome::kBreakerOpen), "breaker-open");
  EXPECT_STREQ(to_string(ProbeOutcome::kGatedInactive), "gated-inactive");
  EXPECT_STREQ(to_string(ProbeOutcome::kDropped), "dropped");
}

TEST(ProbePolicy, BreakerOpensAfterThresholdAndRecovers) {
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.cooldown_rounds = 5;
  BreakerBoard board(policy);
  EXPECT_TRUE(board.allows(7));
  EXPECT_FALSE(board.record_failure(7));
  EXPECT_FALSE(board.record_failure(7));
  EXPECT_TRUE(board.allows(7));  // still closed at 2 failures
  EXPECT_TRUE(board.record_failure(7));  // 3rd failure trips it
  EXPECT_TRUE(board.is_open(7));
  EXPECT_FALSE(board.allows(7));
  board.tick(5);
  EXPECT_FALSE(board.is_open(7));  // cooldown elapsed
  EXPECT_TRUE(board.in_half_open(7));
  EXPECT_TRUE(board.allows(7));  // half-open trial permitted
  // A failed trial re-opens for another cooldown.
  EXPECT_TRUE(board.record_failure(7));
  EXPECT_TRUE(board.is_open(7));
  board.tick(5);
  // A successful trial closes and forgets.
  board.record_success(7);
  EXPECT_FALSE(board.tracked(7));
  EXPECT_TRUE(board.allows(7));
}

TEST(ProbePolicy, BoardDropAndPrune) {
  BreakerBoard board;
  board.record_failure(1);
  board.record_failure(2);
  board.record_failure(3);
  EXPECT_TRUE(board.tracked(1));
  board.drop(1);
  EXPECT_FALSE(board.tracked(1));
  std::size_t dropped = board.prune([](std::size_t id) { return id != 2; });
  EXPECT_EQ(dropped, 1u);
  EXPECT_FALSE(board.tracked(2));
  EXPECT_TRUE(board.tracked(3));
}

TEST(ProbePolicy, StatsMergeAndEquality) {
  CampaignStats a, b;
  a.ok = 3;
  a.retries = 2;
  b.ok = 1;
  b.timeouts = 4;
  a.merge(b);
  EXPECT_EQ(a.ok, 4u);
  EXPECT_EQ(a.retries, 2u);
  EXPECT_EQ(a.timeouts, 4u);
  EXPECT_EQ(a.measured(), 4u);
  CampaignStats c = a;
  EXPECT_EQ(a, c);
  c.breaker_trips = 1;
  EXPECT_NE(a, c);
}

namespace {

/// A CampaignStats with every field distinct (and distinct from the
/// other fill patterns), so a dropped or swapped field in merge()
/// cannot cancel out.
CampaignStats filled_stats(std::uint64_t base) {
  CampaignStats s;
  s.probes_sent = base + 1;
  s.ok = base + 2;
  s.refused_measured = base + 3;
  s.timeouts = base + 4;
  s.retries = base + 5;
  s.retry_exhausted = base + 6;
  s.budget_denied = base + 7;
  s.breaker_trips = base + 8;
  s.breaker_skips = base + 9;
  s.half_open_probes = base + 10;
  s.gated_skips = base + 11;
  s.replacements = base + 12;
  s.tunnel_drops = base + 13;
  s.tunnel_reconnects = base + 14;
  s.tunnel_drift_flags = base + 15;
  s.rounds = base + 16;
  return s;
}

CampaignStats merged(CampaignStats a, const CampaignStats& b) {
  a.merge(b);
  return a;
}

}  // namespace

// The parallel audit folds per-proxy stats in host-index order, but the
// totals must not depend on that order: merge has to be a commutative
// monoid. Pin all three laws.

TEST(ProbePolicy, StatsMergeIdentity) {
  const CampaignStats a = filled_stats(100);
  const CampaignStats zero;
  EXPECT_EQ(merged(a, zero), a);
  EXPECT_EQ(merged(zero, a), a);
  EXPECT_EQ(merged(zero, zero), zero);
}

TEST(ProbePolicy, StatsMergeAssociative) {
  const CampaignStats a = filled_stats(100);
  const CampaignStats b = filled_stats(2000);
  const CampaignStats c = filled_stats(30000);
  EXPECT_EQ(merged(merged(a, b), c), merged(a, merged(b, c)));
}

TEST(ProbePolicy, StatsMergeCommutative) {
  const CampaignStats a = filled_stats(100);
  const CampaignStats b = filled_stats(2000);
  EXPECT_EQ(merged(a, b), merged(b, a));
  // Any fold order of three distinct stats yields the same totals.
  const CampaignStats c = filled_stats(30000);
  const CampaignStats abc = merged(merged(a, b), c);
  EXPECT_EQ(merged(merged(c, a), b), abc);
  EXPECT_EQ(merged(merged(b, c), a), abc);
}

TEST(CampaignEngine, RetriesTransientFailuresWithBackoff) {
  // Landmark 5 fails twice then answers; the engine's retry policy
  // should recover the measurement and count the retries.
  std::map<std::size_t, int> calls;
  ProbeFn flaky = [&](std::size_t id) -> std::optional<double> {
    if (id == 5 && calls[id]++ < 2) return std::nullopt;
    return 10.0;
  };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 3;
  CampaignEngine engine(flaky, cfg);
  auto r = engine.probe(5);
  EXPECT_EQ(r.outcome, ProbeOutcome::kOk);
  EXPECT_DOUBLE_EQ(r.rtt_ms, 10.0);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.stats().timeouts, 2u);
  EXPECT_EQ(engine.stats().ok, 1u);
  EXPECT_GT(engine.stats().rounds, 0u);  // backoff advanced rounds
}

TEST(CampaignEngine, HugeBackoffFactorHitsTheCap) {
  // ceil(backoff * factor) is far beyond int here; the schedule must
  // still be 1 round, then the 8-round cap for each later retry.
  ProbeFn dead = [](std::size_t) { return std::nullopt; };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_factor = 1e10;
  cfg.retry.campaign_retry_budget = 10;
  CampaignEngine engine(dead, cfg);
  EXPECT_EQ(engine.probe(0).outcome, ProbeOutcome::kRetryExhausted);
  EXPECT_EQ(engine.stats().retries, 3u);
  EXPECT_EQ(engine.stats().rounds, 1u + 8u + 8u);
}

TEST(CampaignEngine, RetryExhaustionAndBudget) {
  ProbeFn dead = [](std::size_t) { return std::nullopt; };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 3;
  cfg.retry.campaign_retry_budget = 3;
  CampaignEngine engine(dead, cfg);
  auto r1 = engine.probe(0);
  EXPECT_EQ(r1.outcome, ProbeOutcome::kRetryExhausted);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.retries_left(), 1);
  auto r2 = engine.probe(1);  // burns the last retry, then budget-denied
  EXPECT_EQ(r2.outcome, ProbeOutcome::kRetryExhausted);
  EXPECT_EQ(engine.stats().retries, 3u);
  EXPECT_EQ(engine.stats().budget_denied, 1u);
  EXPECT_EQ(engine.retries_left(), 0);
  EXPECT_EQ(engine.stats().retry_exhausted, 2u);
}

TEST(CampaignEngine, DroppedProbesCountSeparatelyButRetryLikeTimeouts) {
  // An adversarial drop is indistinguishable from a timeout on the wire
  // — same retries, same breaker pressure — but the stats ledger keeps
  // it apart so audits can tell starvation from congestion.
  std::map<std::size_t, int> calls;
  RichProbeFn adversarial = [&](std::size_t id) -> ProbeReply {
    if (calls[id]++ < 2) return {ProbeOutcome::kDropped, 0.0};
    return {ProbeOutcome::kOk, 12.0};
  };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 3;
  CampaignEngine engine(adversarial, cfg);
  auto r = engine.probe(4);
  EXPECT_EQ(r.outcome, ProbeOutcome::kOk);
  EXPECT_DOUBLE_EQ(r.rtt_ms, 12.0);
  EXPECT_EQ(engine.stats().dropped, 2u);
  EXPECT_EQ(engine.stats().timeouts, 0u);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.stats().ok, 1u);
}

TEST(CampaignEngine, AllDroppedExhaustsRetries) {
  RichProbeFn starved = [](std::size_t) -> ProbeReply {
    return {ProbeOutcome::kDropped, 0.0};
  };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 2;
  CampaignEngine engine(starved, cfg);
  auto r = engine.probe(0);
  EXPECT_EQ(r.outcome, ProbeOutcome::kRetryExhausted);
  EXPECT_EQ(engine.stats().dropped, 2u);
  EXPECT_EQ(engine.stats().retry_exhausted, 1u);

  CampaignStats a, b;
  a.dropped = 2;
  b.dropped = 3;
  a.merge(b);
  EXPECT_EQ(a.dropped, 5u);
}

TEST(CampaignEngine, AbortOnBudgetExhaustedThrows) {
  ProbeFn dead = [](std::size_t) { return std::nullopt; };
  CampaignConfig cfg;
  cfg.retry.campaign_retry_budget = 0;
  cfg.retry.abort_on_budget_exhausted = true;
  CampaignEngine engine(dead, cfg);
  EXPECT_THROW(engine.probe(0), CampaignAborted);
}

TEST(CampaignEngine, BreakerStopsHammeringDeadLandmark) {
  int calls = 0;
  ProbeFn dead = [&](std::size_t) -> std::optional<double> {
    ++calls;
    return std::nullopt;
  };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 2;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.cooldown_rounds = 1000;
  CampaignEngine engine(dead, cfg);
  (void)engine.probe(9);  // 2 failures
  (void)engine.probe(9);  // 3rd failure trips the breaker mid-probe
  EXPECT_GT(engine.stats().breaker_trips, 0u);
  int calls_when_open = calls;
  auto r = engine.probe(9);
  EXPECT_EQ(r.outcome, ProbeOutcome::kBreakerOpen);
  EXPECT_EQ(calls, calls_when_open);  // probe not sent
  EXPECT_GT(engine.stats().breaker_skips, 0u);
}

TEST(CampaignEngine, HalfOpenProbeRecoversLandmark) {
  bool healthy = false;
  ProbeFn probe = [&](std::size_t) -> std::optional<double> {
    return healthy ? std::make_optional(5.0) : std::nullopt;
  };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_rounds = 3;
  CampaignEngine engine(probe, cfg);
  (void)engine.probe(4);
  (void)engine.probe(4);  // trips
  EXPECT_EQ(engine.probe(4).outcome, ProbeOutcome::kBreakerOpen);
  healthy = true;
  // min_probe advances one round per volley; after the cooldown the
  // half-open trial goes through and closes the breaker.
  for (int i = 0; i < 3; ++i) (void)engine.min_probe(1000, 1);
  auto r = engine.probe(4);
  EXPECT_EQ(r.outcome, ProbeOutcome::kOk);
  EXPECT_GT(engine.stats().half_open_probes, 0u);
  EXPECT_FALSE(engine.board().tracked(4));
}

TEST(CampaignEngine, ActiveFilterGatesWithoutProbing) {
  int calls = 0;
  ProbeFn probe = [&](std::size_t) -> std::optional<double> {
    ++calls;
    return 1.0;
  };
  CampaignEngine engine(probe, {});
  engine.set_active_filter([](std::size_t id) { return id != 3; });
  EXPECT_EQ(engine.probe(3).outcome, ProbeOutcome::kGatedInactive);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(engine.stats().gated_skips, 1u);
  EXPECT_EQ(engine.probe(2).outcome, ProbeOutcome::kOk);
  EXPECT_EQ(calls, 1);
}

TEST(CampaignEngine, SharedBoardPersistsAcrossEngines) {
  ProbeFn dead = [](std::size_t) { return std::nullopt; };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_rounds = 1000;
  BreakerBoard board(cfg.breaker);
  {
    CampaignEngine first(dead, cfg, &board);
    (void)first.probe(11);
    (void)first.probe(11);
  }
  // A fresh engine (next proxy of the same run) sees the open breaker.
  CampaignEngine second(dead, cfg, &board);
  EXPECT_EQ(second.probe(11).outcome, ProbeOutcome::kBreakerOpen);
  EXPECT_EQ(second.stats().breaker_skips, 1u);
}

TEST(CampaignEngine, ConfigValidation) {
  ProbeFn ok = [](std::size_t) { return std::make_optional(1.0); };
  CampaignConfig bad;
  bad.retry.max_attempts = 0;
  EXPECT_THROW(CampaignEngine(ok, bad), InvalidArgument);
  bad = {};
  bad.retry.backoff_factor = 0.5;
  EXPECT_THROW(CampaignEngine(ok, bad), InvalidArgument);
  bad = {};
  bad.tunnel.rtt_drift_tolerance = 0.9;
  EXPECT_THROW(CampaignEngine(ok, bad), InvalidArgument);
  EXPECT_THROW(CampaignEngine(ProbeFn{}, CampaignConfig{}), InvalidArgument);
  EXPECT_THROW(BreakerBoard({0, 5}), InvalidArgument);
}

TEST(CampaignTwoPhase, ResilientMatchesBareWhenHealthy) {
  // With no faults the engine path must select the same landmarks and
  // produce the same observations as the bare ProbeFn path. Two fresh
  // identically-seeded testbeds keep the network RNG streams aligned.
  TestbedConfig cfg;
  cfg.seed = 713;
  cfg.constellation.n_anchors = 90;
  cfg.constellation.n_probes = 120;
  netsim::HostProfile p;
  p.location = {50.1, 14.4};

  Testbed bed1(cfg);
  netsim::HostId target1 = bed1.add_host(p);
  ProbeFn probe1 = [&](std::size_t lm) {
    return CliTool::measure_ms(bed1.net(), target1, bed1.landmark_host(lm));
  };
  Rng rng_bare(21);
  auto bare = two_phase_measure(bed1, probe1, rng_bare);

  Testbed bed2(cfg);
  netsim::HostId target2 = bed2.add_host(p);
  ProbeFn probe2 = [&](std::size_t lm) {
    return CliTool::measure_ms(bed2.net(), target2, bed2.landmark_host(lm));
  };
  CampaignEngine engine(probe2, {});
  Rng rng_eng(21);
  auto resilient = two_phase_measure(bed2, engine, rng_eng);
  EXPECT_EQ(resilient.continent, bare.continent);
  EXPECT_EQ(resilient.landmark_ids, bare.landmark_ids);
  ASSERT_EQ(resilient.observations.size(), bare.observations.size());
  for (std::size_t i = 0; i < bare.observations.size(); ++i)
    EXPECT_DOUBLE_EQ(resilient.observations[i].one_way_delay_ms,
                     bare.observations[i].one_way_delay_ms);
  EXPECT_EQ(resilient.stats.retries, 0u);
  EXPECT_EQ(resilient.stats.replacements, 0u);
  EXPECT_EQ(resilient.stats.measured(), resilient.stats.probes_sent);
}

TEST_F(CampaignTest, AdaptiveReplacementFillsTheQuota) {
  // A third of the landmarks are permanently dead; the bare path loses
  // those observations, the engine path replaces them and fills the
  // requested count.
  netsim::HostProfile p;
  p.location = {48.8, 2.3};
  netsim::HostId target = bed_->add_host(p);
  Rng deadrng(17);
  std::vector<bool> dead(bed_->landmarks().size());
  for (auto&& d : dead) d = deadrng.chance(0.33);
  ProbeFn probe = [&](std::size_t lm) -> std::optional<double> {
    if (dead[lm]) return std::nullopt;
    return CliTool::measure_ms(bed_->net(), target, bed_->landmark_host(lm));
  };
  Rng rng_bare(33);
  auto bare = two_phase_measure(*bed_, probe, rng_bare);
  EXPECT_LT(bare.observations.size(), 25u);  // silent shortfall

  CampaignConfig cfg;
  cfg.retry.max_attempts = 2;  // dead stays dead; fail fast
  CampaignEngine engine(probe, cfg);
  Rng rng_eng(33);
  auto resilient = two_phase_measure(*bed_, engine, rng_eng);
  EXPECT_EQ(resilient.observations.size(), 25u);
  EXPECT_GT(resilient.stats.replacements, 0u);
  EXPECT_GT(resilient.stats.retry_exhausted, 0u);
  for (const auto& ob : resilient.observations)
    EXPECT_FALSE(dead[ob.landmark_id]);
}

TEST_F(CampaignTest, ReplacementStopsWhenPoolIsDry) {
  // Every landmark dead: the engine drains the pool and returns empty
  // instead of spinning.
  ProbeFn dead = [](std::size_t) { return std::nullopt; };
  CampaignConfig cfg;
  cfg.retry.max_attempts = 1;
  cfg.retry.campaign_retry_budget = 0;
  CampaignEngine engine(dead, cfg);
  Rng rng(3);
  auto r = two_phase_measure(*bed_, engine, rng);
  EXPECT_TRUE(r.observations.empty());
  EXPECT_GT(r.stats.replacements, 0u);  // it did try substitutes
  EXPECT_EQ(r.stats.measured(), 0u);
}

TEST_F(CampaignTest, TunnelDriftAfterReconnectFlagsCampaign) {
  // The tunnel drops mid-campaign; while it is down the proxy re-routes
  // (adds 60 ms each way). After the reconnect the re-taken self-ping
  // must detect the drift and flag the campaign.
  TestbedConfig cfg;
  cfg.seed = 712;
  cfg.constellation.n_anchors = 60;
  cfg.constellation.n_probes = 80;
  Testbed bed(cfg);
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  netsim::HostId client = bed.add_host(cp);
  netsim::HostProfile pp;
  pp.location = {48.2, 16.4};
  netsim::HostId proxy = bed.add_host(pp);
  netsim::ProxySession session(bed.net(), client, proxy, {});
  ProxyProber prober(bed, session, 0.5);
  double baseline = prober.tunnel_rtt_ms();

  // Tunnel down for rounds [2, 6); the proxy re-routes while down.
  bed.net().set_outage_window(proxy, 2, 6);
  CampaignConfig ccfg;
  ccfg.tunnel.failure_streak_for_check = 2;
  ccfg.tunnel.reconnect_attempts = 4;
  ccfg.tunnel.reconnect_wait_rounds = 2;
  CampaignEngine engine(prober.as_rich_probe_fn(), ccfg);
  engine.set_round_hook([&] { bed.net().advance_round(); });
  engine.attach_tunnel(prober);

  bed.net().advance_round(2);  // enter the outage
  engine.board().tick(2);
  session.set_added_delay_ms(60.0);
  std::size_t lm = 0;
  // Probes now time out; the streak triggers detection + reconnect.
  (void)engine.min_probe(lm, 3);
  EXPECT_GE(engine.stats().tunnel_drops, 1u);
  EXPECT_GE(engine.stats().tunnel_reconnects, 1u);
  EXPECT_TRUE(engine.tunnel_flagged());
  EXPECT_GE(engine.stats().tunnel_drift_flags, 1u);
  // The prober's estimate was refreshed upward.
  EXPECT_GT(prober.tunnel_rtt_ms(), baseline * 1.5);
}

}  // namespace
}  // namespace ageo::measure
