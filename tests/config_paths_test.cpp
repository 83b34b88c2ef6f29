// Coverage for configuration branches: audits with disambiguation
// stages disabled, custom hub graphs, network parameter validation, and
// aggregation helpers.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "assess/audit.hpp"
#include "common/error.hpp"
#include "measure/testbed.hpp"
#include "netsim/network.hpp"
#include "serve/service.hpp"
#include "world/hubs.hpp"

namespace ageo {
namespace {

class ConfigTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    measure::TestbedConfig cfg;
    cfg.seed = 1001;
    cfg.constellation.n_anchors = 100;
    cfg.constellation.n_probes = 150;
    bed_ = new measure::Testbed(cfg);
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  static measure::Testbed* bed_;

  world::Fleet small_fleet() {
    auto specs = world::default_provider_specs();
    specs.resize(2);
    for (auto& s : specs) s.target_servers = 25;
    return world::generate_fleet(bed_->world(), specs, 3);
  }
};

measure::Testbed* ConfigTest::bed_ = nullptr;

TEST_F(ConfigTest, DisambiguationStagesCanBeDisabled) {
  auto fleet = small_fleet();

  assess::AuditConfig all_on;
  assess::AuditConfig no_dc = all_on;
  no_dc.use_data_centers = false;
  assess::AuditConfig no_as = all_on;
  no_as.use_as_grouping = false;

  auto r_on = assess::Auditor(*bed_, all_on).run(fleet);
  auto r_no_dc = assess::Auditor(*bed_, no_dc).run(fleet);
  auto r_no_as = assess::Auditor(*bed_, no_as).run(fleet);

  ASSERT_EQ(r_on.rows.size(), r_no_dc.rows.size());
  // Without the DC stage, verdict_dc always equals verdict_raw.
  for (const auto& row : r_no_dc.rows)
    EXPECT_EQ(row.verdict_dc, row.verdict_raw);
  // Without AS grouping, verdict_final always equals verdict_dc.
  for (const auto& row : r_no_as.rows)
    EXPECT_EQ(row.verdict_final, row.verdict_dc);
  // With everything on, disambiguation must resolve at least one
  // uncertain verdict on a 50-proxy fleet.
  std::size_t resolved = 0;
  for (const auto& row : r_on.rows)
    if (row.verdict_raw == assess::Verdict::kUncertain &&
        row.verdict_final != assess::Verdict::kUncertain)
      ++resolved;
  EXPECT_GT(resolved, 0u);
}

TEST_F(ConfigTest, AuditorRejectsBadWorkerAndSampleCounts) {
  // Every numeric field of AuditConfig, nested ones included, fails
  // AuditConfig::validate in the constructor, before the testbed's
  // network gains a host, with a message that names the field. The
  // credible mass is checked under the default CBG++ algorithm too.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using C = assess::AuditConfig;
  struct Case {
    const char* field;
    void (*apply)(C&);
  };
  const Case cases[] = {
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = kNaN; }},
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = kInf; }},
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = -1.0; }},
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = 0.0; }},
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = 45.0; }},
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = 0.7; }},
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = 0.001; }},
      {"grid_cell_deg", [](C& c) { c.grid_cell_deg = 0.01; }},
      {"client_location", [](C& c) { c.client_location.lat_deg = kNaN; }},
      {"client_location", [](C& c) { c.client_location.lat_deg = 91.0; }},
      {"client_location", [](C& c) { c.client_location.lat_deg = -kInf; }},
      {"client_location", [](C& c) { c.client_location.lon_deg = kInf; }},
      {"client_location", [](C& c) { c.client_location.lon_deg = kNaN; }},
      {"two_phase.anchors_per_continent",
       [](C& c) { c.two_phase.anchors_per_continent = 0; }},
      {"two_phase.anchors_per_continent",
       [](C& c) { c.two_phase.anchors_per_continent = -1; }},
      {"two_phase.phase2_landmarks",
       [](C& c) { c.two_phase.phase2_landmarks = 0; }},
      {"two_phase.phase2_landmarks",
       [](C& c) { c.two_phase.phase2_landmarks = -5; }},
      {"two_phase.attempts", [](C& c) { c.two_phase.attempts = 0; }},
      {"two_phase.attempts", [](C& c) { c.two_phase.attempts = -1; }},
      {"campaign.retry.max_attempts",
       [](C& c) { c.campaign.retry.max_attempts = 0; }},
      {"campaign.retry.max_attempts",
       [](C& c) { c.campaign.retry.max_attempts = -2; }},
      {"campaign.retry.backoff_base_rounds",
       [](C& c) { c.campaign.retry.backoff_base_rounds = -1; }},
      {"campaign.retry.backoff_factor",
       [](C& c) { c.campaign.retry.backoff_factor = kNaN; }},
      {"campaign.retry.backoff_factor",
       [](C& c) { c.campaign.retry.backoff_factor = kInf; }},
      {"campaign.retry.backoff_factor",
       [](C& c) { c.campaign.retry.backoff_factor = -kInf; }},
      {"campaign.retry.backoff_factor",
       [](C& c) { c.campaign.retry.backoff_factor = 0.5; }},
      {"campaign.retry.backoff_cap_rounds",
       [](C& c) { c.campaign.retry.backoff_cap_rounds = -1; }},
      {"campaign.retry.backoff_cap_rounds",
       [](C& c) { c.campaign.retry.backoff_cap_rounds = 0; }},
      {"campaign.retry.campaign_retry_budget",
       [](C& c) { c.campaign.retry.campaign_retry_budget = -1; }},
      {"campaign.breaker.failure_threshold",
       [](C& c) { c.campaign.breaker.failure_threshold = 0; }},
      {"campaign.breaker.failure_threshold",
       [](C& c) { c.campaign.breaker.failure_threshold = -1; }},
      {"campaign.breaker.cooldown_rounds",
       [](C& c) { c.campaign.breaker.cooldown_rounds = 0; }},
      {"campaign.breaker.cooldown_rounds",
       [](C& c) { c.campaign.breaker.cooldown_rounds = -8; }},
      {"campaign.tunnel.failure_streak_for_check",
       [](C& c) { c.campaign.tunnel.failure_streak_for_check = 0; }},
      {"campaign.tunnel.failure_streak_for_check",
       [](C& c) { c.campaign.tunnel.failure_streak_for_check = -1; }},
      {"campaign.tunnel.reconnect_attempts",
       [](C& c) { c.campaign.tunnel.reconnect_attempts = -1; }},
      {"campaign.tunnel.reconnect_wait_rounds",
       [](C& c) { c.campaign.tunnel.reconnect_wait_rounds = -1; }},
      {"campaign.tunnel.rtt_drift_tolerance",
       [](C& c) { c.campaign.tunnel.rtt_drift_tolerance = kNaN; }},
      {"campaign.tunnel.rtt_drift_tolerance",
       [](C& c) { c.campaign.tunnel.rtt_drift_tolerance = kInf; }},
      {"campaign.tunnel.rtt_drift_tolerance",
       [](C& c) { c.campaign.tunnel.rtt_drift_tolerance = -kInf; }},
      {"campaign.tunnel.rtt_drift_tolerance",
       [](C& c) { c.campaign.tunnel.rtt_drift_tolerance = 0.9; }},
      {"campaign.tunnel.self_ping_samples",
       [](C& c) { c.campaign.tunnel.self_ping_samples = 0; }},
      {"campaign.tunnel.self_ping_samples",
       [](C& c) { c.campaign.tunnel.self_ping_samples = -1; }},
      {"self_ping_samples", [](C& c) { c.self_ping_samples = 0; }},
      {"self_ping_samples", [](C& c) { c.self_ping_samples = -1; }},
      {"eta_samples", [](C& c) { c.eta_samples = 0; }},
      {"eta_samples", [](C& c) { c.eta_samples = -2; }},
      {"refine", [](C& c) { c.refine.levels = {kNaN}; }},
      {"refine", [](C& c) { c.refine.levels = {kInf}; }},
      {"refine", [](C& c) { c.refine.levels = {-2.0}; }},
      {"refine", [](C& c) { c.refine.levels = {0.5}; }},      // finer
      {"refine", [](C& c) { c.refine.levels = {2.0, 4.0}; }}, // ascending
      {"refine", [](C& c) { c.refine.levels = {5.0, 2.0}; }}, // ratio 2.5
      {"refine", [](C& c) { c.refine.levels = {2.5}; }},      // 2.5 / 1
      {"spotter_credible_mass",
       [](C& c) { c.spotter_credible_mass = 2.0; }},
      {"spotter_credible_mass",
       [](C& c) { c.spotter_credible_mass = 0.0; }},
      {"spotter_credible_mass",
       [](C& c) { c.spotter_credible_mass = -0.5; }},
      {"spotter_credible_mass",
       [](C& c) { c.spotter_credible_mass = kNaN; }},
      {"spotter_credible_mass",
       [](C& c) { c.spotter_credible_mass = kInf; }},
      {"iclab.speed_limit_km_per_ms",
       [](C& c) { c.iclab.speed_limit_km_per_ms = kNaN; }},
      {"iclab.speed_limit_km_per_ms",
       [](C& c) { c.iclab.speed_limit_km_per_ms = kInf; }},
      {"iclab.speed_limit_km_per_ms",
       [](C& c) { c.iclab.speed_limit_km_per_ms = 0.0; }},
      {"iclab.speed_limit_km_per_ms",
       [](C& c) { c.iclab.speed_limit_km_per_ms = -153.0; }},
      {"byzantine_min_agreement",
       [](C& c) { c.byzantine_min_agreement = kNaN; }},
      {"byzantine_min_agreement",
       [](C& c) { c.byzantine_min_agreement = -0.1; }},
      {"byzantine_min_agreement",
       [](C& c) { c.byzantine_min_agreement = 1.5; }},
      {"byzantine_min_agreement",
       [](C& c) { c.byzantine_min_agreement = kInf; }},
      {"byzantine_min_constraints",
       [](C& c) { c.byzantine_min_constraints = 0; }},
      {"suspicion_min_score", [](C& c) { c.suspicion_min_score = kNaN; }},
      {"suspicion_min_score", [](C& c) { c.suspicion_min_score = kInf; }},
      {"suspicion_min_score", [](C& c) { c.suspicion_min_score = -1.0; }},
      {"suspicion_min_solves", [](C& c) { c.suspicion_min_solves = 0; }},
      {"drift.ewma_alpha", [](C& c) { c.drift.ewma_alpha = kNaN; }},
      {"drift.ewma_alpha", [](C& c) { c.drift.ewma_alpha = kInf; }},
      {"drift.ewma_alpha", [](C& c) { c.drift.ewma_alpha = 0.0; }},
      {"drift.ewma_alpha", [](C& c) { c.drift.ewma_alpha = -0.25; }},
      {"drift.ewma_alpha", [](C& c) { c.drift.ewma_alpha = 1.5; }},
      {"drift.deflate_ms", [](C& c) { c.drift.deflate_ms = kNaN; }},
      {"drift.deflate_ms", [](C& c) { c.drift.deflate_ms = kInf; }},
      {"drift.deflate_ms", [](C& c) { c.drift.deflate_ms = 0.0; }},
      {"drift.deflate_ms", [](C& c) { c.drift.deflate_ms = -5.0; }},
      {"drift.inflate_ms", [](C& c) { c.drift.inflate_ms = kNaN; }},
      {"drift.inflate_ms", [](C& c) { c.drift.inflate_ms = -kInf; }},
      {"drift.inflate_ms", [](C& c) { c.drift.inflate_ms = 0.0; }},
      {"drift.inflate_ms", [](C& c) { c.drift.inflate_ms = -150.0; }},
      {"drift.min_samples", [](C& c) { c.drift.min_samples = 0; }},
      {"threads", [](C& c) { c.threads = -3; }},
      {"threads", [](C& c) { c.threads = -1; }},
  };
  const auto expect_rejects = [](const char* field, auto&& construct) {
    try {
      construct();
      ADD_FAILURE() << field << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const std::size_t hosts = bed_->net().host_count();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    assess::AuditConfig audit;
    c.apply(audit);
    expect_rejects(c.field, [&] { assess::Auditor a(*bed_, audit); });
    serve::ServiceConfig service;
    service.audit = audit;
    expect_rejects(c.field, [&] { serve::AuditService s(*bed_, service); });
    EXPECT_EQ(bed_->net().host_count(), hosts);
  }
  // The boundary values stay accepted: 0 threads means one per core.
  assess::AuditConfig edge;
  edge.threads = 0;
  edge.eta_samples = 1;
  edge.self_ping_samples = 1;
  edge.spotter_credible_mass = 1.0;
  edge.byzantine_min_agreement = 0.0;
  edge.byzantine_min_constraints = 1;
  edge.suspicion_min_score = 1.0;
  edge.suspicion_min_solves = 1;
  edge.client_location = {-90.0, 180.0};
  edge.two_phase = {1, 1, 1};
  edge.campaign.retry.max_attempts = 1;
  edge.campaign.retry.backoff_base_rounds = 0;
  edge.campaign.retry.backoff_factor = 1.0;
  edge.campaign.retry.backoff_cap_rounds = 0;
  edge.campaign.retry.campaign_retry_budget = 0;
  edge.campaign.breaker = {1, 1};
  edge.campaign.tunnel = {1, 0, 0, 1.0, 1};
  edge.refine.levels = {4.0, 2.0};
  edge.iclab.speed_limit_km_per_ms = std::numeric_limits<double>::max();
  edge.drift.ewma_alpha = 1.0;
  edge.drift.deflate_ms = std::numeric_limits<double>::denorm_min();
  edge.drift.inflate_ms = std::numeric_limits<double>::max();
  edge.drift.min_samples = 1;
  EXPECT_NO_THROW(assess::Auditor(*bed_, edge));
  EXPECT_NO_THROW(assess::Auditor(*bed_, [] {
    assess::AuditConfig coarsest;
    coarsest.grid_cell_deg = 30.0;
    return coarsest;
  }()));
  // So do the configs of the end-to-end benchmark: defaults plus the
  // algorithm, grid, refine schedule, threads, seed and (for the
  // service) the streaming round settings. Checked without building
  // their grids.
  for (const auto& [algo, grid_deg, refine] :
       {std::tuple{assess::AuditAlgorithm::kCbgPlusPlus, 1.0, "off"},
        std::tuple{assess::AuditAlgorithm::kCbgPlusPlus, 0.25, "2.0,0.5"},
        std::tuple{assess::AuditAlgorithm::kSpotter, 1.0, "off"}}) {
    serve::ServiceConfig bench;
    bench.audit.algorithm = algo;
    bench.audit.grid_cell_deg = grid_deg;
    bench.audit.refine = mlat::RefineSchedule::parse(refine);
    bench.audit.threads = 4;
    bench.audit.seed = 0x9e3779b97f4a7c15ULL;
    bench.round_quota = 32;
    bench.probes_per_round = 4;
    bench.solver_budget = 64;
    bench.max_pending = 128;
    EXPECT_NO_THROW(bench.validate()) << grid_deg << " " << refine;
    EXPECT_NO_THROW(bench.audit.validate());
  }
  // The grid's memory ceiling, checked without building a grid: 0.05
  // degrees (25,920,000 cells) passes, 0.0192 (175,781,250) does not.
  assess::AuditConfig fine;
  fine.grid_cell_deg = 0.05;
  EXPECT_NO_THROW(fine.validate());
  fine.grid_cell_deg = 0.0192;
  expect_rejects("grid_cell_deg", [&] { fine.validate(); });
}

TEST_F(ConfigTest, ServiceRejectsNonFiniteSchedulerWeights) {
  // Every numeric field of ServiceConfig outside `audit` (covered
  // above) fails ServiceConfig::validate in the constructor, before the
  // testbed's network gains a host, with a message that names the
  // field. A NaN weight would make every score of its verdict class
  // NaN, and the re-audit ranking's sort would lose strict weak
  // ordering.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using S = serve::ServiceConfig;
  struct Case {
    const char* field;
    void (*apply)(S&);
  };
  const Case cases[] = {
      {"verdict_history", [](S& s) { s.verdict_history = 0; }},
      {"round_quota", [](S& s) { s.round_quota = 0; }},
      {"probes_per_round", [](S& s) { s.probes_per_round = 0; }},
      {"probes_per_round", [](S& s) { s.probes_per_round = -4; }},
      {"probe_attempts", [](S& s) { s.probe_attempts = -1; }},
      {"solver_budget", [](S& s) { s.solver_budget = 0; }},
      {"max_pending", [](S& s) { s.max_pending = 0; }},
      {"weights.credible", [](S& s) { s.weights.credible = kNaN; }},
      {"weights.credible", [](S& s) { s.weights.credible = kInf; }},
      {"weights.uncertain", [](S& s) { s.weights.uncertain = kNaN; }},
      {"weights.uncertain", [](S& s) { s.weights.uncertain = -kInf; }},
      {"weights.false_", [](S& s) { s.weights.false_ = kNaN; }},
      {"weights.false_", [](S& s) { s.weights.false_ = kInf; }},
  };
  const std::size_t hosts = bed_->net().host_count();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    serve::ServiceConfig service;
    c.apply(service);
    try {
      serve::AuditService s(*bed_, service);
      ADD_FAILURE() << c.field << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(bed_->net().host_count(), hosts);
  }
  // The boundary values stay accepted; finite weights too, zero and
  // negative included.
  serve::ServiceConfig edge;
  edge.verdict_history = 1;
  edge.round_quota = edge.solver_budget = edge.max_pending = 1;
  edge.probes_per_round = 1;
  edge.probe_attempts = 0;
  edge.weights = {0.0, -1.0, 1e300};
  EXPECT_NO_THROW(serve::AuditService(*bed_, edge));
}

TEST_F(ConfigTest, BreakdownPartitionsRows) {
  auto fleet = small_fleet();
  auto report = assess::Auditor(*bed_, {}).run(fleet);
  for (bool disamb : {false, true}) {
    auto b = assess::breakdown(report.rows, disamb);
    EXPECT_EQ(b.total(), report.rows.size());
  }
  auto h_raw = assess::honesty_by_provider(report.rows, false);
  auto h_fin = assess::honesty_by_provider(report.rows, true);
  ASSERT_EQ(h_raw.size(), h_fin.size());
  std::size_t n_raw = 0, n_fin = 0;
  for (std::size_t i = 0; i < h_raw.size(); ++i) {
    n_raw += h_raw[i].n;
    n_fin += h_fin[i].n;
    EXPECT_EQ(h_raw[i].credible + h_raw[i].uncertain + h_raw[i].false_,
              h_raw[i].n);
  }
  EXPECT_EQ(n_raw, report.rows.size());
  EXPECT_EQ(n_fin, report.rows.size());
}

TEST(HubGraphCustom, ConstructionAndValidation) {
  std::vector<world::Hub> hubs{
      {"A", {0.0, 0.0}, world::Continent::kEurope, 1.0},
      {"B", {0.0, 10.0}, world::Continent::kEurope, 1.0},
      {"C", {0.0, 20.0}, world::Continent::kEurope, 1.0},
  };
  // A-B and B-C connected; A-C must route via B.
  world::HubGraph g(hubs, {{0, 1, 1.2}, {1, 2, 1.2}});
  EXPECT_EQ(g.route_hops(0, 2), 2);
  EXPECT_NEAR(g.route_km(0, 2), g.route_km(0, 1) + g.route_km(1, 2), 1e-9);
  // Congestion accumulates along the path (all three hubs).
  EXPECT_NEAR(g.route_congestion_ms(0, 2), 3.0, 1e-9);

  EXPECT_THROW(world::HubGraph(hubs, {{0, 3, 1.2}}), InvalidArgument);
  EXPECT_THROW(world::HubGraph(hubs, {{0, 0, 1.2}}), InvalidArgument);
  EXPECT_THROW(world::HubGraph(hubs, {{0, 1, 0.9}}), InvalidArgument);
  EXPECT_THROW(world::HubGraph({}, {}), InvalidArgument);
}

TEST(HubGraphCustom, DisconnectedPairsAreInfinite) {
  std::vector<world::Hub> hubs{
      {"A", {0.0, 0.0}, world::Continent::kEurope, 1.0},
      {"B", {0.0, 10.0}, world::Continent::kEurope, 1.0},
  };
  world::HubGraph g(hubs, {});
  EXPECT_TRUE(std::isinf(g.route_km(0, 1)));
  EXPECT_EQ(g.route_km(0, 0), 0.0);
}

TEST(NetworkParams, Validation) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    double netsim::LatencyParams::*field;
    const char* name;
    std::vector<double> bad;
  };
  // Every field rejects NaN and +/-inf; the out-of-range values sit just
  // past each field's bound.
  const std::vector<Case> cases = {
      {&netsim::LatencyParams::fibre_speed_km_per_ms, "fibre_speed_km_per_ms",
       {0.0, -1.0}},
      {&netsim::LatencyParams::local_inflation, "local_inflation", {0.5}},
      {&netsim::LatencyParams::direct_inflation, "direct_inflation",
       {0.999}},
      {&netsim::LatencyParams::direct_threshold_km, "direct_threshold_km",
       {-1.0}},
      {&netsim::LatencyParams::per_hop_ms, "per_hop_ms", {-0.01}},
      {&netsim::LatencyParams::access_base_ms, "access_base_ms", {-0.01}},
      {&netsim::LatencyParams::access_quality_ms, "access_quality_ms",
       {-0.01}},
      {&netsim::LatencyParams::congestion_scale, "congestion_scale",
       {-0.01}},
      {&netsim::LatencyParams::spike_probability, "spike_probability",
       {-0.01, 1.01}},
      {&netsim::LatencyParams::spike_mu, "spike_mu", {}},
      {&netsim::LatencyParams::spike_sigma, "spike_sigma", {-0.01}},
      {&netsim::LatencyParams::jitter_ms, "jitter_ms", {-0.01}},
      {&netsim::LatencyParams::pair_inflation_max, "pair_inflation_max",
       {0.9}},
  };
  for (const auto& c : cases) {
    std::vector<double> bad = c.bad;
    bad.insert(bad.end(), {kNan, kInf, -kInf});
    for (double v : bad) {
      netsim::LatencyParams p;
      p.*c.field = v;
      try {
        netsim::Network net(world::HubGraph::builtin(), 1, p);
        ADD_FAILURE() << c.name << " = " << v << " was accepted";
      } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
            << c.name << " = " << v << ": " << e.what();
      }
    }
  }
  // The bounds themselves are valid.
  netsim::LatencyParams edge;
  edge.local_inflation = edge.direct_inflation = edge.pair_inflation_max = 1;
  edge.direct_threshold_km = edge.per_hop_ms = edge.access_base_ms = 0.0;
  edge.access_quality_ms = edge.congestion_scale = edge.spike_sigma = 0.0;
  edge.jitter_ms = edge.spike_probability = 0.0;
  edge.spike_mu = -5.0;
  EXPECT_NO_THROW(netsim::Network(world::HubGraph::builtin(), 1, edge));
  edge.spike_probability = 1.0;
  EXPECT_NO_THROW(netsim::Network(world::HubGraph::builtin(), 1, edge));
}

TEST(TestbedConfigValidation, RejectsCalibrationSamplesBelowOne) {
  for (int samples : {0, -3}) {
    measure::TestbedConfig cfg;
    cfg.constellation.n_anchors = 20;
    cfg.constellation.n_probes = 20;
    cfg.calibration_samples = samples;
    EXPECT_THROW(measure::Testbed bed(cfg), InvalidArgument) << samples;
  }
}

TEST(NetworkParams, CustomSpeedChangesRtt) {
  netsim::LatencyParams slow;
  slow.fibre_speed_km_per_ms = 100.0;
  netsim::Network fast_net(world::HubGraph::builtin(), 1);
  netsim::Network slow_net(world::HubGraph::builtin(), 1, slow);
  netsim::HostProfile a, b;
  a.location = {40.0, -74.0};
  b.location = {34.0, -118.0};
  auto fa = fast_net.add_host(a), fb = fast_net.add_host(b);
  auto sa = slow_net.add_host(a), sb = slow_net.add_host(b);
  EXPECT_GT(slow_net.base_rtt_ms(sa, sb), fast_net.base_rtt_ms(fa, fb));
}

}  // namespace
}  // namespace ageo
