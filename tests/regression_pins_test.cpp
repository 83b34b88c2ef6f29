// Regression pins: tolerant golden values for the standard
// configuration.
//
// These tests freeze the calibrated behaviour of the default testbed and
// fleet so refactors that silently shift the simulation (latency
// parameters, fleet honesty, calibration windows) fail loudly instead of
// quietly invalidating EXPERIMENTS.md. Ranges are deliberately wide —
// they pin the regime, not the digits.
#include <gtest/gtest.h>

#include "algos/spotter.hpp"
#include "assess/audit.hpp"
#include "common/rng.hpp"
#include "geo/units.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "measure/testbed.hpp"
#include "measure/tools.hpp"
#include "world/fleet.hpp"
#include "oracles.hpp"

namespace ageo {
namespace {

class RegressionPins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    measure::TestbedConfig cfg;
    cfg.seed = 2018;  // the EXPERIMENTS.md configuration, scaled down
    cfg.constellation.n_anchors = 150;
    cfg.constellation.n_probes = 300;
    bed_ = new measure::Testbed(cfg);
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  static measure::Testbed* bed_;
};

measure::Testbed* RegressionPins::bed_ = nullptr;

TEST_F(RegressionPins, BestlineSpeedsInEmpiricalBand) {
  // The paper's example bestline ran at 93.5 km/ms; our testbed's
  // bestlines live between the slowline and the fibre limit, with a
  // median in the low hundreds.
  std::vector<double> speeds;
  for (std::size_t a : bed_->anchor_ids()) {
    const auto& m = bed_->store().cbg_slowline(a);
    if (m.calibrated()) speeds.push_back(m.speed_km_per_ms());
  }
  ASSERT_GT(speeds.size(), 100u);
  std::sort(speeds.begin(), speeds.end());
  double median = speeds[speeds.size() / 2];
  EXPECT_GT(median, 90.0);
  EXPECT_LT(median, 190.0);
  EXPECT_GE(speeds.front(), geo::kSlowlineSpeedKmPerMs - 1e-9);
  EXPECT_LE(speeds.back(), geo::kFibreSpeedKmPerMs + 1e-9);
}

TEST_F(RegressionPins, FleetHonestyRegime) {
  // Ground-truth dishonesty of the default fleet drives every §6
  // number; pin it to the paper-like regime (roughly a third to a
  // little over half of servers not where claimed).
  auto fleet =
      world::generate_fleet(bed_->world(), world::default_provider_specs(),
                            2018);
  std::size_t dishonest = 0;
  for (const auto& h : fleet.hosts)
    if (h.true_country != h.claimed_country) ++dishonest;
  double frac =
      static_cast<double>(dishonest) / static_cast<double>(fleet.hosts.size());
  EXPECT_GT(frac, 0.33);
  EXPECT_LT(frac, 0.60);
  // Fleet size at paper scale.
  EXPECT_GT(fleet.hosts.size(), 1500u);
  EXPECT_LT(fleet.hosts.size(), 2600u);
}

TEST_F(RegressionPins, AuditRegime) {
  auto specs = world::default_provider_specs();
  for (auto& s : specs) s.target_servers = 40;
  auto fleet = world::generate_fleet(bed_->world(), specs, 2018);
  assess::Auditor auditor(*bed_, {});
  auto report = auditor.run(fleet);

  // Eta: the Fig. 13 invariant.
  EXPECT_NEAR(report.eta.eta, 0.5, 0.03);
  EXPECT_GT(report.eta.r_squared, 0.99);

  auto b = assess::breakdown(report.rows, true);
  double n = static_cast<double>(b.total());
  double credible = static_cast<double>(b.credible) / n;
  double false_frac =
      static_cast<double>(b.country_false_continent_credible +
                          b.country_false_continent_uncertain +
                          b.continent_false) /
      n;
  // The headline regime: a meaningful credible mass, and at least a
  // third definitively false.
  EXPECT_GT(credible, 0.25);
  EXPECT_LT(credible, 0.60);
  EXPECT_GT(false_frac, 0.33);
  EXPECT_LT(false_frac, 0.65);

  // Provider ordering: G (most honest spec) beats A (least honest).
  auto honesty = assess::honesty_by_provider(report.rows, true);
  double a_gen = 0, g_gen = 0;
  for (const auto& h : honesty) {
    if (h.provider == "A") a_gen = h.generous();
    if (h.provider == "G") g_gen = h.generous();
  }
  EXPECT_GT(g_gen, a_gen + 0.15);
}

TEST_F(RegressionPins, SpotterEstimateUnchangedByWindowedFastPath) {
  // Spotter's GeoEstimate on a seed scenario must be exactly what the
  // retained reference (full-grid scan) pipeline produces — the windowed
  // multiply, the plan-served distance tables and the cached mass are
  // throughput changes only.
  netsim::HostProfile profile;
  profile.location = {50.08, 14.44};
  netsim::HostId target = bed_->add_host(profile);
  measure::ProbeFn probe = [&](std::size_t lm) {
    return measure::CliTool::measure_ms(bed_->net(), target,
                                        bed_->landmark_host(lm));
  };
  Rng rng(2018, "spotter-pin");
  auto tp = measure::two_phase_measure(*bed_, probe, rng);
  ASSERT_FALSE(tp.observations.empty());

  grid::Grid g(1.0);
  grid::Region mask = bed_->world().plausibility_mask(g);

  algos::SpotterGeolocator spotter;
  auto fast = spotter.locate(g, bed_->store(), tp.observations, &mask);

  grid::CapPlanCache cache;
  algos::SpotterGeolocator spotter_cached;
  spotter_cached.set_plan_cache(&cache);
  auto cached = spotter_cached.locate(g, bed_->store(), tp.observations,
                                      &mask);

  const auto& model = bed_->store().spotter();
  grid::Field ref(g);
  ref.apply_mask(mask);
  for (const auto& ob : tp.observations)
    grid::reference::multiply_gaussian_ring(
        ref, ob.landmark, model.mu_km(ob.one_way_delay_ms),
        model.sigma_km(ob.one_way_delay_ms));
  ref.normalize();
  grid::Region want = ref.credible_region(0.95);

  EXPECT_FALSE(want.empty());
  EXPECT_EQ(fast.region, want);
  EXPECT_EQ(cached.region, want);
  // The cache saw every landmark once.
  EXPECT_EQ(cache.stats().misses, tp.observations.size());
}

TEST_F(RegressionPins, RegionSizeRegime) {
  // Median prediction-region area for proxied targets sits in the
  // 10^4..10^6 km^2 band (the paper: "usually within 1000 km^2" on the
  // real Internet; our simulator is noisier by design).
  auto specs = world::default_provider_specs();
  specs.resize(2);
  for (auto& s : specs) s.target_servers = 30;
  auto fleet = world::generate_fleet(bed_->world(), specs, 2018);
  assess::Auditor auditor(*bed_, {});
  auto report = auditor.run(fleet);
  std::vector<double> areas;
  for (const auto& r : report.rows)
    if (!r.empty_prediction) areas.push_back(r.area_km2);
  ASSERT_GT(areas.size(), 30u);
  std::sort(areas.begin(), areas.end());
  double median = areas[areas.size() / 2];
  EXPECT_GT(median, 1.0e4);
  EXPECT_LT(median, 2.0e6);
}

}  // namespace
}  // namespace ageo
