// Unit tests for the geolocation algorithms.
//
// A synthetic fixture builds a calibration store and observations from a
// known linear delay model so each estimator's behaviour is predictable.
#include <gtest/gtest.h>

#include "algos/cbg.hpp"
#include "algos/cbg_pp.hpp"
#include "algos/geolocator.hpp"
#include "algos/hybrid.hpp"
#include "algos/iclab.hpp"
#include "algos/quasi_octant.hpp"
#include "algos/spotter.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "grid/raster.hpp"
#include "mlat/refine.hpp"

namespace ageo::algos {
namespace {

/// One CBG++ scenario per shape of the three-stage solve: all disks
/// agree; the baseline disks share no cell; the baseline filter discards
/// bestline disks; a retained bestline disk disagrees with the rest.
struct CbgPpCase {
  const char* name;
  std::vector<Observation> obs;
};

class AlgosTest : public ::testing::Test {
 protected:
  static constexpr double kSpeed = 100.0;       // km/ms
  static constexpr double kIntercept = 2.0;     // ms one-way
  grid::Grid g{1.0};
  calib::CalibrationStore store;
  std::vector<geo::LatLon> landmarks;
  geo::LatLon truth{47.0, 15.0};

  void SetUp() override {
    Rng rng(31);
    // A ring of landmarks around (and some far from) the truth.
    landmarks = {{48.85, 2.35}, {52.5, 13.4}, {41.9, 12.5},  {50.1, 20.0},
                 {51.5, -0.13}, {40.4, -3.7}, {59.3, 18.07}, {38.0, 23.7}};
    for (std::size_t i = 0; i < landmarks.size(); ++i) {
      calib::CalibData data;
      for (int k = 0; k < 400; ++k) {
        double d = rng.uniform(100.0, 12000.0);
        data.push_back(
            {d, d / kSpeed + kIntercept + rng.exponential(6.0)});
      }
      store.add_landmark(std::move(data));
    }
    store.fit_all();
  }

  /// Observations consistent with the calibration model (plus mild
  /// honest noise).
  std::vector<Observation> observe(std::uint64_t seed,
                                   double noise_mean = 4.0) {
    Rng rng(seed);
    std::vector<Observation> obs;
    for (std::size_t i = 0; i < landmarks.size(); ++i) {
      double d = geo::distance_km(landmarks[i], truth);
      obs.push_back({i, landmarks[i],
                     d / kSpeed + kIntercept + rng.exponential(noise_mean)});
    }
    return obs;
  }

  std::vector<CbgPpCase> cbgpp_cases() {
    std::vector<CbgPpCase> cases;
    cases.push_back({"consistent", observe(5)});
    auto split = observe(13, /*noise_mean=*/1.0);
    split[0].one_way_delay_ms = 0.5;  // Paris and Berlin, each < 100 km
    split[1].one_way_delay_ms = 0.5;
    cases.push_back({"baseline_empty", split});
    auto forged = observe(12, /*noise_mean=*/1.0);
    forged[0].one_way_delay_ms = 0.5;  // baseline region pinned to Paris
    cases.push_back({"stage2_discards", forged});
    auto under = observe(6, /*noise_mean=*/1.0);
    under[0].one_way_delay_ms = 5.5;  // bestline underestimate (§5.1)
    cases.push_back({"retained_inconsistent", under});
    return cases;
  }
};

TEST_F(AlgosTest, CbgCoversTruth) {
  CbgGeolocator cbg;
  auto est = cbg.locate(g, store, observe(1));
  ASSERT_FALSE(est.empty());
  EXPECT_TRUE(est.region.contains(truth));
  EXPECT_LT(est.area_km2(), 10.0e6);  // not the whole planet
}

TEST_F(AlgosTest, QuasiOctantTighterThanCbg) {
  CbgGeolocator cbg;
  QuasiOctantGeolocator oct;
  auto obs = observe(2);
  auto est_cbg = cbg.locate(g, store, obs);
  auto est_oct = oct.locate(g, store, obs);
  ASSERT_FALSE(est_cbg.empty());
  // Rings (min+max) can only remove area relative to disks built from
  // the same class of calibration (paper Fig. 9C: CBG regions largest).
  if (!est_oct.empty()) {
    EXPECT_LE(est_oct.area_km2(), est_cbg.area_km2() * 1.5);
  }
}

TEST_F(AlgosTest, SpotterProducesCredibleRegion) {
  SpotterGeolocator spotter(0.95);
  auto est = spotter.locate(g, store, observe(3));
  ASSERT_FALSE(est.empty());
  auto c = est.centroid();
  ASSERT_TRUE(c.has_value());
  EXPECT_LT(geo::distance_km(*c, truth), 2500.0);
}

TEST_F(AlgosTest, HybridRingsFromSpotterModel) {
  HybridGeolocator hybrid(5.0);
  auto est = hybrid.locate(g, store, observe(4));
  ASSERT_FALSE(est.empty());
  EXPECT_TRUE(est.region.contains(truth));
  HybridGeolocator tight(1.0);
  auto est_tight = tight.locate(g, store, observe(4));
  // Narrower sigma band -> smaller (possibly empty) region.
  EXPECT_LE(est_tight.area_km2(), est.area_km2() + 1e6);
}

TEST_F(AlgosTest, CbgPlusPlusCoversTruth) {
  CbgPlusPlusGeolocator pp;
  auto est = pp.locate(g, store, observe(5));
  ASSERT_FALSE(est.empty());
  EXPECT_TRUE(est.region.contains(truth));
}

TEST_F(AlgosTest, CbgPlusPlusSurvivesUnderestimate) {
  // Corrupt one observation so its BESTLINE disk misses the truth while
  // its baseline (physics-only) disk still covers it — the paper's
  // underestimation scenario (§5.1): the RTT is honest, but the fitted
  // bestline is too optimistic for this path. Truth is ~950 km from
  // landmark 0; a 5.5 ms one-way delay gives a baseline bound of
  // 1100 km (ok) but a bestline bound of roughly (5.5-2)*100 = 350 km
  // (too small).
  auto obs = observe(6, /*noise_mean=*/1.0);
  obs[0].one_way_delay_ms = 5.5;
  CbgGeolocator cbg;
  auto est_cbg = cbg.locate(g, store, obs);
  EXPECT_FALSE(est_cbg.region.contains(truth));  // classic CBG is broken
  CbgPlusPlusGeolocator pp;
  auto est_pp = pp.locate(g, store, obs);
  ASSERT_FALSE(est_pp.empty());
  EXPECT_TRUE(est_pp.region.contains(truth));  // CBG++ recovers (§5.1)
  auto detail = pp.locate_detailed(g, store, obs);
  EXPECT_LT(detail.bestline_subset_size, obs.size());
}

TEST_F(AlgosTest, ForgedRttDefeatsEvenCbgPlusPlus) {
  // The §8 adversarial case: the proxy forges an RTT below the physical
  // limit, so even the baseline disk excludes the truth. CBG++ then
  // produces a consistent-looking but WRONG region — the documented
  // limitation (only detectable with authenticated timing).
  auto obs = observe(12, /*noise_mean=*/1.0);
  obs[0].one_way_delay_ms = 0.5;  // "target is within 100 km of Paris"
  CbgPlusPlusGeolocator pp;
  auto est = pp.locate(g, store, obs);
  ASSERT_FALSE(est.empty());
  EXPECT_FALSE(est.region.contains(truth));
}

TEST_F(AlgosTest, CbgPlusPlusNeverEmptyOnConsistentData) {
  CbgPlusPlusGeolocator pp;
  for (std::uint64_t seed = 10; seed < 30; ++seed) {
    auto est = pp.locate(g, store, observe(seed));
    EXPECT_FALSE(est.empty()) << seed;
  }
}

TEST_F(AlgosTest, AblationOptionsChangeBehaviour) {
  auto obs = observe(7, /*noise_mean=*/1.0);
  obs[0].one_way_delay_ms = 5.5;  // bestline-level underestimate
  CbgPlusPlusOptions no_filter;
  no_filter.use_subset_filter = false;
  CbgPlusPlusGeolocator plain(no_filter);
  EXPECT_FALSE(plain.locate(g, store, obs).region.contains(truth));
  CbgPlusPlusOptions with_filter;
  CbgPlusPlusGeolocator full(with_filter);
  EXPECT_TRUE(full.locate(g, store, obs).region.contains(truth));
}

TEST_F(AlgosTest, CbgPlusPlusMemoSolveMatchesLocate) {
  grid::CapPlanCache cache(64);
  CbgPlusPlusGeolocator pp;
  pp.set_plan_cache(&cache);
  bool resumed = false;
  for (const auto& c : cbgpp_cases()) {
    const std::size_t n = c.obs.size();
    const auto detail = pp.locate_detailed(g, store, c.obs);
    // Each case exercises the path its name says.
    const std::string name = c.name;
    if (name == "consistent") {
      EXPECT_EQ(detail.bestline_subset_size, n) << name;
    } else if (name == "baseline_empty") {
      EXPECT_LT(detail.baseline_subset_size, n) << name;
    } else if (name == "stage2_discards") {
      EXPECT_EQ(detail.baseline_subset_size, n) << name;
      EXPECT_GT(detail.disks_discarded_by_baseline, 0u) << name;
      EXPECT_EQ(detail.bestline_subset_size,
                n - detail.disks_discarded_by_baseline)
          << name;
    } else {
      EXPECT_EQ(detail.baseline_subset_size, n) << name;
      EXPECT_LT(detail.bestline_subset_size,
                n - detail.disks_discarded_by_baseline)
          << name;
    }
    const bool fast_path =
        detail.baseline_subset_size == n &&
        detail.bestline_subset_size == n - detail.disks_discarded_by_baseline;
    EXPECT_EQ(fast_path, name == "consistent" || name == "stage2_discards")
        << name;

    const GeoEstimate ref = pp.locate(g, store, c.obs);
    GeoEstimate est;
    const auto memo = pp.locate_memo(g, store, c.obs, nullptr, est);
    EXPECT_EQ(memo != nullptr, fast_path) << name;
    EXPECT_EQ(ref.region.words(), est.region.words()) << name;
    EXPECT_EQ(ref.used, est.used) << name;
    EXPECT_EQ(ref.constraints_used, est.constraints_used) << name;
    EXPECT_EQ(ref.constraints_total, est.constraints_total) << name;
    EXPECT_EQ(ref.prov.baseline_subset, est.prov.baseline_subset) << name;
    EXPECT_EQ(ref.prov.discarded_by_baseline, est.prov.discarded_by_baseline)
        << name;

    // A captured memo resumes to the same answer as a full solve: rebuild
    // it on all but the last observation and absorb that one.
    const std::span<const Observation> all(c.obs);
    GeoEstimate prefix_est;
    auto prefix_memo =
        pp.locate_memo(g, store, all.first(n - 1), nullptr, prefix_est);
    GeoEstimate upd;
    if (prefix_memo &&
        pp.locate_update(*prefix_memo, g, store, all, n - 1, nullptr, upd)) {
      resumed = true;
      EXPECT_EQ(ref.region.words(), upd.region.words()) << name;
      EXPECT_EQ(ref.used, upd.used) << name;
      EXPECT_EQ(ref.constraints_used, upd.constraints_used) << name;
    }
  }
  EXPECT_TRUE(resumed);

  // No plan cache, or no subset filter: no memo, same estimate.
  CbgPlusPlusGeolocator uncached;
  CbgPlusPlusOptions plain_opts;
  plain_opts.use_subset_filter = false;
  CbgPlusPlusGeolocator plain(plain_opts);
  plain.set_plan_cache(&cache);
  const auto obs = observe(5);
  for (const CbgPlusPlusGeolocator* loc : {&uncached, &plain}) {
    GeoEstimate est;
    EXPECT_EQ(loc->locate_memo(g, store, obs, nullptr, est), nullptr);
    EXPECT_EQ(loc->locate(g, store, obs).region.words(), est.region.words());
  }
}

TEST_F(AlgosTest, CbgPlusPlusRefinedMatchesFlat) {
  grid::CapPlanCache cache(64);
  const grid::Region mask = grid::rasterize_lat_band(g, 30.0, 65.0);
  CbgPlusPlusGeolocator flat;
  flat.set_plan_cache(&cache);
  bool saw_discards = false;
  for (const char* sched : {"2", "4,2"}) {
    mlat::RefineContext ctx(g, mlat::RefineSchedule::parse(sched));
    ctx.prepare_mask(mask);
    CbgPlusPlusGeolocator refined;
    refined.set_plan_cache(&cache);
    refined.set_refine(&ctx);
    for (const auto& c : cbgpp_cases()) {
      for (const grid::Region* m :
           {static_cast<const grid::Region*>(nullptr), &mask}) {
        const auto want = flat.locate_detailed(g, store, c.obs, m);
        const auto got = refined.locate_detailed(g, store, c.obs, m);
        const std::string where =
            std::string(sched) + " " + c.name + (m ? " masked" : "");
        EXPECT_TRUE(got.estimate.prov.refined) << where;
        EXPECT_EQ(want.estimate.region.words(), got.estimate.region.words())
            << where;
        EXPECT_EQ(want.estimate.used, got.estimate.used) << where;
        EXPECT_EQ(want.estimate.constraints_used,
                  got.estimate.constraints_used)
            << where;
        EXPECT_EQ(want.baseline_subset_size, got.baseline_subset_size)
            << where;
        EXPECT_EQ(want.bestline_subset_size, got.bestline_subset_size)
            << where;
        EXPECT_EQ(want.disks_discarded_by_baseline,
                  got.disks_discarded_by_baseline)
            << where;
        saw_discards |= got.disks_discarded_by_baseline > 0;
        // A refined solve never hands out a memo.
        GeoEstimate est;
        EXPECT_EQ(refined.locate_memo(g, store, c.obs, m, est), nullptr)
            << where;
        EXPECT_EQ(want.estimate.region.words(), est.region.words()) << where;
      }
    }
  }
  EXPECT_TRUE(saw_discards);
}

TEST_F(AlgosTest, MaskIsRespected) {
  grid::Region mask = grid::rasterize_lat_band(g, 40.0, 60.0);
  for (const auto& locator : make_all_geolocators()) {
    auto est = locator->locate(g, store, observe(8), &mask);
    est.region.for_each_cell([&](std::size_t idx) {
      double lat = g.center(idx).lat_deg;
      EXPECT_GE(lat, 39.0) << locator->name();
      EXPECT_LE(lat, 61.0) << locator->name();
    });
  }
}

TEST_F(AlgosTest, FactoryProducesFiveInPaperOrder) {
  auto all = make_all_geolocators();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0]->name(), "CBG");
  EXPECT_EQ(all[1]->name(), "Quasi-Octant");
  EXPECT_EQ(all[2]->name(), "Spotter");
  EXPECT_EQ(all[3]->name(), "Hybrid");
  EXPECT_EQ(all[4]->name(), "CBG++");
}

TEST_F(AlgosTest, ValidationErrors) {
  CbgGeolocator cbg;
  EXPECT_THROW(cbg.locate(g, store, {}), InvalidArgument);
  std::vector<Observation> bad_id{{999, {0, 0}, 10.0}};
  EXPECT_THROW(cbg.locate(g, store, bad_id), InvalidArgument);
  std::vector<Observation> neg{{0, landmarks[0], -1.0}};
  EXPECT_THROW(cbg.locate(g, store, neg), InvalidArgument);
  calib::CalibrationStore unfitted;
  unfitted.add_landmark({});
  std::vector<Observation> ok{{0, landmarks[0], 10.0}};
  EXPECT_THROW(cbg.locate(g, unfitted, ok), InvalidArgument);
  EXPECT_THROW(SpotterGeolocator(0.0), InvalidArgument);
  EXPECT_THROW(HybridGeolocator(-1.0), InvalidArgument);
}

// ---- ICLab checker ----

class IclabTest : public AlgosTest {};

TEST_F(IclabTest, AcceptsTrueCountry) {
  // Claimed region: a disk around the truth, standing in for a country.
  grid::Region claimed = grid::rasterize_cap(g, geo::Cap{truth, 400.0});
  IclabChecker checker;
  EXPECT_TRUE(checker.accepts(claimed, observe(9)));
}

TEST_F(IclabTest, RejectsFarCountry) {
  // Claim: near Auckland; observations say Europe. Some landmark will be
  // too far for the speed limit.
  grid::Region claimed =
      grid::rasterize_cap(g, geo::Cap{{-36.85, 174.76}, 400.0});
  IclabChecker checker;
  auto obs = observe(10);
  EXPECT_FALSE(checker.accepts(claimed, obs));
  EXPECT_GT(checker.violations(claimed, obs), 0u);
}

TEST_F(IclabTest, LandmarkInsideCountryNeverViolates) {
  grid::Region claimed =
      grid::rasterize_cap(g, geo::Cap{landmarks[0], 300.0});
  IclabChecker checker;
  std::vector<Observation> obs{{0, landmarks[0], 0.001}};
  EXPECT_TRUE(checker.accepts(claimed, obs));
}

TEST_F(IclabTest, Validation) {
  IclabChecker checker;
  grid::Region empty(g);
  EXPECT_THROW(checker.accepts(empty, observe(11)), InvalidArgument);
  IclabOptions bad;
  bad.speed_limit_km_per_ms = 0.0;
  EXPECT_THROW(IclabChecker{bad}, InvalidArgument);
}

// Property sweep: CBG++ covers the truth across many observation seeds
// and noise levels (the paper's headline requirement, §5.1).
class CbgPpSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(CbgPpSweep, CoversTruth) {
  auto [seed, noise] = GetParam();
  Rng rng(77);
  grid::Grid g(1.0);
  calib::CalibrationStore store;
  std::vector<geo::LatLon> lms = {{48.85, 2.35}, {52.5, 13.4}, {41.9, 12.5},
                                  {50.1, 20.0},  {51.5, -0.13}, {59.3, 18.0}};
  for (std::size_t i = 0; i < lms.size(); ++i) {
    calib::CalibData data;
    for (int k = 0; k < 300; ++k) {
      double d = rng.uniform(100.0, 12000.0);
      data.push_back({d, d / 100.0 + 2.0 + rng.exponential(6.0)});
    }
    store.add_landmark(std::move(data));
  }
  store.fit_all();
  geo::LatLon truth{46.0, 14.0};
  Rng obs_rng(seed);
  std::vector<Observation> obs;
  for (std::size_t i = 0; i < lms.size(); ++i) {
    double d = geo::distance_km(lms[i], truth);
    obs.push_back(
        {i, lms[i], d / 100.0 + 2.0 + obs_rng.exponential(noise)});
  }
  CbgPlusPlusGeolocator pp;
  auto est = pp.locate(g, store, obs);
  ASSERT_FALSE(est.empty());
  EXPECT_TRUE(est.region.contains(truth));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CbgPpSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(2.0, 8.0, 25.0)));

}  // namespace
}  // namespace ageo::algos
