// Unit tests for the calibration module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <thread>
#include <vector>

#include "calib/cbg_model.hpp"
#include "calib/octant_model.hpp"
#include "calib/spotter_model.hpp"
#include "calib/store.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "geo/units.hpp"

namespace ageo::calib {
namespace {

/// Synthetic calibration scatter: delay = dist/speed + intercept + noise,
/// noise >= 0 (queueing only adds).
CalibData synth_scatter(double speed_km_per_ms, double intercept_ms,
                        std::size_t n, std::uint64_t seed,
                        double noise_scale = 10.0) {
  Rng rng(seed);
  CalibData data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double d = rng.uniform(50.0, 15000.0);
    double t = d / speed_km_per_ms + intercept_ms +
               rng.exponential(noise_scale);
    data.push_back({d, t});
  }
  return data;
}

TEST(CbgModel, DefaultIsBaseline) {
  CbgModel m;
  EXPECT_FALSE(m.calibrated());
  EXPECT_NEAR(m.max_distance_km(10.0), 2000.0, 1e-9);
  EXPECT_NEAR(m.max_distance_km(1000.0), geo::kMaxSurfaceDistanceKm, 1e-9);
  EXPECT_EQ(m.max_distance_km(0.0), 0.0);
}

TEST(CbgModel, ConstructionValidates) {
  EXPECT_THROW(CbgModel(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(CbgModel(0.01, -1.0), InvalidArgument);
  EXPECT_NO_THROW(CbgModel(0.01, 0.0));
}

TEST(CbgFit, BestlineBelowAllPoints) {
  auto data = synth_scatter(100.0, 2.0, 400, 1);
  auto m = fit_cbg_bestline(data);
  ASSERT_TRUE(m.calibrated());
  for (const auto& p : data) {
    EXPECT_GE(p.delay_ms,
              m.slope_ms_per_km() * p.distance_km + m.intercept_ms() - 1e-6);
  }
}

TEST(CbgFit, RecoversSpeed) {
  // With a tight lower envelope, the bestline speed approaches the true
  // propagation speed.
  auto data = synth_scatter(100.0, 2.0, 2000, 2, 5.0);
  auto m = fit_cbg_bestline(data);
  EXPECT_NEAR(m.speed_km_per_ms(), 100.0, 10.0);
  EXPECT_NEAR(m.intercept_ms(), 2.0, 2.5);
}

TEST(CbgFit, BaselineConstraint) {
  // Data faster than light-in-fibre (forged): the fit clamps to the
  // physical baseline rather than believing it.
  CalibData impossible{{10000.0, 1.0}, {20000.0, 2.0}};
  auto m = fit_cbg_bestline(impossible);
  EXPECT_GE(m.speed_km_per_ms(), 0.0);
  EXPECT_LE(m.speed_km_per_ms(), 200.0 + 1e-9);
}

TEST(CbgFit, SlowlineConstraint) {
  // Very slow data (heavy congestion): without the slowline the fitted
  // speed can drop below 84.5 km/ms; with it, it cannot.
  auto data = synth_scatter(40.0, 5.0, 500, 3, 3.0);
  CbgOptions plain;
  auto m_plain = fit_cbg_bestline(data, plain);
  EXPECT_LT(m_plain.speed_km_per_ms(), geo::kSlowlineSpeedKmPerMs);
  CbgOptions slow;
  slow.enforce_slowline = true;
  auto m_slow = fit_cbg_bestline(data, slow);
  EXPECT_GE(m_slow.speed_km_per_ms(), geo::kSlowlineSpeedKmPerMs - 1e-9);
  // The slowline model is never slower than the plain one, and for long
  // delays (where the slope dominates the intercept) its distance bound
  // is at least as generous — the point of the constraint (§5.1).
  EXPECT_GE(m_slow.speed_km_per_ms(), m_plain.speed_km_per_ms() - 1e-9);
  for (double t : {150.0, 237.0}) {
    EXPECT_GE(m_slow.max_distance_km(t) + 1e-9, m_plain.max_distance_km(t));
  }
}

TEST(CbgFit, MaxDistanceMonotone) {
  auto data = synth_scatter(120.0, 1.0, 300, 4);
  auto m = fit_cbg_bestline(data);
  double prev = 0.0;
  for (double t = 0.0; t < 300.0; t += 5.0) {
    double d = m.max_distance_km(t);
    EXPECT_GE(d, prev - 1e-9);
    prev = d;
  }
  EXPECT_LE(prev, geo::kMaxSurfaceDistanceKm);
}

TEST(CbgFit, SinglePoint) {
  CalibData one{{1000.0, 12.0}};
  auto m = fit_cbg_bestline(one);
  // Line must pass at or below the point.
  EXPECT_GE(12.0, m.slope_ms_per_km() * 1000.0 + m.intercept_ms() - 1e-9);
}

TEST(CbgFit, Validation) {
  EXPECT_THROW(fit_cbg_bestline({}), InvalidArgument);
  CalibData bad{{-5.0, 1.0}};
  EXPECT_THROW(fit_cbg_bestline(bad), InvalidArgument);
  CalibData nan_pt{{100.0, std::nan("")}};
  EXPECT_THROW(fit_cbg_bestline(nan_pt), InvalidArgument);
}

TEST(Baseline, PhysicsOnly) {
  auto m = cbg_baseline();
  EXPECT_NEAR(m.max_distance_km(10.0), 2000.0, 1e-9);
  EXPECT_NEAR(m.speed_km_per_ms(), 200.0, 1e-9);
}

TEST(OctantFit, RingBoundsOrdered) {
  auto data = synth_scatter(100.0, 2.0, 500, 5);
  auto m = fit_octant(data);
  ASSERT_TRUE(m.calibrated());
  for (double t = 1.0; t < 250.0; t += 3.0) {
    double lo = m.min_distance_km(t);
    double hi = m.max_distance_km(t);
    EXPECT_LE(lo, hi) << t;
    EXPECT_GE(lo, 0.0);
    EXPECT_LE(hi, geo::kMaxSurfaceDistanceKm);
    // Physics: never beyond fibre speed.
    EXPECT_LE(hi, t * geo::kFibreSpeedKmPerMs + 1e-6);
  }
}

TEST(OctantFit, CutoffsFromPercentiles) {
  auto data = synth_scatter(100.0, 2.0, 1000, 6);
  auto m = fit_octant(data);
  EXPECT_LT(m.max_cutoff_ms(), m.min_cutoff_ms());  // 50th < 75th pct
}

TEST(OctantFit, CoversTrueDistanceMostly) {
  // For points from the generating process, the [min,max] ring should
  // usually contain the true distance.
  auto data = synth_scatter(100.0, 2.0, 800, 7);
  auto m = fit_octant(data);
  Rng rng(8);
  int inside = 0, total = 0;
  for (int i = 0; i < 300; ++i) {
    double d = rng.uniform(100.0, 12000.0);
    double t = d / 100.0 + 2.0 + rng.exponential(10.0);
    ++total;
    if (m.min_distance_km(t) <= d && d <= m.max_distance_km(t)) ++inside;
  }
  EXPECT_GT(inside, total * 3 / 5);
}

TEST(OctantFit, Validation) {
  CalibData two{{1.0, 1.0}, {2.0, 2.0}};
  EXPECT_THROW(fit_octant(two), InvalidArgument);
  auto data = synth_scatter(100.0, 2.0, 50, 9);
  OctantOptions bad;
  bad.max_curve_percentile = 0.0;
  EXPECT_THROW(fit_octant(data, bad), InvalidArgument);
}

TEST(SpotterFit, MuMonotoneAndSigmaFloored) {
  auto data = synth_scatter(100.0, 2.0, 2000, 10);
  auto m = fit_spotter(data);
  ASSERT_TRUE(m.calibrated());
  double prev = m.mu_km(0.0);
  for (double t = 1.0; t < 200.0; t += 2.0) {
    double mu = m.mu_km(t);
    EXPECT_GE(mu, prev - 1e-6);
    prev = mu;
    EXPECT_GE(m.sigma_km(t), 50.0 - 1e-9);  // default floor
  }
}

TEST(SpotterFit, MuTracksTruth) {
  auto data = synth_scatter(100.0, 2.0, 5000, 11, 5.0);
  auto m = fit_spotter(data);
  // At delay t, mean distance should be near 100 * (t - 2 - noise_mean).
  for (double t : {30.0, 60.0, 100.0}) {
    double expected = 100.0 * (t - 2.0 - 5.0);
    EXPECT_NEAR(m.mu_km(t), expected, expected * 0.25) << t;
  }
}

TEST(SpotterFit, Validation) {
  CalibData tiny{{1.0, 1.0}, {2.0, 2.0}};
  EXPECT_THROW(fit_spotter(tiny), InvalidArgument);
  SpotterOptions bad;
  bad.n_bins = 2;
  auto data = synth_scatter(100.0, 2.0, 100, 12);
  EXPECT_THROW(fit_spotter(data, bad), InvalidArgument);
}

TEST(SpotterModel, UncalibratedFallback) {
  SpotterModel m;
  EXPECT_FALSE(m.calibrated());
  EXPECT_LE(m.mu_km(10.0), 10.0 * geo::kFibreSpeedKmPerMs);
  EXPECT_GT(m.sigma_km(10.0), 1000.0);  // wide open
}

TEST(Store, FitAllAndAccess) {
  CalibrationStore store;
  auto id0 = store.add_landmark(synth_scatter(100.0, 1.0, 300, 13));
  auto id1 = store.add_landmark(synth_scatter(90.0, 3.0, 300, 14));
  auto id2 = store.add_landmark({});  // landmark with no data
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_FALSE(store.fitted());
  EXPECT_THROW(store.cbg(0), InvalidArgument);
  store.fit_all();
  ASSERT_TRUE(store.fitted());
  EXPECT_TRUE(store.cbg(id0).calibrated());
  EXPECT_TRUE(store.cbg_slowline(id1).calibrated());
  EXPECT_TRUE(store.octant(id0).calibrated());
  EXPECT_TRUE(store.spotter().calibrated());
  // The empty landmark fell back to physics-only models.
  EXPECT_FALSE(store.cbg(id2).calibrated());
  EXPECT_FALSE(store.octant(id2).calibrated());
  EXPECT_THROW(store.cbg(99), InvalidArgument);
  // Slowline model is never slower than the slowline.
  EXPECT_GE(store.cbg_slowline(id0).speed_km_per_ms(),
            geo::kSlowlineSpeedKmPerMs - 1e-9);
}

// ---- lazily fitted families ----

void expect_same(const CbgModel& a, const CbgModel& b) {
  EXPECT_EQ(a.calibrated(), b.calibrated());
  EXPECT_EQ(a.slope_ms_per_km(), b.slope_ms_per_km());
  EXPECT_EQ(a.intercept_ms(), b.intercept_ms());
}

void expect_same(const OctantModel& a, const OctantModel& b) {
  EXPECT_EQ(a.calibrated(), b.calibrated());
  EXPECT_TRUE(
      std::ranges::equal(a.max_curve().knots(), b.max_curve().knots()));
  EXPECT_TRUE(
      std::ranges::equal(a.min_curve().knots(), b.min_curve().knots()));
  EXPECT_EQ(a.max_cutoff_ms(), b.max_cutoff_ms());
  EXPECT_EQ(a.min_cutoff_ms(), b.min_cutoff_ms());
  for (double t : {0.5, 5.0, 40.0, 150.0}) {
    EXPECT_EQ(a.max_distance_km(t), b.max_distance_km(t)) << t;
    EXPECT_EQ(a.min_distance_km(t), b.min_distance_km(t)) << t;
  }
}

void expect_same(const SpotterModel& a, const SpotterModel& b) {
  EXPECT_EQ(a.calibrated(), b.calibrated());
  EXPECT_EQ(a.mu_poly().coeffs, b.mu_poly().coeffs);
  EXPECT_EQ(a.sigma_poly().coeffs, b.sigma_poly().coeffs);
  for (double t : {0.5, 5.0, 40.0, 150.0}) {
    EXPECT_EQ(a.mu_km(t), b.mu_km(t)) << t;
    EXPECT_EQ(a.sigma_km(t), b.sigma_km(t)) << t;
  }
}

/// Landmarks of every size the fits treat differently: calibrated ones,
/// an empty one (no CBG fit), and one- and two-point ones (no octant
/// hull).
std::vector<CalibData> mixed_landmarks() {
  return {synth_scatter(100.0, 1.0, 300, 31), {}, {{800.0, 9.0}},
          synth_scatter(90.0, 3.0, 2, 32), synth_scatter(120.0, 2.0, 3, 33),
          synth_scatter(80.0, 4.0, 200, 34)};
}

CalibrationStore sealed_store(const std::vector<CalibData>& landmarks) {
  CalibrationStore store;
  for (const CalibData& d : landmarks) store.add_landmark(d);
  store.fit_all();
  return store;
}

constexpr unsigned kAllFamilies =
    CalibrationStore::kCbg | CalibrationStore::kCbgSlowline |
    CalibrationStore::kOctant | CalibrationStore::kSpotter;

/// Every family of `got` equals a direct fit on the store's own data.
void expect_direct_fits(const CalibrationStore& got) {
  CbgOptions plain, slow;
  slow.enforce_slowline = true;
  CalibData pooled;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    const auto d = got.data(i);
    pooled.insert(pooled.end(), d.begin(), d.end());
    expect_same(got.cbg(i),
                d.empty() ? CbgModel{} : fit_cbg_bestline(d, plain));
    expect_same(got.cbg_slowline(i),
                d.empty() ? CbgModel{} : fit_cbg_bestline(d, slow));
    expect_same(got.octant(i), d.size() < 3 ? OctantModel{} : fit_octant(d));
  }
  expect_same(got.spotter(), pooled.size() < 2 * 40u ? SpotterModel{}
                                                     : fit_spotter(pooled));
}

TEST(StoreLazy, EachFamilyEqualsADirectFit) {
  const CalibrationStore store = sealed_store(mixed_landmarks());
  expect_direct_fits(store);
  // The empty and short landmarks kept their uncalibrated models.
  EXPECT_FALSE(store.cbg(1).calibrated());
  EXPECT_TRUE(store.cbg(2).calibrated());
  EXPECT_FALSE(store.octant(3).calibrated());
  EXPECT_TRUE(store.octant(4).calibrated());
  EXPECT_TRUE(store.spotter().calibrated());
}

TEST(StoreLazy, PooledDataBelowTwiceTheBinsKeepsTheUncalibratedSpotter) {
  // 79 pooled points against 2 x 40 bins.
  const CalibrationStore store = sealed_store(
      {synth_scatter(100.0, 1.0, 50, 35), synth_scatter(90.0, 2.0, 29, 36)});
  EXPECT_FALSE(store.spotter().calibrated());
  expect_direct_fits(store);
}

TEST(StoreLazy, FitOnOneThreadEqualsFitOnFour) {
  std::vector<CalibData> landmarks = mixed_landmarks();
  for (std::uint64_t seed = 40; seed < 80; ++seed)
    landmarks.push_back(synth_scatter(95.0, 2.0, 60, seed));
  const CalibrationStore one = sealed_store(landmarks);
  const CalibrationStore four = sealed_store(landmarks);
  one.fit(kAllFamilies, 1);
  four.fit(kAllFamilies, 4);
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same(one.cbg(i), four.cbg(i));
    expect_same(one.cbg_slowline(i), four.cbg_slowline(i));
    expect_same(one.octant(i), four.octant(i));
  }
  expect_same(one.spotter(), four.spotter());
  expect_direct_fits(four);
}

TEST(StoreLazy, ConcurrentFirstReadsAgree) {
  std::vector<CalibData> landmarks = mixed_landmarks();
  for (std::uint64_t seed = 80; seed < 100; ++seed)
    landmarks.push_back(synth_scatter(95.0, 2.0, 60, seed));
  const CalibrationStore store = sealed_store(landmarks);
  const CalibrationStore reference = sealed_store(landmarks);
  reference.fit(kAllFamilies);
  // Eight threads released at once, each reading every family (one of
  // them through fit() on workers of its own) before any has fitted.
  constexpr int kThreads = 8;
  std::latch go(kThreads);
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      go.arrive_and_wait();
      if (t == 0) store.fit(kAllFamilies, 2);
      for (std::size_t k = 0; k < landmarks.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t)) %
                              landmarks.size();
        (void)store.cbg(i);
        (void)store.cbg_slowline(i);
        (void)store.octant(i);
      }
      (void)store.spotter();
    });
  }
  threads.clear();  // join
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same(store.cbg(i), reference.cbg(i));
    expect_same(store.cbg_slowline(i), reference.cbg_slowline(i));
    expect_same(store.octant(i), reference.octant(i));
  }
  expect_same(store.spotter(), reference.spotter());
}

TEST(StoreLazy, AddLandmarkDiscardsTheFitsAndFitAllRefits) {
  CalibrationStore store = sealed_store(mixed_landmarks());
  const CbgModel before = store.cbg(0);
  EXPECT_THROW(store.fit(1u << 4), InvalidArgument);  // no such family
  store.add_landmark(synth_scatter(150.0, 0.5, 100, 37));
  EXPECT_FALSE(store.fitted());
  EXPECT_THROW(store.cbg(0), InvalidArgument);
  EXPECT_THROW(store.spotter(), InvalidArgument);
  EXPECT_THROW(store.fit(CalibrationStore::kOctant), InvalidArgument);
  store.fit_all();
  expect_same(store.cbg(0), before);
  EXPECT_TRUE(store.cbg(6).calibrated());
  expect_direct_fits(store);
}

// Property: for any noise level and seed, the bestline is feasible and
// between the slowline and baseline when the slowline is enforced.
class BestlineSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BestlineSweep, FeasibleAndBounded) {
  auto [seed, noise] = GetParam();
  auto data = synth_scatter(100.0, 2.0, 300, seed, noise);
  CbgOptions opt;
  opt.enforce_slowline = true;
  auto m = fit_cbg_bestline(data, opt);
  EXPECT_GE(m.speed_km_per_ms(), geo::kSlowlineSpeedKmPerMs - 1e-9);
  EXPECT_LE(m.speed_km_per_ms(), geo::kFibreSpeedKmPerMs + 1e-9);
  for (const auto& p : data)
    EXPECT_GE(p.delay_ms,
              m.slope_ms_per_km() * p.distance_km + m.intercept_ms() - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    NoiseSeeds, BestlineSweep,
    ::testing::Combine(::testing::Values(21u, 22u, 23u, 24u, 25u),
                       ::testing::Values(1.0, 10.0, 50.0)));

}  // namespace
}  // namespace ageo::calib
