// The support-windowed Gaussian ring multiply (and the plan-served
// distance-table variant) must match the retained full-grid reference
// scan bit for bit, across everything that has ever broken a windowed
// optimisation: rings over the poles, rings straddling the antimeridian,
// mu of zero / beyond half the Earth's circumference / negative, sigma
// at the calibration floor and absurdly small or large, masked fields,
// multi-ring sequences that exercise the live-cell list, and posteriors
// whose mass underflows to exactly zero. Also pins the selection-based
// credible_region against a full-sort reference and the cached total
// mass against a fresh scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "geo/units.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/grid.hpp"
#include "grid/raster.hpp"
#include "grid/region.hpp"
#include "grid/window.hpp"
#include "mlat/multilateration.hpp"
#include "oracles.hpp"

namespace ageo::grid {
namespace {

constexpr double kHalfTurnKm = geo::kEarthRadiusKm * std::numbers::pi;
/// Spotter's default calibration floor for sigma (calib::SpotterModel).
constexpr double kSigmaFloorKm = 50.0;

struct RingSpec {
  geo::LatLon center;
  double mu_km;
  double sigma_km;
};

std::string spec_str(const RingSpec& r) {
  return "center (" + std::to_string(r.center.lat_deg) + ", " +
         std::to_string(r.center.lon_deg) + ") mu " +
         std::to_string(r.mu_km) + " sigma " + std::to_string(r.sigma_km);
}

/// Bit-for-bit comparison; reports the first mismatching cell.
void expect_fields_identical(const Field& got, const Field& want,
                             const std::string& what) {
  const Grid& g = *want.grid();
  ASSERT_EQ(got.grid(), want.grid()) << what;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const std::uint64_t a = std::bit_cast<std::uint64_t>(got.at(i));
    const std::uint64_t b = std::bit_cast<std::uint64_t>(want.at(i));
    if (a != b) {
      const geo::LatLon p = g.center(i);
      ASSERT_EQ(a, b) << what << ": first diff at cell " << i << " (lat "
                      << p.lat_deg << ", lon " << p.lon_deg << "): got "
                      << got.at(i) << " [" << std::hex << a << "], want "
                      << want.at(i) << " [" << b << "]";
    }
  }
}

/// Runs one ring sequence through every fast path — the center overload
/// (a transient plan), a standalone plan with its full table, and
/// the mask-started fuse with and without a shared cache — and
/// demands bit-identity with the reference scan.
void expect_equivalent(const Grid& g, const Region* mask,
                       const std::vector<RingSpec>& rings) {
  std::string what = "[";
  for (const auto& r : rings) what += spec_str(r) + "; ";
  what += "]";

  Field want(g);
  if (mask) want.apply_mask(*mask);
  for (const auto& r : rings)
    reference::multiply_gaussian_ring(want, r.center, r.mu_km, r.sigma_km);

  Field windowed(g);
  if (mask) windowed.apply_mask(*mask);
  for (const auto& r : rings)
    windowed.multiply_gaussian_ring(r.center, r.mu_km, r.sigma_km);
  expect_fields_identical(windowed, want, "windowed " + what);

  Field planned(g);
  if (mask) planned.apply_mask(*mask);
  for (const auto& r : rings) {
    CapScanPlan plan(g, r.center);
    planned.multiply_gaussian_ring(plan, r.mu_km, r.sigma_km);
  }
  expect_fields_identical(planned, want, "plan-served " + what);

  // The fused (normalised) posterior: normalize() is shared code, so
  // running it on the reference field keeps the comparison bit-exact.
  std::vector<mlat::GaussianConstraint> constraints;
  for (const auto& r : rings)
    constraints.push_back({r.center, r.mu_km, r.sigma_km});
  Field want_norm = want;
  want_norm.normalize();
  Field fused = mlat::reference::fuse_gaussian_rings(g, constraints, mask);
  expect_fields_identical(fused, want_norm, "fused " + what);
  CapPlanCache cache(64);
  Field fused_cached(g);
  if (mask) fused_cached.apply_mask(*mask);
  mlat::multiply_rings_into(g, constraints, &cache, fused_cached);
  fused_cached.normalize();
  expect_fields_identical(fused_cached, want_norm, "fused+cache " + what);
}

TEST(FieldEquivalence, HandPickedSingleRings) {
  Grid g(2.0);
  const geo::LatLon centers[] = {
      {0.0, 0.0},      {50.11, 8.68},    {90.0, 0.0},   {-90.0, 45.0},
      {0.0, 179.95},   {12.0, -179.5},   {-65.5, 179.99},
  };
  const std::pair<double, double> params[] = {
      {0.0, kSigmaFloorKm},          // cap-like ring, sigma at the floor
      {500.0, kSigmaFloorKm},        {1000.0, 100.0},
      {3000.0, 300.0},               {kHalfTurnKm, 200.0},
      {kHalfTurnKm + 500.0, 150.0},  // mu beyond half turn
      {25000.0, 100.0},              // support entirely off the sphere
      {-300.0, 100.0},               // negative mu: tail still on-sphere
      {12000.0, 1.0},                // sigma far below the floor
      {2000.0, 1e-3},                // support thinner than any cell
      {100.0, 5000.0},               // sigma so wide support is everything
  };
  for (const auto& c : centers)
    for (const auto& [mu, sigma] : params)
      expect_equivalent(g, nullptr, {{c, mu, sigma}});
}

TEST(FieldEquivalence, RandomizedSequencesCoarse) {
  std::mt19937 rng(20180814);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> mu(0.0, kHalfTurnKm + 500.0);
  std::uniform_real_distribution<double> sigma(kSigmaFloorKm, 800.0);
  std::uniform_int_distribution<int> n_rings(1, 5);
  for (const double cell : {2.0, 1.0}) {
    Grid g(cell);
    for (int s = 0; s < 12; ++s) {
      std::vector<RingSpec> rings;
      const int n = n_rings(rng);
      for (int k = 0; k < n; ++k)
        rings.push_back({{lat(rng), lon(rng)}, mu(rng), sigma(rng)});
      expect_equivalent(g, nullptr, rings);
    }
  }
}

TEST(FieldEquivalence, RandomizedSequencesWithMask) {
  std::mt19937 rng(4321);
  std::uniform_real_distribution<double> lat(-85.0, 85.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> mu(0.0, 9000.0);
  std::uniform_real_distribution<double> sigma(kSigmaFloorKm, 400.0);
  Grid g(1.0);
  for (int s = 0; s < 10; ++s) {
    // A lumpy mask from two random caps (plus one empty-mask round).
    Region mask(g);
    if (s != 0) {
      mask = rasterize_cap(g, {{lat(rng), lon(rng)}, 4000.0});
      mask |= rasterize_cap(g, {{lat(rng), lon(rng)}, 2500.0});
    }
    std::vector<RingSpec> rings;
    for (int k = 0; k < 3; ++k)
      rings.push_back({{lat(rng), lon(rng)}, mu(rng), sigma(rng)});
    expect_equivalent(g, &mask, rings);
  }
}

TEST(FieldEquivalence, RandomizedFineGrid) {
  // The production resolution of the windowing win: 0.25 degree cells.
  // Few scenarios — the reference scan costs ~1M trig calls per ring.
  Grid g(0.25);
  std::mt19937 rng(91011);
  std::uniform_real_distribution<double> lat(-89.0, 89.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> mu(0.0, 6000.0);
  std::uniform_real_distribution<double> sigma(kSigmaFloorKm, 200.0);
  for (int s = 0; s < 3; ++s) {
    std::vector<RingSpec> rings;
    for (int k = 0; k < 2; ++k)
      rings.push_back({{lat(rng), lon(rng)}, mu(rng), sigma(rng)});
    expect_equivalent(g, nullptr, rings);
  }
}

TEST(FieldEquivalence, ZeroMassPosterior) {
  // Two floor-sigma rings whose supports cannot intersect: the product
  // underflows to exactly zero everywhere, normalize() declines, and the
  // fast path's wholesale zeroing must reproduce the all-(+0.0) field.
  Grid g(1.0);
  const std::vector<RingSpec> rings = {
      {{0.0, 0.0}, 500.0, kSigmaFloorKm},
      {{0.0, 180.0}, 500.0, kSigmaFloorKm},
  };
  expect_equivalent(g, nullptr, rings);

  Field f(g);
  for (const auto& r : rings)
    f.multiply_gaussian_ring(r.center, r.mu_km, r.sigma_km);
  EXPECT_EQ(f.total_mass(), 0.0);
  EXPECT_FALSE(f.normalize());
  EXPECT_TRUE(f.credible_region(0.95).empty());
  EXPECT_FALSE(f.mode().has_value());
}

TEST(FieldEquivalence, MutationThroughAtInvalidatesLiveList) {
  // Reviving a zeroed cell between rings must be visible to the next
  // multiply on both paths (the live list is rebuilt after at()).
  Grid g(1.0);
  const std::size_t revived = g.cell_at({10.0, 120.0});

  Field want(g);
  reference::multiply_gaussian_ring(want, {48.0, 11.0}, 1200.0, 80.0);
  want.at(revived) = 0.5;
  reference::multiply_gaussian_ring(want, {10.0, 121.0}, 300.0, 150.0);

  Field fast(g);
  fast.multiply_gaussian_ring({48.0, 11.0}, 1200.0, 80.0);
  fast.at(revived) = 0.5;
  fast.multiply_gaussian_ring({10.0, 121.0}, 300.0, 150.0);

  expect_fields_identical(fast, want, "revived-cell sequence");
  EXPECT_NE(fast.at(revived), 0.0);
}

TEST(FieldEquivalence, PlanReuseAcrossRings) {
  // One plan (one distance table) serving several (mu, sigma) pairs must
  // match per-call no-plan multiplies.
  Grid g(1.0);
  const geo::LatLon center{47.4, -122.3};
  CapScanPlan plan(g, center);
  Field want(g), got(g);
  for (const auto& [mu, sigma] :
       std::vector<std::pair<double, double>>{
           {500.0, kSigmaFloorKm}, {2500.0, 120.0}, {700.0, 60.0}}) {
    reference::multiply_gaussian_ring(want, center, mu, sigma);
    got.multiply_gaussian_ring(plan, mu, sigma);
  }
  expect_fields_identical(got, want, "plan reuse");
}

// ---- cached mass ----

double fresh_mass_scan(const Field& f) {
  const Grid& g = *f.grid();
  double m = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i)
    m += f.at(i) * g.cell_area_km2(i);
  return m;
}

TEST(FieldMassCache, NormalizeCachesExactPostDivisionMass) {
  Grid g(2.0);
  Field f(g);
  f.multiply_gaussian_ring({20.0, 30.0}, 1500.0, 200.0);
  ASSERT_TRUE(f.normalize());
  // The cached value must equal a fresh index-order scan to the bit —
  // credible_region's target depends on it.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f.total_mass()),
            std::bit_cast<std::uint64_t>(fresh_mass_scan(f)));
}

TEST(FieldMassCache, InvalidatedByMutation) {
  Grid g(2.0);
  Field f(g);
  const double before = f.total_mass();
  f.at(7) = 100.0;
  EXPECT_NE(f.total_mass(), before);
  EXPECT_EQ(f.total_mass(), fresh_mass_scan(f));

  f.multiply_gaussian_ring({0.0, 0.0}, 1000.0, 300.0);
  EXPECT_EQ(f.total_mass(), fresh_mass_scan(f));

  Region mask = rasterize_cap(g, {{0.0, 0.0}, 3000.0});
  f.apply_mask(mask);
  EXPECT_EQ(f.total_mass(), fresh_mass_scan(f));
}

// ---- selection-based credible_region ----

/// The pre-selection implementation: full sort with the same
/// (density desc, index asc) order, sequential accumulation.
Region credible_fullsort(const Field& f, double mass) {
  const Grid& g = *f.grid();
  Region out(g);
  const double total = f.total_mass();
  if (!(total > 0.0)) return out;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < g.size(); ++i)
    if (f.at(i) > 0.0) order.push_back(i);
  if (mass == 1.0) {  // full support, matching credible_region's contract
    for (std::size_t idx : order) out.set(idx);
    return out;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return f.at(a) > f.at(b) || (f.at(a) == f.at(b) && a < b);
  });
  double acc = 0.0;
  const double target = mass * total;
  for (std::size_t idx : order) {
    out.set(idx);
    acc += f.at(idx) * g.cell_area_km2(idx);
    if (acc >= target) break;
  }
  return out;
}

TEST(FieldCredibleRegion, SelectionMatchesFullSort) {
  std::mt19937 rng(777);
  std::uniform_real_distribution<double> lat(-80.0, 80.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  Grid g(1.0);
  for (int s = 0; s < 6; ++s) {
    Field f(g);
    f.multiply_gaussian_ring({lat(rng), lon(rng)}, 2000.0, 350.0);
    f.multiply_gaussian_ring({lat(rng), lon(rng)}, 2500.0, 500.0);
    if (!f.normalize()) continue;
    for (double mass : {0.25, 0.5, 0.9, 0.95, 0.999, 1.0}) {
      Region got = f.credible_region(mass);
      Region want = credible_fullsort(f, mass);
      EXPECT_EQ(got, want) << "scenario " << s << " mass " << mass
                           << ": got " << got.count() << " cells, want "
                           << want.count();
    }
  }
}

TEST(FieldCredibleRegion, UniformTiesBreakByIndex) {
  // An all-ties field: the deterministic tie-break (cell index) must make
  // selection and full sort agree exactly, not just in cell count.
  Grid g(4.0);
  Field f(g);
  ASSERT_TRUE(f.normalize());
  for (double mass : {0.1, 0.5, 1.0}) {
    Region got = f.credible_region(mass);
    Region want = credible_fullsort(f, mass);
    EXPECT_EQ(got, want) << "mass " << mass;
  }
}

TEST(FieldCredibleRegion, MaskedFieldMatches) {
  Grid g(1.0);
  Region mask = rasterize_cap(g, {{40.0, -100.0}, 3500.0});
  Field f(g);
  f.apply_mask(mask);
  f.multiply_gaussian_ring({41.0, -99.0}, 800.0, 150.0);
  ASSERT_TRUE(f.normalize());
  for (double mass : {0.5, 0.95}) {
    EXPECT_EQ(f.credible_region(mass), credible_fullsort(f, mass));
  }
}

// ---- live-cell list invariant ----
//
// While a field holds a live list, the list is strictly ascending and
// every cell off it is +0.0; total_mass(), normalize() and the memo
// refresh (copy_from) walk only the list. These tests check the
// invariant after every kind of pass, and that each live-list pass is
// bit-identical to its dense counterpart.

constexpr std::uint64_t kPlusZeroBits = 0;

/// The dense oracle for a live-list field: a copy whose list is dropped
/// (writing a cell back through at() invalidates it), so every later
/// pass on the copy walks the whole grid.
Field dense_copy(const Field& f) {
  Field d = f;
  d.at(0) = f.at(0);
  EXPECT_EQ(d.live_cells(), nullptr);
  return d;
}

/// Checks the invariant on `f` and that its (possibly cached) mass is
/// the dense index-order scan to the bit. Returns the number of stale
/// entries: live cells whose density is zero.
std::size_t expect_live_invariant(const Field& f, const std::string& what) {
  const std::vector<std::uint32_t>* live = f.live_cells();
  EXPECT_NE(live, nullptr) << what;
  if (!live) return 0;
  const Grid& g = *f.grid();
  std::vector<bool> listed(g.size(), false);
  std::size_t stale = 0;
  for (std::size_t k = 0; k < live->size(); ++k) {
    const std::uint32_t i = (*live)[k];
    if (k > 0) {
      EXPECT_LT((*live)[k - 1], i) << what << ": not ascending";
    }
    listed[i] = true;
    if (f.at(i) == 0.0) ++stale;
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (listed[i]) continue;
    if (std::bit_cast<std::uint64_t>(f.at(i)) != kPlusZeroBits) {
      ADD_FAILURE() << what << ": cell " << i << " off the live list holds "
                    << f.at(i);
      break;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f.total_mass()),
            std::bit_cast<std::uint64_t>(fresh_mass_scan(f)))
      << what << ": total_mass differs from the dense scan";
  return stale;
}

const std::vector<RingSpec>& live_test_rings() {
  static const std::vector<RingSpec> rings = {
      {{48.0, 10.0}, 900.0, 150.0},
      {{40.0, -3.0}, 1400.0, 200.0},
      {{52.0, 20.0}, 1100.0, 180.0},
      {{45.0, 2.0}, 300.0, 120.0},
  };
  return rings;
}

TEST(FieldLiveList, InvariantHoldsAfterEveryPass) {
  Grid g(1.0);
  const Region mask = rasterize_cap(g, {{46.0, 8.0}, 4000.0});
  for (const bool planned : {false, true}) {
    const std::string path = planned ? "plan-served" : "windowed";
    Field f(g);
    f.apply_mask(mask);
    expect_live_invariant(f, path + " after apply_mask");
    for (const RingSpec& r : live_test_rings()) {
      if (planned) {
        CapScanPlan plan(g, r.center);
        f.multiply_gaussian_ring(plan, r.mu_km, r.sigma_km);
      } else {
        f.multiply_gaussian_ring(r.center, r.mu_km, r.sigma_km);
      }
      expect_live_invariant(f, path + " after ring " + spec_str(r));
    }
    Field dense = dense_copy(f);
    ASSERT_TRUE(f.normalize());
    ASSERT_TRUE(dense.normalize());
    expect_live_invariant(f, path + " after normalize");
    expect_fields_identical(f, dense, path + " live vs dense normalize");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.total_mass()),
              std::bit_cast<std::uint64_t>(dense.total_mass()));
  }
}

TEST(FieldLiveList, UnmaskedFirstRingBuildsTheList) {
  Grid g(2.0);
  Field f(g);
  EXPECT_EQ(f.live_cells(), nullptr);
  f.multiply_gaussian_ring({-30.0, 150.0}, 2000.0, 250.0);
  expect_live_invariant(f, "first windowed ring");
  CapScanPlan plan(g, {-20.0, 140.0});
  f.multiply_gaussian_ring(plan, 1500.0, 200.0);
  expect_live_invariant(f, "plan-served ring");
}

TEST(FieldLiveList, MaskedRebindEqualsUniformThenApplyMask) {
  Grid g(1.0);
  const Region mask = rasterize_cap(g, {{-10.0, 179.0}, 2500.0});
  Field want(g);
  want.apply_mask(mask);
  // A reused field with stale contents, the way a pooled lease arrives.
  Field got(g);
  got.multiply_gaussian_ring({0.0, 0.0}, 1000.0, 100.0);
  got.rebind(g, &mask);
  expect_fields_identical(got, want, "masked rebind");
  ASSERT_NE(got.live_cells(), nullptr);
  EXPECT_EQ(*got.live_cells(), *want.live_cells());
  expect_live_invariant(got, "masked rebind");
}

TEST(FieldLiveList, NormalizeUnderflowLeavesStaleEntriesAndStaysExact) {
  // The ring's support edge leaves subnormal densities; dividing them by
  // the field's large total mass underflows to zero, which leaves stale
  // live entries behind.
  Grid g(1.0);
  Field f(g);
  f.multiply_gaussian_ring({10.0, 20.0}, 1500.0, 200.0);
  Field dense = dense_copy(f);
  ASSERT_GT(f.total_mass(), 1e6);
  ASSERT_TRUE(f.normalize());
  ASSERT_TRUE(dense.normalize());
  const std::size_t stale = expect_live_invariant(f, "underflowing normalize");
  EXPECT_GT(stale, 0u) << "no quotient underflowed; the case is not covered";
  expect_fields_identical(f, dense, "underflowing normalize");
  for (const double mass : {0.5, 0.95, 1.0}) {
    EXPECT_EQ(f.credible_region(mass), dense.credible_region(mass)) << mass;
  }
  // The next ring compacts the stale entries away.
  f.multiply_gaussian_ring({12.0, 25.0}, 1200.0, 220.0);
  EXPECT_EQ(expect_live_invariant(f, "ring after underflow"), 0u);
}

TEST(FieldLiveList, SeededStartMatchesMaskedStart) {
  // The refined Spotter's precondition: a field rebound onto seed ∩ mask,
  // where every cell off the seed lies outside some ring's hard support,
  // ends a ring chain bit-identical to the plain masked start. The seed
  // is the first ring's support annulus inside a window that wraps the
  // antimeridian, as the refinement ladder's seeds do.
  Grid g(1.0);
  const Window win{50, 130, 330, 60};  // 40S..40N, 150E..150W
  const std::vector<RingSpec> rings = {
      {{0.0, 179.5}, 1800.0, 20.0},
      {{10.0, -170.0}, 1500.0, 100.0},
      {{-8.0, 172.0}, 1700.0, 80.0},
  };
  const double w = detail::gaussian_support_halfwidth_km(rings[0].sigma_km);
  const Region support = rasterize_ring(
      g, {rings[0].center, rings[0].mu_km - w, rings[0].mu_km + w});
  Region seed(g);
  window_region_into(g, win, nullptr, seed);
  seed &= support;
  ASSERT_EQ(seed, support) << "the support leaves the window";
  const Region mask = rasterize_cap(g, {{0.0, 179.5}, 3000.0});
  Region start = seed;
  start &= mask;
  ASSERT_GT(start.count(), 0u);
  ASSERT_LT(start.count(), mask.count()) << "the seed clips nothing";

  for (const bool planned : {false, true}) {
    const std::string path = planned ? "plan-served" : "windowed";
    Field want, got;
    want.rebind(g, &mask);
    got.rebind(g, &start);
    for (const RingSpec& r : rings) {
      for (Field* f : {&want, &got}) {
        if (planned) {
          f->multiply_gaussian_ring(CapScanPlan(g, r.center), r.mu_km,
                                    r.sigma_km);
        } else {
          f->multiply_gaussian_ring(r.center, r.mu_km, r.sigma_km);
        }
      }
    }
    for (const bool normalized : {false, true}) {
      const std::string at = path + (normalized ? " normalized" : " product");
      if (normalized) {
        ASSERT_TRUE(want.normalize()) << at;
        ASSERT_TRUE(got.normalize()) << at;
      }
      expect_fields_identical(got, want, at);
      ASSERT_NE(got.live_cells(), nullptr) << at;
      ASSERT_NE(want.live_cells(), nullptr) << at;
      EXPECT_EQ(*got.live_cells(), *want.live_cells()) << at;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_mass()),
                std::bit_cast<std::uint64_t>(want.total_mass()))
          << at;
      expect_live_invariant(got, at);
    }
    for (const double mass : {0.9, 1.0}) {
      EXPECT_EQ(got.credible_region(mass), want.credible_region(mass))
          << path << " mass " << mass;
    }
  }
}

TEST(FieldLiveList, SparseMemoRefreshMatchesFullCopyThenNormalize) {
  // The Spotter memo keeps the unnormalised product and refreshes `work`
  // from it per estimate; after the first refresh both fields carry live
  // lists and copy_from writes only their cells. Each round must leave
  // `work` exactly where `work = product; work.normalize()` would.
  Grid g(1.0);
  const Region mask = rasterize_cap(g, {{46.0, 8.0}, 4000.0});
  const std::vector<RingSpec> rounds[] = {
      {{{48.0, 10.0}, 900.0, 150.0}},
      {{{40.0, -3.0}, 1400.0, 200.0}, {{52.0, 20.0}, 1100.0, 180.0}},
      {{{45.0, 2.0}, 300.0, 120.0}},
      {{{47.0, 6.0}, 250.0, 100.0}},
  };
  for (const bool masked : {true, false}) {
    const std::string what = masked ? "masked" : "unmasked";
    Field product;
    product.rebind(g, masked ? &mask : nullptr);
    Field work;
    int round = 0;
    for (const auto& rings : rounds) {
      for (const RingSpec& r : rings) {
        CapScanPlan plan(g, r.center);
        product.multiply_gaussian_ring(plan, r.mu_km, r.sigma_km);
      }
      work.copy_from(product);
      work.normalize();
      Field oracle = product;
      oracle.normalize();
      const std::string at = what + " round " + std::to_string(round++);
      expect_fields_identical(work, oracle, at);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(work.total_mass()),
                std::bit_cast<std::uint64_t>(oracle.total_mass()))
          << at;
      ASSERT_NE(work.live_cells(), nullptr) << at;
      EXPECT_EQ(*work.live_cells(), *oracle.live_cells()) << at;
      expect_live_invariant(work, at);
      EXPECT_EQ(work.credible_region(0.95), oracle.credible_region(0.95))
          << at;
    }
  }
}

// ---- table domains ----
//
// A CapPlanCache with a table domain keeps each plan's distances only for
// the domain's cells; the lookup serves other cells with the same trig
// expression. Every field must come out bit-identical whichever way its
// distances were served, whatever its mask.

/// A lumpy two-cap domain on a 1-degree grid (Europe and North America).
Region test_domain(const Grid& g) {
  Region d = rasterize_cap(g, {{46.0, 8.0}, 4000.0});
  d |= rasterize_cap(g, {{35.0, -100.0}, 3000.0});
  return d;
}

/// Rings whose supports spill well outside test_domain, so an unmasked
/// field reads off-domain cells through the fallback.
std::vector<RingSpec> domain_test_rings() {
  std::vector<RingSpec> rings = live_test_rings();
  rings.insert(rings.begin(), {{30.0, -40.0}, 5000.0, 800.0});
  return rings;
}

enum class DistanceSource { kDomainCache, kFullCache, kTransientPlan };

const char* source_name(DistanceSource s) {
  switch (s) {
    case DistanceSource::kDomainCache:
      return "domain cache";
    case DistanceSource::kFullCache:
      return "full cache";
    case DistanceSource::kTransientPlan:
      return "transient plan";
  }
  return "?";
}

/// Multiply one ring into `f` with distances from the given source.
void multiply_ring(Field& f, const Grid& g, DistanceSource src,
                   CapPlanCache& domain_cache, CapPlanCache& full_cache,
                   const RingSpec& r) {
  switch (src) {
    case DistanceSource::kDomainCache:
      f.multiply_gaussian_ring_unchecked(*domain_cache.plan(g, r.center),
                                         r.mu_km, r.sigma_km);
      break;
    case DistanceSource::kFullCache:
      f.multiply_gaussian_ring_unchecked(*full_cache.plan(g, r.center),
                                         r.mu_km, r.sigma_km);
      break;
    case DistanceSource::kTransientPlan:
      f.multiply_gaussian_ring_unchecked(
          *detail::plan_for(nullptr, g, r.center), r.mu_km, r.sigma_km);
      break;
  }
}

/// Every cell's bits and the live list: two fields are bit-identical
/// when their snapshots compare equal.
struct FieldSnapshot {
  std::vector<std::uint64_t> bits;
  std::vector<std::uint32_t> live;
  bool operator==(const FieldSnapshot&) const = default;
};

FieldSnapshot snapshot(const Field& f) {
  FieldSnapshot s;
  for (std::size_t i = 0; i < f.grid()->size(); ++i)
    s.bits.push_back(std::bit_cast<std::uint64_t>(f.at(i)));
  if (f.live_cells()) s.live = *f.live_cells();
  return s;
}

TEST(PlanTableDomain, DomainTableEntriesEqualFullTable) {
  Grid g(1.0);
  const Region domain = test_domain(g);
  CapPlanCache domain_cache(16, domain);
  CapPlanCache full_cache(16);
  for (const geo::LatLon c : {geo::LatLon{48.0, 10.0}, geo::LatLon{-60.0, 170.0},
                              geo::LatLon{90.0, 0.0}}) {
    const auto dplan = domain_cache.plan(g, c);
    const auto fplan = full_cache.plan(g, c);
    const std::vector<double>& dt = dplan->cell_distances_km();
    const std::vector<double>& ft = fplan->cell_distances_km();
    ASSERT_EQ(dt.size(), domain.count());
    ASSERT_EQ(ft.size(), g.size());
    std::size_t k = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (!domain.test(i)) continue;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dt[k]),
                std::bit_cast<std::uint64_t>(ft[i]))
          << "cell " << i << " (rank " << k << ")";
      ++k;
    }
    // The lookup serves every cell, on the domain or off it, with the
    // full table's bits.
    const CellDistances dist = dplan->distances();
    for (std::size_t i = 0; i < g.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dist(i)),
                std::bit_cast<std::uint64_t>(ft[i]))
          << "cell " << i;
  }
}

TEST(PlanTableDomain, FieldsBitIdenticalAcrossDistanceSources) {
  // Compared after every ring, not only at the end: later rings zero the
  // off-domain cells an unmasked field reads through the fallback.
  Grid g(1.0);
  const Region domain = test_domain(g);
  Region subset = domain;
  subset &= rasterize_cap(g, {{46.0, 8.0}, 2500.0});
  ASSERT_LT(subset.count(), domain.count());
  ASSERT_GT(subset.count(), 0u);
  CapPlanCache domain_cache(64, domain);
  CapPlanCache full_cache(64);
  const std::vector<RingSpec> rings = domain_test_rings();
  const DistanceSource plan_sources[] = {DistanceSource::kDomainCache,
                                         DistanceSource::kFullCache};
  const std::pair<const Region*, std::string> masks[] = {
      {&domain, "domain mask"}, {&subset, "subset mask"}, {nullptr, "unmasked"}};

  for (const auto& [mask, mask_name] : masks) {
    std::vector<FieldSnapshot> want;
    Field transient;
    transient.rebind(g, mask);
    for (const RingSpec& r : rings) {
      multiply_ring(transient, g, DistanceSource::kTransientPlan, domain_cache,
                    full_cache, r);
      want.push_back(snapshot(transient));
    }
    if (!mask) {
      // The first ring's support reaches past the domain, so the domain
      // cache serves those cells through the off-domain fallback.
      std::size_t off_domain = 0;
      for (const std::uint32_t i : want.front().live)
        off_domain += domain.test(i) ? 0 : 1;
      EXPECT_GT(off_domain, 0u) << "the fallback is not exercised";
    }
    for (const DistanceSource src : plan_sources) {
      const std::string what = mask_name + ", " + source_name(src);
      Field f;
      f.rebind(g, mask);
      for (std::size_t k = 0; k < rings.size(); ++k) {
        multiply_ring(f, g, src, domain_cache, full_cache, rings[k]);
        EXPECT_TRUE(snapshot(f) == want[k])
            << what << ": Field after ring " << k;
      }
    }
  }
}

TEST(PlanTableDomain, TransientPlansServeTrigDistancesWithoutATable) {
  // Poles, both sides of the antimeridian and a mid-latitude center.
  const geo::LatLon centers[] = {{90.0, 0.0},   {-90.0, 0.0}, {10.0, 180.0},
                                 {-20.0, -180.0}, {48.0, 11.0}};
  for (const double cell : {2.0, 1.0}) {
    Grid g(cell);
    CapPlanCache cache(8);
    for (const geo::LatLon& c : centers) {
      const auto plan = detail::plan_for(nullptr, g, c);
      const CellDistances dist = plan->distances();
      const std::vector<double>& table = cache.plan(g, c)->cell_distances_km();
      const geo::Vec3 v = geo::to_vec3(c);
      for (std::size_t i = 0; i < g.size(); ++i) {
        const std::uint64_t got = std::bit_cast<std::uint64_t>(dist(i));
        ASSERT_EQ(got, std::bit_cast<std::uint64_t>(
                           geo::arc_distance_km(v, g.center_vec(i))))
            << "cell " << i << " on the " << cell << " degree grid";
        ASSERT_EQ(got, std::bit_cast<std::uint64_t>(table[i])) << "cell " << i;
      }
      EXPECT_EQ(plan->distance_table_bytes(), 0u);
    }
  }
}

TEST(PlanTableDomain, PlansOnOtherGridsGetFullTables) {
  Grid g(1.0), coarse(2.0);
  CapPlanCache cache(16, test_domain(g));
  const geo::LatLon c{48.0, 10.0};
  const auto other = cache.plan(coarse, c);
  EXPECT_EQ(other->cell_distances_km().size(), coarse.size());
  CapScanPlan standalone(g, c);
  EXPECT_EQ(standalone.cell_distances_km().size(), g.size());
  EXPECT_LT(cache.plan(g, c)->cell_distances_km().size(), g.size());
  const auto on_g = std::make_shared<const TableDomain>(test_domain(g));
  EXPECT_THROW(CapScanPlan(coarse, c, on_g), InvalidArgument);
}

TEST(PlanTableDomain, TableBytesCountDomainCellsOfBuiltTables) {
  Grid g(1.0);
  const Region domain = test_domain(g);
  CapPlanCache cache(16, domain);
  EXPECT_EQ(cache.domain_bytes(), g.size() * sizeof(std::uint32_t));
  EXPECT_EQ(CapPlanCache(16).domain_bytes(), 0u);
  const geo::LatLon centers[] = {{48.0, 10.0}, {0.0, 0.0}, {-33.9, 151.2}};
  for (const geo::LatLon& c : centers) cache.plan(g, c);  // no table yet
  EXPECT_EQ(cache.table_bytes(), 0u);
  std::size_t built = 0;
  for (const geo::LatLon& c : centers) {
    cache.plan(g, c)->cell_distances_km();
    ++built;
    EXPECT_EQ(cache.table_bytes(), domain.count() * sizeof(double) * built);
  }
}

}  // namespace
}  // namespace ageo::grid
