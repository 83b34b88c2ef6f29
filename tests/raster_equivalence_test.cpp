// The pruned, word-filling rasterizer (and the per-landmark plan cache)
// must match the naive per-cell reference scan bit for bit, across every
// geometry that has ever broken a longitude-window optimisation: caps
// spanning the antimeridian, caps over the poles, radius 0, radii at or
// beyond half the Earth's circumference, thin rings, and rings whose
// inner exclusion swallows whole rows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "geo/geodesy.hpp"
#include "geo/units.hpp"
#include "grid/annulus_scan.hpp"
#include "grid/cap_cache.hpp"
#include "grid/grid.hpp"
#include "grid/raster.hpp"
#include "grid/region.hpp"
#include "oracles.hpp"

namespace ageo::grid {
namespace {

constexpr double kHalfTurnKm = geo::kEarthRadiusKm * std::numbers::pi;

/// First differing cell, for readable failure messages.
std::string diff_report(const Grid& g, const Region& got,
                        const Region& want) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (got.test(i) != want.test(i)) {
      auto p = g.center(i);
      return "first diff at cell " + std::to_string(i) + " (lat " +
             std::to_string(p.lat_deg) + ", lon " + std::to_string(p.lon_deg) +
             "): got " + std::to_string(got.test(i)) + ", want " +
             std::to_string(want.test(i));
    }
  }
  return "regions identical";
}

void expect_cap_equivalent(const Grid& g, const geo::Cap& cap) {
  Region want = reference::rasterize_cap(g, cap);
  Region got = rasterize_cap(g, cap);
  EXPECT_EQ(got, want) << "cap center (" << cap.center.lat_deg << ", "
                       << cap.center.lon_deg << ") radius " << cap.radius_km
                       << ": " << diff_report(g, got, want);

  CapScanPlan plan(g, cap.center);
  Region cached(g);
  plan.rasterize_annulus(0.0, cap.radius_km, cached);
  EXPECT_EQ(cached, want) << "plan cache, cap center (" << cap.center.lat_deg
                          << ", " << cap.center.lon_deg << ") radius "
                          << cap.radius_km << ": "
                          << diff_report(g, cached, want);
}

void expect_ring_equivalent(const Grid& g, const geo::Ring& ring) {
  Region want = reference::rasterize_ring(g, ring);
  Region got = rasterize_ring(g, ring);
  EXPECT_EQ(got, want) << "ring center (" << ring.center.lat_deg << ", "
                       << ring.center.lon_deg << ") inner " << ring.inner_km
                       << " outer " << ring.outer_km << ": "
                       << diff_report(g, got, want);

  CapScanPlan plan(g, ring.center);
  Region cached(g);
  plan.rasterize_annulus(ring.inner_km, ring.outer_km, cached);
  EXPECT_EQ(cached, want) << "plan cache, ring center ("
                          << ring.center.lat_deg << ", " << ring.center.lon_deg
                          << ") inner " << ring.inner_km << " outer "
                          << ring.outer_km << ": "
                          << diff_report(g, cached, want);
}

TEST(RasterEquivalence, HandPickedCaps) {
  Grid g(1.0);
  const geo::LatLon centers[] = {
      {0.0, 0.0},        {50.11, 8.68},   {0.0, 179.95},  {12.0, -179.5},
      {-33.0, 180.0},    {89.9, 10.0},    {-89.9, -170.0}, {90.0, 0.0},
      {-90.0, 45.0},     {0.5, 0.5},      {65.0, -179.99}, {-65.5, 179.99},
  };
  const double radii[] = {0.0,    1.0,     111.0,  500.0,   3000.0,
                          9000.0, 15000.0, kHalfTurnKm, kHalfTurnKm + 500.0};
  for (const auto& c : centers)
    for (double r : radii) expect_cap_equivalent(g, {c, r});
}

TEST(RasterEquivalence, HandPickedRings) {
  Grid g(1.0);
  const geo::LatLon centers[] = {
      {0.0, 0.0}, {48.0, 11.0}, {0.0, 180.0}, {-72.0, -179.3}, {89.5, 0.0},
  };
  const std::pair<double, double> bounds[] = {
      {0.0, 0.0},       {0.0, 700.0},     {300.0, 301.0},
      {500.0, 2500.0},  {5000.0, 5200.0}, {9000.0, 19000.0},
      {kHalfTurnKm - 300.0, kHalfTurnKm + 300.0},
      {700.0, 500.0},  // inner > outer: empty
  };
  for (const auto& c : centers)
    for (auto [i, o] : bounds) expect_ring_equivalent(g, {c, i, o});
}

TEST(RasterEquivalence, RandomizedCapsCoarse) {
  Grid g(1.0);
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> radius(0.0, kHalfTurnKm + 1000.0);
  for (int i = 0; i < 200; ++i)
    expect_cap_equivalent(g, {{lat(rng), lon(rng)}, radius(rng)});
}

TEST(RasterEquivalence, RandomizedRingsCoarse) {
  Grid g(1.0);
  std::mt19937 rng(5678);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> r(0.0, 12000.0);
  std::uniform_real_distribution<double> width(0.0, 4000.0);
  for (int i = 0; i < 150; ++i) {
    double inner = r(rng);
    expect_ring_equivalent(g, {{lat(rng), lon(rng)}, inner, inner + width(rng)});
  }
}

TEST(RasterEquivalence, RandomizedFineGrid) {
  // The production resolution of the pruning win: 0.25 degree cells. Small
  // radii keep the naive reference affordable.
  Grid g(0.25);
  std::mt19937 rng(91011);
  std::uniform_real_distribution<double> lat(-89.0, 89.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> radius(0.0, 1500.0);
  for (int i = 0; i < 40; ++i)
    expect_cap_equivalent(g, {{lat(rng), lon(rng)}, radius(rng)});
  for (int i = 0; i < 20; ++i) {
    double inner = radius(rng);
    expect_ring_equivalent(g, {{lat(rng), lon(rng)}, inner, inner + 400.0});
  }
}

TEST(RasterEquivalence, AccumulateMasksMatchRegions) {
  Grid g(1.0);
  std::mt19937 rng(222);
  std::uniform_real_distribution<double> lat(-85.0, 85.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> radius(50.0, 6000.0);
  std::vector<std::uint64_t> masks(g.size(), 0);
  std::vector<Region> want;
  for (unsigned bit = 0; bit < 16; ++bit) {
    geo::Cap cap{{lat(rng), lon(rng)}, radius(rng)};
    detail::plan_for(nullptr, g, cap.center)
        ->accumulate_annulus(0.0, cap.radius_km, masks, bit);
    want.push_back(reference::rasterize_cap(g, cap));
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (unsigned bit = 0; bit < 16; ++bit) {
      ASSERT_EQ((masks[i] >> bit) & 1, want[bit].test(i) ? 1u : 0u)
          << "cell " << i << " bit " << bit;
    }
  }
}

TEST(RasterEquivalence, PlanReuseAcrossRadii) {
  // One plan queried at many radii must match per-radius rasterization.
  Grid g(1.0);
  geo::LatLon center{47.4, -122.3};
  CapScanPlan plan(g, center);
  for (double r : {0.0, 10.0, 350.0, 1200.0, 4000.0, 11000.0, 19000.0,
                   kHalfTurnKm}) {
    Region want = reference::rasterize_cap(g, {center, r});
    Region got(g);
    plan.rasterize_annulus(0.0, r, got);
    EXPECT_EQ(got, want) << "radius " << r << ": "
                         << diff_report(g, got, want);
  }
}

TEST(RasterEquivalence, TinyCapOnExactCellCenterIsNotEmpty) {
  // Regression: the cell whose center coincides with the cap center has a
  // dot product that can round to just above 1. Without clamping it failed
  // the `d <= cos_inner` half of the test when inner_km = 0 (cos_inner
  // exactly 1) and the cap came back empty.
  Grid g(1.0);
  const geo::LatLon on_center = g.center(g.cell_at({0.5, 0.5}));
  for (double r : {0.5, 5.0, 55.0}) {
    geo::Cap cap{on_center, r};
    Region ref = reference::rasterize_cap(g, cap);
    Region fast = rasterize_cap(g, cap);
    EXPECT_TRUE(ref.test(g.cell_at(on_center)))
        << "reference scan lost the center cell at radius " << r;
    EXPECT_TRUE(fast.test(g.cell_at(on_center)))
        << "pruned scan lost the center cell at radius " << r;
    EXPECT_EQ(fast, ref);
  }
}

// ---- boundary-run folds: scalar vs AVX2 on the same operands ----------

using Fold = void (*)(const geo::Vec3*, std::size_t, std::size_t,
                      const geo::Vec3&, double, double, std::uint64_t*);

struct FoldPair {
  Fold scalar;
  Fold avx2;
};

template <detail::AnnulusOp Op>
FoldPair folds() {
  return {&detail::annulus_fold_scalar<Op>, &detail::annulus_fold_avx2<Op>};
}

TEST(SimdKernels, AnnulusOpsMatchScalarBitForBit) {
  if (!detail::cpu_has_avx2()) GTEST_SKIP() << "AVX2 not available";
  const Grid g(2.0);
  const geo::Vec3* centers = &g.center_vec(0);
  const FoldPair ops[2] = {folds<detail::AnnulusOp::kSet>(),
                           folds<detail::AnnulusOp::kIntersect>()};

  std::mt19937_64 rng(20260809);
  std::uniform_real_distribution<double> lat(-90.0, 90.0), lon(-180.0, 180.0);
  std::uniform_real_distribution<double> cosw(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, g.size() - 65);
  std::uniform_int_distribution<std::size_t> len(1, 300);
  std::uniform_int_distribution<std::uint64_t> word;

  for (int trial = 0; trial < 200; ++trial) {
    const geo::Vec3 v = geo::to_vec3(geo::LatLon{lat(rng), lon(rng)});
    const double a = cosw(rng), b = cosw(rng);
    const double cos_outer = std::min(a, b), cos_inner = std::max(a, b);
    const std::size_t begin = pick(rng);
    const std::size_t end = std::min(begin + len(rng), g.size());
    const std::size_t nwords = (g.size() + 63) / 64;
    std::vector<std::uint64_t> ws(nwords), wv(nwords);
    for (std::size_t i = 0; i < nwords; ++i) ws[i] = wv[i] = word(rng);
    const FoldPair& op = ops[trial % 2];
    op.scalar(centers, begin, end, v, cos_outer, cos_inner, ws.data());
    op.avx2(centers, begin, end, v, cos_outer, cos_inner, wv.data());
    EXPECT_EQ(ws, wv) << "trial " << trial << " [" << begin << "," << end
                      << ")";
  }
}

TEST(SimdKernels, AnnulusOpsTouchOnlyTheRun) {
  const Grid g(2.0);
  const geo::Vec3* centers = &g.center_vec(0);
  const std::size_t nwords = (g.size() + 63) / 64;
  const geo::Vec3 v = geo::to_vec3(geo::LatLon{10.0, 20.0});
  const FoldPair intersect = folds<detail::AnnulusOp::kIntersect>();
  for (const bool avx2 : {false, true}) {
    if (avx2 && !detail::cpu_has_avx2()) continue;
    // A run [70, 130) may only alter bits 70..129; everything else of the
    // prefilled pattern must survive intersect untouched.
    std::vector<std::uint64_t> w(nwords, 0xAAAAAAAAAAAAAAAAull);
    (avx2 ? intersect.avx2 : intersect.scalar)(centers, 70, 130, v, -0.5, 0.5,
                                               w.data());
    EXPECT_EQ(w[0], 0xAAAAAAAAAAAAAAAAull);
    // Bits of word 1 below position 6 (cells 64..69) are outside the run.
    EXPECT_EQ(w[1] & 0x3Full, 0xAAAAAAAAAAAAAAAAull & 0x3Full);
    // Word 2: cells 128..129 are inside the run, 130+ outside.
    EXPECT_EQ(w[2] & ~0x3ull, 0xAAAAAAAAAAAAAAAAull & ~0x3ull);
    for (std::size_t i = 3; i < nwords; ++i)
      EXPECT_EQ(w[i], 0xAAAAAAAAAAAAAAAAull) << i;
  }
}

}  // namespace
}  // namespace ageo::grid
