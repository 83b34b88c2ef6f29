// Unit tests for the multilateration engines.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "grid/raster.hpp"
#include "mlat/multilateration.hpp"
#include "oracles.hpp"

namespace ageo::mlat {
namespace {

// The paper's Figure 1: within 500 km of Bourges, 500 km of Cromer, and
// 800 km of Randers lies (roughly) Belgium.
TEST(Disks, Figure1Belgium) {
  grid::Grid g(0.5);
  std::vector<DiskConstraint> disks{
      {{47.08, 2.40}, 500.0},   // Bourges
      {{52.93, 1.30}, 500.0},   // Cromer
      {{56.46, 10.04}, 800.0},  // Randers
  };
  grid::Region r = intersect_disks(g, disks);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains({50.85, 4.35}));   // Brussels
  EXPECT_FALSE(r.contains({40.42, -3.70})); // Madrid
  EXPECT_FALSE(r.contains({52.23, 21.01})); // Warsaw
  auto c = r.centroid();
  ASSERT_TRUE(c.has_value());
  EXPECT_LT(geo::distance_km(*c, {50.5, 4.5}), 450.0);
}

TEST(Disks, EmptyOnInconsistent) {
  grid::Grid g(1.0);
  std::vector<DiskConstraint> disks{
      {{0.0, 0.0}, 300.0},
      {{0.0, 90.0}, 300.0},  // ~10000 km away: cannot intersect
  };
  EXPECT_TRUE(intersect_disks(g, disks).empty());
}

TEST(Disks, MaskClips) {
  grid::Grid g(1.0);
  grid::Region mask = grid::rasterize_lat_band(g, 0.0, 90.0);  // north only
  std::vector<DiskConstraint> disks{{{0.0, 10.0}, 1500.0}};
  grid::Region r = intersect_disks(g, disks, &mask);
  EXPECT_FALSE(r.empty());
  r.for_each_cell([&](std::size_t idx) {
    EXPECT_GE(g.center(idx).lat_deg, 0.0);
  });
}

TEST(Disks, NoConstraintsGiveMask) {
  grid::Grid g(2.0);
  grid::Region mask = grid::rasterize_lat_band(g, -10.0, 10.0);
  grid::Region r = intersect_disks(g, {}, &mask);
  EXPECT_EQ(r.count(), mask.count());
}

TEST(Disks, PaddingIsConservative) {
  grid::Grid g(1.0);
  // A disk whose radius ends just short of a cell center: padding keeps
  // the cell.
  geo::LatLon center{0.0, 0.0};
  geo::LatLon truth = geo::destination(center, 90.0, 520.0);
  std::vector<DiskConstraint> disks{{center, 500.0}};
  grid::Region r = intersect_disks(g, disks);
  // Any point within the radius + half diagonal is still covered.
  EXPECT_TRUE(r.contains(truth));
}

TEST(Rings, Basic) {
  grid::Grid g(1.0);
  geo::LatLon a{0.0, 0.0}, b{0.0, 20.0};
  double d = geo::distance_km(a, b);
  std::vector<RingConstraint> rings{
      {a, d / 2.0 - 300.0, d / 2.0 + 300.0},
      {b, d / 2.0 - 300.0, d / 2.0 + 300.0},
  };
  grid::Region r = intersect_rings(g, rings);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains(geo::midpoint(a, b)));
  EXPECT_FALSE(r.contains(a));
}

TEST(Rings, ValidatesOrdering) {
  grid::Grid g(2.0);
  std::vector<RingConstraint> rings{{{0.0, 0.0}, 500.0, 100.0}};
  EXPECT_THROW(intersect_rings(g, rings), InvalidArgument);
}

TEST(MlatTest, IntersectRingsRejectsInvalidRingAfterEmpty) {
  // The first two rings share no cell, so the intersection is empty
  // before the malformed third ring is reached. The list is still
  // rejected, with or without a plan cache — the same contract as the
  // subset engine's ring overload.
  grid::Grid g(2.0);
  grid::CapPlanCache cache(8);
  const std::vector<RingConstraint> rings{{{40.0, -100.0}, 0.0, 200.0},
                                          {{-30.0, 120.0}, 0.0, 200.0},
                                          {{0.0, 0.0}, 500.0, 100.0}};
  EXPECT_THROW(intersect_rings(g, rings), InvalidArgument);
  EXPECT_THROW(intersect_rings(g, rings, nullptr, &cache), InvalidArgument);
}

TEST(MlatTest, WholeSphereAnnuliKeepEveryCell) {
  // The intersect kernel leaves out annuli that cover the whole sphere
  // (inner 0, outer past the antipode). One that reaches the antipode
  // but has a hole still cuts, in the row kernels and in the sparse
  // tail alike; both must match the dense oracle.
  grid::Grid g(2.0);
  grid::CapPlanCache cache(8);
  const geo::LatLon c{30.0, 40.0};
  const grid::Region band = grid::rasterize_lat_band(g, -60.0, 70.0);
  const std::vector<RingConstraint> whole{{c, 0.0, 30000.0}};
  const std::vector<RingConstraint> holed{{c, 3000.0, 30000.0}};
  const std::vector<RingConstraint> tail{
      {c, 3000.0, 30000.0}, {geo::destination(c, 90.0, 2500.0), 0.0, 1500.0}};
  for (grid::CapPlanCache* pc : {static_cast<grid::CapPlanCache*>(nullptr),
                                 &cache}) {
    EXPECT_EQ(intersect_rings(g, whole, nullptr, pc).count(), g.size());
    EXPECT_EQ(intersect_rings(g, whole, &band, pc), band);
    for (const auto* rings : {&holed, &tail}) {
      const grid::Region got = intersect_rings(g, *rings, nullptr, pc);
      EXPECT_EQ(got, reference::largest_consistent_subset(g, *rings).region);
      EXPECT_FALSE(got.contains(c));
    }
  }
}

TEST(MlatTest, GaussianRingsRejectNonFiniteParameters) {
  // Each bad ring would multiply some cell by 0 * inf = NaN, and its
  // support bounds mu +- W would reach the annulus row-band math of the
  // start region. Every Spotter entry rejects it, cache or not.
  grid::Grid g(2.0);
  grid::CapPlanCache cache(8);
  const GaussianConstraint good{{10.0, 20.0}, 1000.0, 100.0};
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<GaussianConstraint> bad{
      {{0.0, 0.0}, inf, 100.0},     // mu = +inf
      {{0.0, 0.0}, -inf, 100.0},    // mu = -inf
      {{0.0, 0.0}, 1000.0, inf},    // sigma = +inf
      {{0.0, 0.0}, 1000.0, 1e-200}, // 1/(2 sigma^2) = +inf
      {{0.0, 0.0}, 1000.0, 1e200},  // 1/(2 sigma^2) = 0
  };
  for (grid::CapPlanCache* pc : {static_cast<grid::CapPlanCache*>(nullptr),
                                 &cache}) {
    grid::Region seed(g);
    grid::Field posterior;
    EXPECT_NO_THROW(spotter_start(g, {&good, 1}, nullptr, pc, nullptr,
                                  nullptr, seed, posterior));
    for (const GaussianConstraint& b : bad) {
      const std::vector<GaussianConstraint> rings{good, b};
      grid::Region s(g);
      grid::Field p(g);
      EXPECT_THROW(
          spotter_start(g, rings, nullptr, pc, nullptr, nullptr, s, p),
          InvalidArgument)
          << b.mu_km << " " << b.sigma_km;
      // The list is vetted before any multiply: the good ring is not in
      // either field (a multiplied field would hold a live list).
      EXPECT_EQ(p.live_cells(), nullptr);
      grid::Field f(g);
      EXPECT_THROW(multiply_rings_into(g, rings, pc, f), InvalidArgument)
          << b.mu_km << " " << b.sigma_km;
      EXPECT_EQ(f.live_cells(), nullptr);
      grid::Field h(g);
      multiply_rings_into(g, {&good, 1}, pc, h);
      EXPECT_THROW(multiply_rings_into(g, {&b, 1}, pc, h), InvalidArgument)
          << b.mu_km << " " << b.sigma_km;
      grid::Field k(g);
      EXPECT_THROW(k.multiply_gaussian_ring(b.center, b.mu_km, b.sigma_km),
                   InvalidArgument)
          << b.mu_km << " " << b.sigma_km;
    }
  }
}

TEST(Gaussian, PosteriorPeaksAtTruth) {
  grid::Grid g(1.0);
  geo::LatLon truth{45.0, 10.0};
  std::vector<geo::LatLon> landmarks{
      {48.0, 2.0}, {52.0, 13.0}, {41.0, 12.0}, {50.0, 20.0}};
  std::vector<GaussianConstraint> rings;
  for (const auto& lm : landmarks)
    rings.push_back({lm, geo::distance_km(lm, truth), 150.0});
  grid::Field f = reference::fuse_gaussian_rings(g, rings);
  auto mode = f.mode();
  ASSERT_TRUE(mode.has_value());
  EXPECT_LT(geo::distance_km(g.center(*mode), truth), 300.0);
  grid::Region cr = f.credible_region(0.95);
  EXPECT_TRUE(cr.contains(truth));
}

TEST(Gaussian, MaskZeroesOutside) {
  grid::Grid g(2.0);
  grid::Region mask = grid::rasterize_lat_band(g, -30.0, 30.0);
  std::vector<GaussianConstraint> rings{{{0.0, 0.0}, 1000.0, 300.0}};
  grid::Field f = reference::fuse_gaussian_rings(g, rings, &mask);
  grid::Region cr = f.credible_region(0.99);
  cr.for_each_cell([&](std::size_t idx) {
    EXPECT_LE(std::abs(g.center(idx).lat_deg), 30.0);
  });
}

TEST(Subset, AllConsistentUsesAll) {
  grid::Grid g(1.0);
  geo::LatLon truth{30.0, 30.0};
  std::vector<DiskConstraint> disks;
  for (double bearing : {0.0, 90.0, 180.0, 270.0}) {
    geo::LatLon lm = geo::destination(truth, bearing, 1500.0);
    disks.push_back({lm, 1700.0});
  }
  auto res = largest_consistent_subset(g, disks);
  EXPECT_EQ(res.n_used, 4u);
  EXPECT_TRUE(res.region.contains(truth));
  for (bool u : res.used) EXPECT_TRUE(u);
}

TEST(Subset, DropsUnderestimatingDisk) {
  grid::Grid g(1.0);
  geo::LatLon truth{30.0, 30.0};
  std::vector<DiskConstraint> disks;
  for (double bearing : {0.0, 90.0, 180.0, 270.0}) {
    geo::LatLon lm = geo::destination(truth, bearing, 1500.0);
    disks.push_back({lm, 1700.0});
  }
  // A rogue disk far away that cannot intersect the others: the paper's
  // underestimation scenario.
  disks.push_back({{-30.0, -150.0}, 500.0});
  auto res = largest_consistent_subset(g, disks);
  EXPECT_EQ(res.n_used, 4u);
  EXPECT_TRUE(res.region.contains(truth));
  EXPECT_FALSE(res.used[4]);
  // Plain intersection would have failed entirely.
  EXPECT_TRUE(intersect_disks(g, disks).empty());
}

TEST(Subset, EmptyInput) {
  grid::Grid g(2.0);
  auto res = largest_consistent_subset(g, std::span<const DiskConstraint>{});
  EXPECT_EQ(res.n_used, 0u);
  EXPECT_EQ(res.region.count(), g.size());
}

TEST(Subset, ZeroCoverage) {
  grid::Grid g(2.0);
  std::vector<DiskConstraint> disks{{{0.0, 0.0}, -10.0}};  // degenerate
  auto res = largest_consistent_subset(g, disks);
  EXPECT_EQ(res.n_used, 0u);
  EXPECT_TRUE(res.region.empty());
}

TEST(Subset, RespectsMask) {
  grid::Grid g(1.0);
  // One disk in the north, one in the south; mask limits to north.
  std::vector<DiskConstraint> disks{
      {{45.0, 10.0}, 800.0},
      {{-45.0, 10.0}, 800.0},
  };
  grid::Region mask = grid::rasterize_lat_band(g, 0.0, 90.0);
  auto res = largest_consistent_subset(g, disks, &mask);
  EXPECT_EQ(res.n_used, 1u);
  EXPECT_TRUE(res.used[0]);
  EXPECT_FALSE(res.used[1]);
  res.region.for_each_cell([&](std::size_t idx) {
    EXPECT_GE(g.center(idx).lat_deg, 0.0);
  });
}

TEST(Subset, MoreThanSixtyFourConstraintsSupported) {
  // The coverage masks are multi-word, so the engine takes any number of
  // constraints. 70 consistent disks around one point plus 5 outliers:
  // the maximum subset is exactly the consistent 70.
  grid::Grid g(4.0);
  std::vector<DiskConstraint> disks;
  for (int i = 0; i < 70; ++i) {
    disks.push_back({{0.5 * (i % 7), 0.5 * (i % 5)}, 2000.0});
  }
  for (int i = 0; i < 5; ++i) {
    disks.push_back({{-60.0, 150.0}, 300.0});  // far away, inconsistent
  }
  auto res = largest_consistent_subset(g, disks);
  EXPECT_EQ(res.n_used, 70u);
  ASSERT_EQ(res.used.size(), 75u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(res.used[i]) << i;
  for (std::size_t i = 70; i < 75; ++i) EXPECT_FALSE(res.used[i]) << i;
  EXPECT_FALSE(res.region.empty());
  res.region.for_each_cell([&](std::size_t idx) {
    // Every region cell is inside all 70 consistent disks (up to the
    // conservative rasterization pad).
    const auto c = g.center(idx);
    for (std::size_t i = 0; i < 70; ++i) {
      EXPECT_LE(geo::distance_km(c, disks[i].center),
                disks[i].max_km + conservative_pad_km(g) + 1e-9);
    }
  });
}

TEST(Subset, MaximalityProperty) {
  // The subset the engine reports cannot be extended: no unused disk
  // covers any cell of the final region... (it may cover other cells of
  // other maximum subsets, but then it would have been in one). We check
  // the weaker, exact property: n_used equals the max per-cell coverage.
  grid::Grid g(1.0);
  std::vector<DiskConstraint> disks;
  for (int i = 0; i < 12; ++i) {
    double lat = -40.0 + 7.0 * i;
    disks.push_back({{lat, 10.0 + (i % 3) * 40.0}, 1200.0 + 150.0 * i});
  }
  auto res = largest_consistent_subset(g, disks);
  // Recompute max coverage by brute force over region cells.
  std::size_t max_cover = 0;
  for (std::size_t idx = 0; idx < g.size(); ++idx) {
    std::size_t c = 0;
    const double pad = conservative_pad_km(g);
    for (const auto& d : disks)
      if (geo::distance_km(d.center, g.center(idx)) <= d.max_km + pad) ++c;
    max_cover = std::max(max_cover, c);
  }
  EXPECT_EQ(res.n_used, max_cover);
}

}  // namespace
}  // namespace ageo::mlat
