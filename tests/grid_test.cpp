// Unit tests for the grid module: raster, regions, fields, scratch arenas.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "geo/units.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/grid.hpp"
#include "grid/raster.hpp"
#include "grid/region.hpp"
#include "grid/scratch.hpp"

namespace ageo::grid {
namespace {

TEST(Grid, Construction) {
  Grid g(1.0);
  EXPECT_EQ(g.rows(), 180u);
  EXPECT_EQ(g.cols(), 360u);
  EXPECT_EQ(g.size(), 64800u);
  EXPECT_THROW(Grid(0.0), InvalidArgument);
  EXPECT_THROW(Grid(-1.0), InvalidArgument);
  EXPECT_THROW(Grid(7.0), InvalidArgument);   // does not divide 180
  EXPECT_THROW(Grid(31.0), InvalidArgument);  // too coarse
  EXPECT_NO_THROW(Grid(0.5));
  EXPECT_NO_THROW(Grid(2.0));
}

TEST(Grid, RejectsCellCountBeyondCellIndex) {
  // 0.001 degrees is 6.48e10 cells: refused before anything is allocated,
  // since cell indices are 32-bit.
  EXPECT_THROW(Grid(0.001), Error);
  EXPECT_THROW(Grid(0.001), InvalidArgument);
}

TEST(Grid, TotalAreaMatchesSphere) {
  for (double cell : {4.0, 2.0, 1.0}) {
    Grid g(cell);
    double total = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) total += g.cell_area_km2(i);
    EXPECT_NEAR(total / geo::earth_area_km2(), 1.0, 1e-9) << cell;
  }
}

TEST(Grid, CellAtCenterRoundTrip) {
  Grid g(1.0);
  for (std::size_t idx : {0u, 100u, 5000u, 64799u}) {
    geo::LatLon c = g.center(idx);
    EXPECT_EQ(g.cell_at(c), idx);
  }
}

TEST(Grid, CellAtEdges) {
  Grid g(1.0);
  // Poles and antimeridian map into valid cells.
  EXPECT_LT(g.cell_at({90.0, 0.0}), g.size());
  EXPECT_LT(g.cell_at({-90.0, 0.0}), g.size());
  EXPECT_LT(g.cell_at({0.0, -180.0}), g.size());
  EXPECT_LT(g.cell_at({0.0, 180.0}), g.size());
  // North pole is in the top row.
  EXPECT_EQ(g.row_of(g.cell_at({90.0, 0.0})), g.rows() - 1);
}

TEST(Grid, RowTrigMatchesThePlanExpressionBitForBit) {
  for (const double cell : {0.25, 1.0, 2.0}) {
    Grid g(cell);
    for (std::size_t r = 0; r < g.rows(); ++r) {
      const double latc = geo::deg_to_rad(g.row_lat_south(r) + cell / 2.0);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g.row_sin(r)),
                std::bit_cast<std::uint64_t>(std::sin(latc)))
          << "row " << r << " of the " << cell << " degree grid";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g.row_cos(r)),
                std::bit_cast<std::uint64_t>(std::cos(latc)))
          << "row " << r << " of the " << cell << " degree grid";
    }
  }
}

TEST(Grid, RowsInLatBand) {
  Grid g(1.0);
  auto [a, b] = g.rows_in_lat_band(-90.0, 90.0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 180u);
  auto [c, d] = g.rows_in_lat_band(0.0, 1.0);
  EXPECT_EQ(c, 90u);
  EXPECT_EQ(d, 91u);
  auto [e, f] = g.rows_in_lat_band(50.0, 40.0);  // inverted -> empty
  EXPECT_EQ(e, f);
}

TEST(Grid, PolarRowsAreSmall) {
  Grid g(1.0);
  // Polar cells are much smaller than equatorial ones.
  double polar = g.cell_area_km2(g.cell_at({89.5, 0.0}));
  double equatorial = g.cell_area_km2(g.cell_at({0.5, 0.0}));
  EXPECT_LT(polar, equatorial / 50.0);
}

TEST(Region, BasicOps) {
  Grid g(2.0);
  Region r(g);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.count(), 0u);
  r.set(5);
  r.set(100);
  EXPECT_EQ(r.count(), 2u);
  EXPECT_TRUE(r.test(5));
  EXPECT_FALSE(r.test(6));
  r.reset(5);
  EXPECT_EQ(r.count(), 1u);
  r.fill();
  EXPECT_EQ(r.count(), g.size());
  r.clear();
  EXPECT_TRUE(r.empty());
}

TEST(Region, SetAlgebra) {
  Grid g(2.0);
  Region a(g), b(g);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  Region i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(2));
  Region u = a | b;
  EXPECT_EQ(u.count(), 3u);
  Region d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
  EXPECT_TRUE(i.subset_of(u));
  EXPECT_FALSE(u.subset_of(i));
  EXPECT_TRUE(a.intersects(b));
  Region e(g);
  EXPECT_FALSE(a.intersects(e));
}

TEST(Region, GridMismatchThrows) {
  Grid g1(2.0), g2(1.0);
  Region a(g1), b(g2);
  EXPECT_THROW(a &= b, InvalidArgument);
  EXPECT_THROW(a.intersects(b), InvalidArgument);
}

TEST(Region, AreaAndCentroid) {
  Grid g(1.0);
  Region r = rasterize_cap(g, geo::Cap{{10.0, 20.0}, 500.0});
  EXPECT_FALSE(r.empty());
  // Area close to the analytic cap area.
  EXPECT_NEAR(r.area_km2(), geo::cap_area_km2(500.0),
              geo::cap_area_km2(500.0) * 0.15);
  auto c = r.centroid();
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->lat_deg, 10.0, 1.0);
  EXPECT_NEAR(c->lon_deg, 20.0, 1.0);
}

TEST(Region, EmptyCentroidAndDistance) {
  Grid g(2.0);
  Region r(g);
  EXPECT_FALSE(r.centroid().has_value());
  EXPECT_TRUE(std::isinf(r.distance_from_km({0, 0})));
}

TEST(Region, DistanceFrom) {
  Grid g(1.0);
  Region r = rasterize_cap(g, geo::Cap{{0.0, 0.0}, 300.0});
  EXPECT_DOUBLE_EQ(r.distance_from_km({0.0, 0.0}), 0.0);
  double d = r.distance_from_km({0.0, 10.0});  // ~1113 km from center
  EXPECT_GT(d, 600.0);
  EXPECT_LT(d, 1000.0);
}

TEST(Raster, CapCoversCenter) {
  Grid g(1.0);
  for (double lat : {-60.0, 0.0, 45.0, 80.0}) {
    Region r = rasterize_cap(g, geo::Cap{{lat, 100.0}, 250.0});
    EXPECT_TRUE(r.contains({lat, 100.0})) << lat;
  }
}

TEST(Raster, CapRespectRadius) {
  Grid g(1.0);
  geo::LatLon center{30.0, -40.0};
  Region r = rasterize_cap(g, geo::Cap{center, 1000.0});
  r.for_each_cell([&](std::size_t idx) {
    EXPECT_LE(geo::distance_km(center, g.center(idx)), 1000.0 + 1e-6);
  });
}

TEST(Raster, WholeEarthCap) {
  Grid g(4.0);
  Region r = rasterize_cap(
      g, geo::Cap{{0.0, 0.0}, geo::kEarthRadiusKm * std::numbers::pi});
  EXPECT_EQ(r.count(), g.size());
}

TEST(Raster, Ring) {
  Grid g(1.0);
  geo::LatLon center{0.0, 0.0};
  Region r = rasterize_ring(g, geo::Ring{center, 500.0, 1500.0});
  EXPECT_FALSE(r.contains(center));
  EXPECT_TRUE(r.contains(geo::destination(center, 90.0, 1000.0)));
  r.for_each_cell([&](std::size_t idx) {
    double d = geo::distance_km(center, g.center(idx));
    EXPECT_GE(d, 500.0 - 1e-6);
    EXPECT_LE(d, 1500.0 + 1e-6);
  });
}

TEST(Raster, DegenerateRing) {
  Grid g(2.0);
  // max < min: empty.
  Region r = rasterize_ring(g, geo::Ring{{0, 0}, 1000.0, 500.0});
  EXPECT_TRUE(r.empty());
  // Negative radius: empty.
  Region r2 = rasterize_cap(g, geo::Cap{{0, 0}, -5.0});
  EXPECT_TRUE(r2.empty());
}

TEST(Raster, Polygon) {
  Grid g(1.0);
  geo::Polygon box = geo::box_polygon(40.0, 10.0, 50.0, 20.0);
  Region r = rasterize_polygon(g, box);
  EXPECT_TRUE(r.contains({45.0, 15.0}));
  EXPECT_FALSE(r.contains({45.0, 25.0}));
  // 10x10 degree box at ~45N: about 100 cells * cos(45).
  EXPECT_NEAR(static_cast<double>(r.count()), 100.0, 30.0);
}

TEST(Raster, LatBand) {
  Grid g(1.0);
  Region r = rasterize_lat_band(g, -60.0, 85.0);
  EXPECT_TRUE(r.contains({0.0, 0.0}));
  EXPECT_TRUE(r.contains({84.0, 10.0}));
  EXPECT_FALSE(r.contains({87.0, 10.0}));
  EXPECT_FALSE(r.contains({-70.0, 10.0}));
}

TEST(Raster, AccumulateMask) {
  Grid g(2.0);
  std::vector<std::uint64_t> masks(g.size(), 0);
  detail::plan_for(nullptr, g, {0.0, 0.0})
      ->accumulate_annulus(0.0, 400.0, masks, 0);
  detail::plan_for(nullptr, g, {0.0, 2.0})
      ->accumulate_annulus(0.0, 400.0, masks, 1);
  std::size_t center_cell = g.cell_at({0.0, 1.0});
  EXPECT_EQ(masks[center_cell], 0b11u);
  const auto plan = detail::plan_for(nullptr, g, {0.0, 0.0});
  EXPECT_THROW(plan->accumulate_annulus(0.0, 10.0, masks, 64),
               InvalidArgument);
  std::vector<std::uint64_t> wrong(3, 0);
  EXPECT_THROW(plan->accumulate_annulus(0.0, 10.0, wrong, 0),
               InvalidArgument);
}

TEST(CapPlanCache, SignedZeroCentersAreDistinctKeys) {
  // Key equality compares the same bit patterns the hash mixes, so 0.0
  // and -0.0 are two keys, each found again on its next lookup.
  Grid g(2.0);
  CapPlanCache cache(8);
  const geo::LatLon plus{0.0, 0.0}, minus{0.0, -0.0};
  const auto a = cache.plan(g, plus);
  const auto b = cache.plan(g, minus);
  EXPECT_EQ(cache.plan(g, plus), a);
  EXPECT_EQ(cache.plan(g, minus), b);
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Field, UniformNormalize) {
  Grid g(4.0);
  Field f(g);
  EXPECT_TRUE(f.normalize());
  EXPECT_NEAR(f.total_mass(), 1.0, 1e-9);
}

TEST(Field, GaussianRingPeaksAtMu) {
  Grid g(1.0);
  Field f(g);
  geo::LatLon center{0.0, 0.0};
  f.multiply_gaussian_ring(center, 1000.0, 100.0);
  // Density at 1000 km should far exceed density at 0 or 3000 km.
  double at_mu = f.at(g.cell_at(geo::destination(center, 90.0, 1000.0)));
  double at_center = f.at(g.cell_at(center));
  double far = f.at(g.cell_at(geo::destination(center, 90.0, 3000.0)));
  EXPECT_GT(at_mu, at_center * 100.0);
  EXPECT_GT(at_mu, far * 100.0);
}

TEST(Field, TwoRingsIntersect) {
  Grid g(1.0);
  Field f(g);
  geo::LatLon a{0.0, 0.0}, b{0.0, 18.0};  // ~2000 km apart
  double d = geo::distance_km(a, b);
  f.multiply_gaussian_ring(a, d / 2.0, 150.0);
  f.multiply_gaussian_ring(b, d / 2.0, 150.0);
  ASSERT_TRUE(f.normalize());
  auto mode = f.mode();
  ASSERT_TRUE(mode.has_value());
  // The mode should be near the midpoint.
  geo::LatLon mid = geo::midpoint(a, b);
  EXPECT_LT(geo::distance_km(g.center(*mode), mid), 400.0);
}

TEST(Field, CredibleRegionMass) {
  Grid g(2.0);
  Field f(g);
  f.multiply_gaussian_ring({20.0, 30.0}, 500.0, 200.0);
  ASSERT_TRUE(f.normalize());
  Region r50 = f.credible_region(0.5);
  Region r95 = f.credible_region(0.95);
  EXPECT_GT(r95.count(), r50.count());
  EXPECT_TRUE(r50.subset_of(r95));
  // Accumulated mass of the 95% region is at least 0.95.
  double mass = 0.0;
  r95.for_each_cell(
      [&](std::size_t i) { mass += f.at(i) * g.cell_area_km2(i); });
  EXPECT_GE(mass, 0.95 - 1e-9);
}

TEST(Field, ApplyMaskZeroes) {
  Grid g(2.0);
  Field f(g);
  Region mask(g);
  mask.set(10);
  f.apply_mask(mask);
  EXPECT_GT(f.at(10), 0.0);
  EXPECT_EQ(f.at(11), 0.0);
  EXPECT_TRUE(f.normalize());
  Region cr = f.credible_region(1.0);
  EXPECT_EQ(cr.count(), 1u);
}

TEST(Field, ZeroMassDoesNotNormalize) {
  Grid g(2.0);
  Field f(g);
  Region empty_mask(g);
  f.apply_mask(empty_mask);
  EXPECT_FALSE(f.normalize());
  EXPECT_TRUE(f.credible_region(0.95).empty());
  EXPECT_FALSE(f.mode().has_value());
}

TEST(Field, Validation) {
  Grid g(2.0);
  Field f(g);
  EXPECT_THROW(f.multiply_gaussian_ring({0, 0}, 100.0, 0.0),
               InvalidArgument);
  EXPECT_THROW(f.credible_region(0.0), InvalidArgument);
  EXPECT_THROW(f.credible_region(1.5), InvalidArgument);
}

// ---- Scratch arenas: every kind is handed out in its documented state,
// whatever the previous tenant left behind. Each case runs against the
// calling thread's arena and against the null arena (plain allocation).

std::vector<Scratch*> arenas() { return {&Scratch::tls(), nullptr}; }

bool all_zero(const std::vector<std::uint64_t>& v) {
  for (std::uint64_t w : v)
    if (w != 0) return false;
  return true;
}

/// Take `n` words, write ~0 over every range of `dirt` (marking them when
/// `track`), return the buffer, then take `m` words: they must be zero.
/// An arena must hand the same buffer back when it is large enough.
void expect_words_cleared(Scratch* arena, std::size_t n, std::size_t m,
                          const std::vector<std::pair<std::size_t,
                                                      std::size_t>>& dirt,
                          bool track) {
  const std::uint64_t* first = nullptr;
  std::size_t capacity = 0;
  {
    auto lease = Scratch::words(arena, n);
    ASSERT_EQ(lease.get().size(), n);
    ASSERT_TRUE(all_zero(lease.get()));
    for (const auto& [b, e] : dirt) {
      for (std::size_t i = b; i < e; ++i) lease.get()[i] = ~0ULL;
      if (track) lease.mark_dirty(b, e);
    }
    first = lease.get().data();
    capacity = lease.get().capacity();
  }
  auto lease = Scratch::words(arena, m);
  ASSERT_EQ(lease.get().size(), m);
  EXPECT_TRUE(all_zero(lease.get()));
  if (arena && m <= capacity) {
    EXPECT_EQ(lease.get().data(), first);
  }
}

TEST(Scratch, WordsComeBackZeroed) {
  for (Scratch* arena : arenas()) {
    SCOPED_TRACE(arena ? "arena" : "null arena");
    // Unsorted marked ranges that overlap or nest.
    expect_words_cleared(
        arena, 1000, 1000,
        {{500, 600}, {100, 300}, {250, 520}, {120, 180}, {900, 1000}}, true);
    // More ranges than are tracked: the envelope still covers them all.
    std::vector<std::pair<std::size_t, std::size_t>> many;
    for (std::size_t i = 0; i < 100; ++i) many.emplace_back(i * 10, i * 10 + 3);
    expect_words_cleared(arena, 1000, 1000, many, true);
    // An untracked tenancy may have written anywhere.
    expect_words_cleared(arena, 1000, 1000, {{0, 1000}}, false);
    // Shrink, then grow past the words the shrunk tenancy never saw.
    expect_words_cleared(arena, 1000, 100, {{0, 1000}}, false);
    expect_words_cleared(arena, 100, 2000, {{20, 60}}, true);
    EXPECT_TRUE(Scratch::word_buf(arena).get().empty());
  }
}

TEST(Scratch, RegionsComeBackEmptyOnTheNewGrid) {
  const Grid coarse(2.0), fine(1.0);
  for (Scratch* arena : arenas()) {
    SCOPED_TRACE(arena ? "arena" : "null arena");
    Scratch::region(arena, fine).get().fill();
    auto lease = Scratch::region(arena, coarse);
    EXPECT_EQ(lease.get().grid(), &coarse);
    EXPECT_TRUE(lease.get().empty());
    EXPECT_EQ(lease.get().words().size(), Region(coarse).words().size());
    lease.get().fill();
  }
  for (Scratch* arena : arenas()) {
    auto lease = Scratch::region(arena, fine);
    EXPECT_EQ(lease.get().grid(), &fine);
    EXPECT_EQ(lease.get(), Region(fine));
  }
}

TEST(Scratch, FieldsComeBackUniformOrAsTheMaskedStart) {
  const Grid coarse(2.0), fine(1.0);
  Region mask(fine);
  mask.set_span(100, 900);
  mask.set(5000);
  Field masked(fine);
  masked.apply_mask(mask);
  for (Scratch* arena : arenas()) {
    SCOPED_TRACE(arena ? "arena" : "null arena");
    {
      auto lease = Scratch::field(arena, coarse);
      lease.get().multiply_gaussian_ring({20.0, 30.0}, 500.0, 200.0);
      ASSERT_TRUE(lease.get().normalize());
    }
    {
      auto lease = Scratch::field(arena, fine);
      ASSERT_EQ(lease.get().grid(), &fine);
      for (std::size_t c = 0; c < fine.size(); ++c)
        ASSERT_EQ(lease.get().at(c), 1.0) << c;
      lease.get().at(7) = 0.25;
    }
    auto lease = Scratch::field(arena, fine, &mask);
    ASSERT_EQ(lease.get().grid(), &fine);
    for (std::size_t c = 0; c < fine.size(); ++c) {
      ASSERT_EQ(std::signbit(lease.get().at(c)), std::signbit(masked.at(c)));
      ASSERT_EQ(lease.get().at(c), masked.at(c)) << c;
    }
  }
}

TEST(Scratch, VectorsComeBackEmptyWithTheirCapacity) {
  for (Scratch* arena : arenas()) {
    SCOPED_TRACE(arena ? "arena" : "null arena");
    Scratch::indices(arena).get().assign(3000, 7u);
    Scratch::doubles(arena).get().assign(3000, 0.5);
    auto idx = Scratch::indices(arena);
    auto dbl = Scratch::doubles(arena);
    EXPECT_TRUE(idx.get().empty());
    EXPECT_TRUE(dbl.get().empty());
    if (arena) {
      EXPECT_GE(idx.get().capacity(), 3000u);
      EXPECT_GE(dbl.get().capacity(), 3000u);
    }
  }
}

TEST(Scratch, ExitingThreadDonatesItsBuffersToTheNextThread) {
  // A thread's arena donates its pools when the thread exits; the next
  // thread adopts them before allocating, so the same tenancy on a fresh
  // thread allocates nothing.
  const Grid g(1.0);
  constexpr std::size_t kWords = 50000;
  const auto tenancy = [&](std::size_t words) {
    Scratch* arena = &Scratch::tls();
    auto w = Scratch::words(arena, words);
    auto r = Scratch::region(arena, g);
    auto f = Scratch::field(arena, g);
    auto i = Scratch::indices(arena);
    i.get().resize(3000);
    auto d = Scratch::doubles(arena);
    d.get().resize(3000);
  };
  std::thread(tenancy, kWords).join();
  const std::uint64_t before = Scratch::aggregate().buffers_allocated;
  std::thread(tenancy, kWords).join();
  EXPECT_EQ(Scratch::aggregate().buffers_allocated, before);
  // Not vacuous: a tenancy that outgrows the donated buffer is counted.
  std::thread(tenancy, 4 * kWords).join();
  EXPECT_GT(Scratch::aggregate().buffers_allocated, before);
}

// Parameterized: cap rasterization is conservative across sizes and
// latitudes — every point strictly inside by half a diagonal is covered.
class CapSweep : public ::testing::TestWithParam<std::tuple<double, double>> {
};

TEST_P(CapSweep, CoversInterior) {
  auto [lat, radius] = GetParam();
  Grid g(1.0);
  geo::LatLon center{lat, 13.0};
  Region r = rasterize_cap(g, geo::Cap{center, radius});
  // Points well inside the cap are covered.
  for (double frac : {0.0, 0.3, 0.6}) {
    for (double bearing : {0.0, 90.0, 180.0, 270.0}) {
      geo::LatLon p = geo::destination(center, bearing, radius * frac);
      EXPECT_TRUE(r.contains(p) ||
                  geo::distance_km(p, g.center(g.cell_at(p))) >
                      radius * (1.0 - frac))
          << "lat=" << lat << " r=" << radius << " b=" << bearing;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CapSweep,
    ::testing::Combine(::testing::Values(-50.0, 0.0, 40.0, 70.0),
                       ::testing::Values(300.0, 1000.0, 4000.0)));

}  // namespace
}  // namespace ageo::grid
