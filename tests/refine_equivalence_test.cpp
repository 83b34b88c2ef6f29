// Equivalence suite for the multi-resolution refinement driver.
//
// The driver's whole contract is "bit-identical to the flat solve, just
// faster", so every pin here is on raw Region words:
//   1. Window plumbing: bounding windows (including antimeridian wrap
//      and pole-touching bands) against brute-force oracles.
//   2. The windowed annulus kernel against materialize-then-AND inside
//      arbitrary windows.
//   3. The containment property: every cell of the flat solve lies in
//      the seed and window the coarse ladder derives (the coarsening
//      lemma).
//   4. Refined intersect / largest-consistent-subset / Spotter
//      posterior against their flat counterparts, and the Spotter start
//      region (mask ∩ every ring's hard support) against the
//      mask-started posterior (and the intersects
//      against a materialize-then-AND oracle), across schedules, masks,
//      cache and arena variants — consistent AND inconsistent constraint
//      sets (the latter exercising the coarse-empty early exit and the
//      ladder's coverage sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/raster.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"
#include "mlat/detail.hpp"
#include "mlat/multilateration.hpp"
#include "mlat/refine.hpp"
#include "oracles.hpp"

namespace ageo::mlat {
namespace {

geo::LatLon random_point(Rng& rng) {
  return {rng.uniform(-85.0, 85.0), rng.uniform(-180.0, 180.0)};
}

/// The Spotter solve at the mlat level, as algos::SpotterGeolocator runs
/// it without a memo: a pooled posterior started from spotter_start's
/// region takes every ring, is normalised and cut at `mass`.
grid::Region spotter_cut(const grid::Grid& g,
                         std::span<const GaussianConstraint> rings,
                         double mass, const grid::Region* mask,
                         grid::CapPlanCache* cache, grid::Scratch* scratch,
                         const RefineContext* refine = nullptr) {
  auto seed = grid::Scratch::region(scratch, g);
  auto posterior = grid::Scratch::field(scratch);
  spotter_start(g, rings, mask, cache, scratch, refine, seed.get(),
                posterior.get());
  posterior.get().normalize();
  return posterior.get().credible_region(mass);
}

/// The mask-started posterior with its rings served through `cache`:
/// the reference fuse's start and arithmetic, cached tables' distances.
grid::Field masked_posterior(const grid::Grid& g,
                             std::span<const GaussianConstraint> rings,
                             const grid::Region* mask,
                             grid::CapPlanCache* cache) {
  grid::Field f(g);
  if (mask) f.apply_mask(*mask);
  multiply_rings_into(g, rings, cache, f);
  f.normalize();
  return f;
}

std::vector<DiskConstraint> clustered_disks(Rng& rng, std::size_t n,
                                            const geo::LatLon& target) {
  // Disks that all contain `target` (consistent by construction).
  std::vector<DiskConstraint> disks;
  disks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::LatLon lm = random_point(rng);
    const double d = geo::distance_km(lm, target);
    disks.push_back({lm, d + rng.uniform(50.0, 800.0)});
  }
  return disks;
}

std::vector<RingConstraint> clustered_rings(Rng& rng, std::size_t n,
                                            const geo::LatLon& target) {
  std::vector<RingConstraint> rings;
  rings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::LatLon lm = random_point(rng);
    const double d = geo::distance_km(lm, target);
    rings.push_back({lm, std::max(0.0, d - rng.uniform(100.0, 600.0)),
                     d + rng.uniform(100.0, 600.0)});
  }
  return rings;
}

/// Independent oracle for the intersect solves: the mask (or full grid)
/// ANDed with each padded annulus, materialized by the one-shot
/// rasterizer, in input order.
template <typename Constraint, typename Bounds>
grid::Region materialized(const grid::Grid& g,
                          const std::vector<Constraint>& cs,
                          const grid::Region* mask, Bounds&& bounds) {
  grid::Region out(g);
  if (mask)
    out = *mask;
  else
    out.fill();
  const double pad = conservative_pad_km(g);
  for (const auto& c : cs) {
    const auto [inner, outer] = bounds(c, pad);
    out &= inner <= 0.0 ? grid::rasterize_cap(g, geo::Cap{c.center, outer})
                        : grid::rasterize_ring(
                              g, geo::Ring{c.center, inner, outer});
  }
  return out;
}

grid::Region materialized_disks(const grid::Grid& g,
                                const std::vector<DiskConstraint>& disks,
                                const grid::Region* mask) {
  return materialized(g, disks, mask, [](const DiskConstraint& d, double pad) {
    return std::pair{0.0, d.max_km + pad};
  });
}

grid::Region materialized_rings(const grid::Grid& g,
                                const std::vector<RingConstraint>& rings,
                                const grid::Region* mask) {
  return materialized(g, rings, mask, [](const RingConstraint& r, double pad) {
    return std::pair{std::max(0.0, r.min_km - pad), r.max_km + pad};
  });
}

// ---------------------------------------------------------------------
// 1. Window plumbing
// ---------------------------------------------------------------------

TEST(Window, FullWindowAndBasics) {
  grid::Grid g(2.0);
  const grid::Window w = grid::full_window(g);
  EXPECT_TRUE(w.is_full(g));
  EXPECT_EQ(w.cells(), g.size());
  EXPECT_FALSE(w.wraps(g.cols()));
  for (std::size_t idx : {std::size_t{0}, g.size() / 2, g.size() - 1})
    EXPECT_TRUE(w.contains(g, idx));
}

TEST(Window, BoundingWindowOfSingleCell) {
  grid::Grid g(2.0);
  grid::Region r(g);
  const std::size_t idx = g.index(17, 42);
  r.set(idx);
  const auto w = grid::bounding_window(r);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->r0, 17u);
  EXPECT_EQ(w->r1, 18u);
  EXPECT_EQ(w->c0, 42u);
  EXPECT_EQ(w->width, 1u);
}

TEST(Window, BoundingWindowOfEmptyRegionIsNullopt) {
  grid::Grid g(2.0);
  grid::Region r(g);
  EXPECT_FALSE(grid::bounding_window(r).has_value());
}

TEST(Window, BoundingWindowWrapsAntimeridian) {
  grid::Grid g(1.0);  // 360 columns
  grid::Region r(g);
  // A blob hugging longitude 180: columns 358, 359, 0, 1.
  for (std::size_t c : {std::size_t{358}, std::size_t{359}, std::size_t{0},
                        std::size_t{1}})
    r.set(g.index(90, c));
  const auto w = grid::bounding_window(r);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->c0, 358u);
  EXPECT_EQ(w->width, 4u);
  EXPECT_TRUE(w->wraps(g.cols()));
  for (std::size_t c : {std::size_t{358}, std::size_t{1}})
    EXPECT_TRUE(w->contains(g, g.index(90, c)));
  EXPECT_FALSE(w->contains(g, g.index(90, 100)));
}

TEST(Window, BoundingWindowMatchesBruteForceMinimalCover) {
  grid::Grid g(2.0);
  Rng rng(20260809, "bounding_brute");
  const std::size_t cols = g.cols();
  for (int iter = 0; iter < 40; ++iter) {
    grid::Region r(g);
    std::vector<bool> occ(cols, false);
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 12.0));
    for (int i = 0; i < n; ++i) {
      const auto row = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(g.rows() - 1)));
      const auto col =
          static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(cols)));
      r.set(g.index(row, col % cols));
      occ[col % cols] = true;
    }
    const auto w = grid::bounding_window(r);
    ASSERT_TRUE(w.has_value());
    // Every set cell is inside, and the width is the brute-force minimal
    // circular cover (cols minus the largest circular empty gap).
    r.for_each_cell(
        [&](std::size_t idx) { EXPECT_TRUE(w->contains(g, idx)); });
    std::size_t best_gap = 0;
    for (std::size_t start = 0; start < cols; ++start) {
      std::size_t gap = 0;
      while (gap < cols && !occ[(start + gap) % cols]) ++gap;
      best_gap = std::max(best_gap, gap);
    }
    EXPECT_EQ(w->width, cols - best_gap) << "iter=" << iter;
  }
}

TEST(Window, ExpandClampsRowsAndWrapsColumns) {
  grid::Grid g(2.0);  // 90 rows, 180 cols
  // Pole-touching: row clamp at both ends.
  grid::Window w{1, 89, 10, 5};
  grid::Window e = grid::expand_window(w, g, 2);
  EXPECT_EQ(e.r0, 0u);
  EXPECT_EQ(e.r1, 90u);
  EXPECT_EQ(e.c0, 8u);
  EXPECT_EQ(e.width, 9u);
  // Wrap creation: margin pushes c0 below zero.
  grid::Window lo{10, 20, 1, 4};
  e = grid::expand_window(lo, g, 3);
  EXPECT_EQ(e.c0, 178u);
  EXPECT_EQ(e.width, 10u);
  EXPECT_TRUE(e.wraps(g.cols()));
  // Full-width collapse when the grown interval meets itself.
  grid::Window wide{0, 10, 0, 176};
  e = grid::expand_window(wide, g, 2);
  EXPECT_EQ(e.width, g.cols());
  EXPECT_EQ(e.c0, 0u);
}

TEST(Window, MapWindowScalesByIntegerRatio) {
  grid::Grid coarse(2.0), fine(0.5);
  grid::Window w{3, 7, 170, 12};  // wraps: 170 + 12 > 180
  const grid::Window m = grid::map_window(w, coarse, fine);
  EXPECT_EQ(m.r0, 12u);
  EXPECT_EQ(m.r1, 28u);
  EXPECT_EQ(m.c0, 680u);
  EXPECT_EQ(m.width, 48u);
  // The mapped window covers precisely the fine cells under the coarse
  // ones: spot-check the membership correspondence.
  Rng rng(20260809, "map_window");
  for (int i = 0; i < 200; ++i) {
    const auto fr = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(fine.rows() - 1)));
    const auto fc = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(fine.cols() - 1)));
    EXPECT_EQ(m.contains(fine, fine.index(fr, fc)),
              w.contains(coarse, coarse.index(fr / 4, fc / 4)))
        << "fr=" << fr << " fc=" << fc;
  }
  EXPECT_THROW(grid::map_window(w, fine, coarse), InvalidArgument);
}

TEST(Window, WindowRegionIntoRespectsMask) {
  grid::Grid g(2.0);
  const grid::Region mask = grid::rasterize_lat_band(g, -30.0, 30.0);
  grid::Window w{20, 50, 175, 10};  // wraps
  grid::Region out(g);
  grid::window_region_into(g, w, &mask, out);
  out.for_each_cell([&](std::size_t idx) {
    EXPECT_TRUE(w.contains(g, idx));
    EXPECT_TRUE(mask.test(idx));
  });
  // And without mask: exactly the window cells.
  grid::Region plain(g);
  grid::window_region_into(g, w, nullptr, plain);
  std::size_t count = 0;
  plain.for_each_cell([&](std::size_t) { ++count; });
  EXPECT_EQ(count, w.cells());
}

// ---------------------------------------------------------------------
// 2. Windowed annulus kernel vs materialize-then-AND
// ---------------------------------------------------------------------

TEST(WindowedKernel, MatchesMaterializedInsideArbitraryWindows) {
  grid::Grid g(1.0);
  grid::CapPlanCache cache(64);
  Rng rng(20260809, "windowed_kernel");
  const std::size_t rows = g.rows(), cols = g.cols();
  for (int iter = 0; iter < 80; ++iter) {
    const geo::LatLon c = random_point(rng);
    auto plan = cache.plan(g, c);
    const double outer = rng.uniform(20.0, 12000.0);
    const double inner = (iter % 3 == 0) ? 0.0 : rng.uniform(0.0, outer);

    // Random window; every few iterations force an edge shape.
    grid::Window win;
    switch (iter % 5) {
      case 0:  // pole-touching band
        win = {0, 1 + static_cast<std::size_t>(rng.uniform(0.0, 30.0)), 0,
               cols};
        break;
      case 1:  // wrapped narrow window
        win = {rows / 4, 3 * rows / 4, cols - 5,
               10 + static_cast<std::size_t>(rng.uniform(0.0, 40.0))};
        break;
      case 2:  // full window (degenerates to the flat kernel)
        win = grid::full_window(g);
        break;
      default: {
        const auto r0 =
            static_cast<std::size_t>(rng.uniform(0.0, rows - 1.0));
        const auto r1 =
            r0 + 1 + static_cast<std::size_t>(rng.uniform(0.0, rows - r0 - 1.0));
        const auto c0 = static_cast<std::size_t>(rng.uniform(0.0, cols - 1.0));
        const auto wd =
            1 + static_cast<std::size_t>(rng.uniform(0.0, cols - 1.0));
        win = {r0, r1, c0, wd};
        break;
      }
    }

    grid::Region base(g);
    grid::window_region_into(g, win, nullptr, base);
    if (iter % 2 == 0) {
      // Clip by a band so the windowed region has internal structure.
      const grid::Region band = grid::rasterize_lat_band(g, -65.0, 75.0);
      base &= band;
    }

    grid::Region annulus(g);
    plan->rasterize_annulus(inner, outer, annulus);
    grid::Region oracle = base;
    oracle &= annulus;

    grid::Region fused = base;
    plan->intersect_annulus_into(inner, outer, fused, win);
    ASSERT_EQ(oracle.words(), fused.words())
        << "iter=" << iter << " inner=" << inner << " outer=" << outer;
  }
}

// ---------------------------------------------------------------------
// 3. Containment: the coarse ladder's window covers the flat result
// ---------------------------------------------------------------------

TEST(RefineWindow, ContainsEveryCellOfTheFlatSolve) {
  grid::Grid fine(0.5);
  grid::CapPlanCache cache(128);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20260809, "containment");
  const grid::Region mask = grid::rasterize_lat_band(fine, -60.0, 85.0);
  for (const char* sched : {"2", "4,2"}) {
    RefineContext ctx(fine, RefineSchedule::parse(sched));
    ctx.prepare_mask(mask);
    for (int iter = 0; iter < 12; ++iter) {
      // Keep the target inside the mask band so the flat solve is
      // normally nonempty; a nullopt window is only sound when it is
      // actually empty.
      const geo::LatLon target{rng.uniform(-55.0, 80.0),
                               rng.uniform(-180.0, 180.0)};
      const auto disks = clustered_disks(rng, 8, target);
      const grid::Region flat =
          intersect_disks(fine, disks, &mask, &cache, arena);
      grid::Region seed(fine);
      const auto win = detail::ladder_seed_into(
          ctx, detail::disk_annuli(fine, disks), &mask, &cache, arena, seed);
      if (!win.has_value()) {
        EXPECT_TRUE(flat.empty()) << sched << " iter=" << iter;
        continue;
      }
      flat.for_each_cell([&](std::size_t idx) {
        ASSERT_TRUE(win->contains(fine, idx) && seed.test(idx))
            << sched << " iter=" << iter << " idx=" << idx;
      });
    }
  }
}

// ---------------------------------------------------------------------
// 4. Refined solvers vs flat, bit for bit
// ---------------------------------------------------------------------

TEST(RefinedIntersect, MatchesFlatAcrossSchedulesAndVariants) {
  grid::Grid fine(0.5);
  grid::CapPlanCache cache(256);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20260809, "refined_intersect");
  const grid::Region mask = grid::rasterize_lat_band(fine, -60.0, 85.0);
  for (const char* sched : {"2", "4,2"}) {
    RefineContext ctx(fine, RefineSchedule::parse(sched));
    ctx.prepare_mask(mask);
    for (int iter = 0; iter < 8; ++iter) {
      const geo::LatLon target = random_point(rng);
      const auto disks = clustered_disks(rng, 7, target);
      const auto rings = clustered_rings(rng, 7, target);
      for (const grid::Region* m : {static_cast<const grid::Region*>(nullptr),
                                    &mask}) {
        const grid::Region d_want = materialized_disks(fine, disks, m);
        const grid::Region r_want = materialized_rings(fine, rings, m);
        for (grid::CapPlanCache* pc :
             {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
          for (grid::Scratch* sc :
               {static_cast<grid::Scratch*>(nullptr), arena}) {
            // The flat solve (the zero-level ladder) and the refined one.
            for (const RefineContext* rc :
                 {static_cast<const RefineContext*>(nullptr),
                  static_cast<const RefineContext*>(&ctx)}) {
              EXPECT_EQ(d_want.words(),
                        intersect_disks(fine, disks, m, pc, sc, rc).words())
                  << sched << " iter=" << iter << " cache=" << (pc != nullptr)
                  << " arena=" << (sc != nullptr) << " mask=" << (m != nullptr)
                  << " refined=" << (rc != nullptr);
              EXPECT_EQ(r_want.words(),
                        intersect_rings(fine, rings, m, pc, sc, rc).words())
                  << sched << " iter=" << iter << " cache=" << (pc != nullptr)
                  << " arena=" << (sc != nullptr) << " mask=" << (m != nullptr)
                  << " refined=" << (rc != nullptr);
            }
          }
        }
      }
    }
  }
}

TEST(RefinedIntersect, InconsistentSetsEmptyAtTheCoarseLevel) {
  grid::Grid fine(0.5);
  grid::CapPlanCache cache(64);
  grid::Scratch* arena = &grid::Scratch::tls();
  // Two tiny disks on opposite sides of the planet: no coarse cell can
  // survive both, so the ladder exits before touching the fine grid.
  const std::vector<DiskConstraint> disks = {
      {{40.0, -100.0}, 200.0}, {{-30.0, 120.0}, 200.0}};
  RefineContext ctx(fine, RefineSchedule::parse("2"));
  grid::Region seed(fine);
  EXPECT_FALSE(detail::ladder_seed_into(ctx, detail::disk_annuli(fine, disks),
                                        nullptr, &cache, arena, seed)
                   .has_value());
  EXPECT_TRUE(seed.empty());
  const grid::Region flat = intersect_disks(fine, disks);
  const grid::Region refined =
      intersect_disks(fine, disks, nullptr, &cache, arena, &ctx);
  EXPECT_TRUE(flat.empty());
  EXPECT_TRUE(refined.empty());
  EXPECT_EQ(flat.words(), refined.words());
}

TEST(RefinedLcs, ConsistentSetsTakeTheWindowedFastPath) {
  grid::Grid fine(0.5);
  grid::CapPlanCache cache(256);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20260809, "refined_lcs_consistent");
  const grid::Region mask = grid::rasterize_lat_band(fine, -60.0, 85.0);
  RefineContext ctx(fine, RefineSchedule::parse("4,2"));
  ctx.prepare_mask(mask);
  for (int iter = 0; iter < 6; ++iter) {
    const geo::LatLon target = random_point(rng);
    const auto disks = clustered_disks(rng, 9, target);
    const auto rings = clustered_rings(rng, 9, target);

    grid::Region flat_r(fine);
    std::vector<bool> flat_used;
    const std::size_t flat_n = largest_consistent_subset_into(
        fine, disks, &mask, &cache, arena, flat_r, flat_used);

    for (grid::CapPlanCache* pc :
         {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
      grid::Region ref_r(fine);
      std::vector<bool> ref_used;
      const std::size_t ref_n = largest_consistent_subset_into(
          fine, disks, &mask, pc, arena, ref_r, ref_used, &ctx);
      EXPECT_EQ(flat_n, ref_n) << iter;
      EXPECT_EQ(flat_used, ref_used) << iter;
      EXPECT_EQ(flat_r.words(), ref_r.words()) << iter;
    }

    grid::Region flat_ring(fine);
    std::vector<bool> flat_ring_used;
    const std::size_t flat_ring_n = largest_consistent_subset_into(
        fine, rings, &mask, &cache, arena, flat_ring, flat_ring_used);
    grid::Region ref_ring(fine);
    std::vector<bool> ref_ring_used;
    const std::size_t ref_ring_n = largest_consistent_subset_into(
        fine, rings, &mask, &cache, arena, ref_ring, ref_ring_used, &ctx);
    EXPECT_EQ(flat_ring_n, ref_ring_n) << iter;
    EXPECT_EQ(flat_ring_used, ref_ring_used) << iter;
    EXPECT_EQ(flat_ring.words(), ref_ring.words()) << iter;
  }
}

TEST(RefinedLcs, InconsistentSetsFallBackToTheFlatSolver) {
  grid::Grid fine(1.0);
  grid::CapPlanCache cache(128);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20260809, "refined_lcs_fallback");
  RefineContext ctx(fine, RefineSchedule::parse("4"));
  for (int iter = 0; iter < 6; ++iter) {
    // Two consistent clusters of SMALL disks far apart: the full set is
    // inconsistent, so the refined engine must leave the window (the
    // answer involves subset search the window cannot bound) for the
    // ladder's coverage sweep, which must match the flat sweep.
    const geo::LatLon a{rng.uniform(-60.0, 60.0), rng.uniform(-170.0, -10.0)};
    const geo::LatLon b{-a.lat_deg, a.lon_deg + 150.0};
    const auto local_disks = [&](const geo::LatLon& c, std::size_t n) {
      std::vector<DiskConstraint> out;
      for (std::size_t i = 0; i < n; ++i) {
        const geo::LatLon lm{c.lat_deg + rng.uniform(-3.0, 3.0),
                             c.lon_deg + rng.uniform(-3.0, 3.0)};
        out.push_back({lm, geo::distance_km(lm, c) + rng.uniform(100.0, 400.0)});
      }
      return out;
    };
    auto disks = local_disks(a, 6);
    const auto rival = local_disks(b, 3);
    disks.insert(disks.end(), rival.begin(), rival.end());

    grid::Region flat_r(fine);
    std::vector<bool> flat_used;
    const std::size_t flat_n = largest_consistent_subset_into(
        fine, disks, nullptr, &cache, arena, flat_r, flat_used);
    EXPECT_LT(flat_n, disks.size()) << "workload not inconsistent";

    grid::Region ref_r(fine);
    std::vector<bool> ref_used;
    const std::size_t ref_n = largest_consistent_subset_into(
        fine, disks, nullptr, &cache, arena, ref_r, ref_used, &ctx);
    EXPECT_EQ(flat_n, ref_n) << iter;
    EXPECT_EQ(flat_used, ref_used) << iter;
    EXPECT_EQ(flat_r.words(), ref_r.words()) << iter;
  }
}

TEST(RefinedSpotter, CredibleRegionMatchesFlatPosterior) {
  grid::Grid fine(0.5);
  grid::CapPlanCache cache(256);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20260809, "refined_spotter");
  const grid::Region mask = grid::rasterize_lat_band(fine, -60.0, 85.0);
  for (const char* sched : {"2", "4,2"}) {
    RefineContext ctx(fine, RefineSchedule::parse(sched));
    ctx.prepare_mask(mask);
    for (int iter = 0; iter < 5; ++iter) {
      // Rings around a common target, including one centered near the
      // antimeridian so the support (and thus the window) wraps.
      const geo::LatLon target{rng.uniform(-50.0, 70.0),
                               iter % 2 == 0 ? 179.5 : rng.uniform(-180.0, 180.0)};
      std::vector<GaussianConstraint> rings;
      for (int i = 0; i < 7; ++i) {
        const geo::LatLon lm = random_point(rng);
        rings.push_back({lm, geo::distance_km(lm, target),
                         rng.uniform(60.0, 300.0)});
      }
      for (const grid::Region* m :
           {static_cast<const grid::Region*>(nullptr), &mask}) {
        const grid::Field flat = reference::fuse_gaussian_rings(fine, rings, m);
        for (const double mass : {0.95, 1.0}) {
          const grid::Region flat_cr = flat.credible_region(mass);
          for (grid::CapPlanCache* pc :
               {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
            const grid::Region refined =
                spotter_cut(fine, rings, mass, m, pc, arena, &ctx);
            ASSERT_EQ(flat_cr.words(), refined.words())
                << sched << " iter=" << iter << " mass=" << mass
                << " cache=" << (pc != nullptr) << " mask=" << (m != nullptr);
          }
        }
      }
    }
  }
}

TEST(RefinedSpotter, ZeroMassPosteriorGivesEmptyRegionLikeFlat) {
  grid::Grid fine(1.0);
  RefineContext ctx(fine, RefineSchedule::parse("4"));
  // Disjoint supports: the posterior is identically zero.
  const std::vector<GaussianConstraint> rings = {
      {{40.0, -100.0}, 500.0, 30.0}, {{-30.0, 120.0}, 500.0, 30.0}};
  const grid::Field flat = reference::fuse_gaussian_rings(fine, rings);
  const grid::Region flat_cr = flat.credible_region(0.95);
  const grid::Region refined =
      spotter_cut(fine, rings, 0.95, nullptr, nullptr, nullptr, &ctx);
  EXPECT_TRUE(refined.empty());
  EXPECT_EQ(flat_cr.words(), refined.words());
}

/// Gaussian ring sets that stress the Spotter start region, by
/// iter % 6: rings around a target at the north pole, at the south
/// pole or on the date line, with sigmas mixing the calibration floor
/// (50 km), wider ones and whole-sphere supports; rings all at the
/// floor around a random target; and two zero-mass sets, one whose
/// supports share no cell (empty start) and one whose supports overlap
/// but whose factors underflow to +0.0 on the overlap (nonempty start,
/// zero posterior).
std::vector<GaussianConstraint> stress_rings(Rng& rng, int iter) {
  constexpr double kFloorKm = 50.0;
  std::vector<GaussianConstraint> rings;
  const int kind = iter % 6;
  if (kind >= 4) {
    // Two concentric rings at the floor: supports [0, 2935] and
    // [4065, 7935] km (disjoint), or [0, 2935] and [2065, 5935] km,
    // where every cell's two factors multiply to below the smallest
    // subnormal.
    const geo::LatLon c = random_point(rng);
    rings.push_back({c, 1000.0, kFloorKm});
    rings.push_back({c, kind == 4 ? 6000.0 : 4000.0, kFloorKm});
    rings.push_back({random_point(rng), rng.uniform(500.0, 8000.0),
                     rng.uniform(kFloorKm, 300.0)});
    return rings;
  }
  geo::LatLon target = random_point(rng);
  if (kind == 0) target = {rng.uniform(88.5, 90.0), rng.uniform(-180.0, 180.0)};
  if (kind == 1)
    target = {rng.uniform(-90.0, -88.5), rng.uniform(-180.0, 180.0)};
  if (kind == 2)
    target = {rng.uniform(-60.0, 60.0), rng.chance(0.5) ? 179.9 : -179.95};
  const std::size_t n = 3 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n; ++i) {
    // Landmarks near the target too, so some supports straddle the pole
    // or the date line themselves.
    geo::LatLon lm = random_point(rng);
    if (rng.chance(0.3))
      lm = {std::clamp(target.lat_deg + rng.uniform(-5.0, 5.0), -90.0, 90.0),
            target.lon_deg + rng.uniform(-5.0, 5.0)};
    // Some rings so wide (sigma > ~520 km) that their support covers
    // the whole sphere: the kernel leaves those out of the start.
    const double sigma = kind == 3 || rng.chance(0.5) ? kFloorKm
                         : rng.chance(0.3)            ? rng.uniform(400.0, 2000.0)
                                                      : rng.uniform(kFloorKm, 300.0);
    rings.push_back({lm, geo::distance_km(lm, target) +
                             rng.normal(0.0, sigma),
                     sigma});
  }
  return rings;
}

std::vector<std::uint64_t> field_bits(const grid::Field& f) {
  std::vector<std::uint64_t> bits(f.grid()->size());
  for (std::size_t i = 0; i < bits.size(); ++i)
    bits[i] = std::bit_cast<std::uint64_t>(f.at(i));
  return bits;
}

TEST(SpotterStart, HoldsTheMaskStartedPosteriorBitForBit) {
  // The flat start is mask ∩ every ring's hard support. (a) It holds
  // every cell the mask-started posterior leaves nonzero, and (b) a
  // posterior fused from it equals the mask-started one bit for bit:
  // every cell, the live list, the mass and the credible cuts.
  grid::Grid g(1.0);
  grid::CapPlanCache cache(256);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20261017, "spotter_start");
  const grid::Region band = grid::rasterize_lat_band(g, -60.0, 85.0);
  std::size_t zero_mass = 0, empty_starts = 0;
  for (int iter = 0; iter < 36; ++iter) {
    const std::vector<GaussianConstraint> rings = stress_rings(rng, iter);
    for (const grid::Region* m :
         {static_cast<const grid::Region*>(nullptr), &band}) {
      for (grid::CapPlanCache* pc :
           {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
        const std::string where = "iter=" + std::to_string(iter) +
                                  " mask=" + std::to_string(m != nullptr) +
                                  " cache=" + std::to_string(pc != nullptr);
        const grid::Field oracle = masked_posterior(g, rings, m, pc);
        grid::Region seed(g);
        grid::Field p;
        spotter_start(g, rings, m, pc, arena, nullptr, seed, p);
        if (m) {
          EXPECT_TRUE((seed & *m) == seed) << where;
        }
        std::size_t outside = 0;
        for (std::size_t i = 0; i < g.size(); ++i)
          outside += oracle.at(i) != 0.0 && !seed.test(i);
        EXPECT_EQ(outside, 0u) << where;

        p.normalize();
        ASSERT_EQ(field_bits(oracle), field_bits(p)) << where;
        ASSERT_NE(oracle.live_cells(), nullptr) << where;
        ASSERT_NE(p.live_cells(), nullptr) << where;
        EXPECT_EQ(*oracle.live_cells(), *p.live_cells()) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(oracle.total_mass()),
                  std::bit_cast<std::uint64_t>(p.total_mass()))
            << where;
        for (const double mass : {0.9, 1.0}) {
          const grid::Region cut = oracle.credible_region(mass);
          EXPECT_EQ(cut.words(), p.credible_region(mass).words()) << where;
          EXPECT_EQ(cut.words(),
                    spotter_cut(g, rings, mass, m, pc, arena).words())
              << where;
        }
        zero_mass += oracle.total_mass() == 0.0;
        empty_starts += seed.empty();
      }
    }
  }
  // Both zero-mass kinds ran: with an empty start and with a live one.
  EXPECT_GT(empty_starts, 0u);
  EXPECT_GT(zero_mass, empty_starts);
}

TEST(SpotterStart, FlatAndRefinedStartsAreEqual) {
  // (c) The ladder only changes where the one kernel starts, so the
  // refined start is the flat one word for word.
  grid::Grid fine(0.25);
  grid::CapPlanCache cache(256);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20261017, "spotter_start_refined");
  const grid::Region band = grid::rasterize_lat_band(fine, -60.0, 85.0);
  for (const char* sched : {"2.0", "2.0,0.5"}) {
    RefineContext ctx(fine, RefineSchedule::parse(sched));
    ctx.prepare_mask(band);
    for (int iter = 0; iter < 12; ++iter) {
      const std::vector<GaussianConstraint> rings = stress_rings(rng, iter);
      for (const grid::Region* m :
           {static_cast<const grid::Region*>(nullptr), &band}) {
        grid::Region flat(fine), refined(fine);
        grid::Field flat_p, refined_p;
        spotter_start(fine, rings, m, &cache, arena, nullptr, flat, flat_p);
        spotter_start(fine, rings, m, &cache, arena, &ctx, refined,
                      refined_p);
        ASSERT_EQ(flat.words(), refined.words())
            << sched << " iter=" << iter << " mask=" << (m != nullptr);
        ASSERT_EQ(field_bits(flat_p), field_bits(refined_p))
            << sched << " iter=" << iter << " mask=" << (m != nullptr);
      }
    }
  }
}

// ---------------------------------------------------------------------
// 5. Schedule parsing and context validation
// ---------------------------------------------------------------------

TEST(RefineSchedule, ParseRoundTripAndErrors) {
  EXPECT_FALSE(RefineSchedule::parse("").enabled());
  EXPECT_FALSE(RefineSchedule::parse("off").enabled());
  EXPECT_FALSE(RefineSchedule::parse("none").enabled());
  const RefineSchedule s = RefineSchedule::parse("2.0,0.5");
  ASSERT_EQ(s.levels.size(), 2u);
  EXPECT_DOUBLE_EQ(s.levels[0], 2.0);
  EXPECT_DOUBLE_EQ(s.levels[1], 0.5);
  EXPECT_EQ(s.to_string(), "2,0.5");
  EXPECT_EQ(RefineSchedule::parse("2:0.5").levels, s.levels);
  EXPECT_EQ(RefineSchedule::parse(s.to_string()).levels, s.levels);
  EXPECT_THROW(RefineSchedule::parse("abc"), InvalidArgument);
  EXPECT_THROW(RefineSchedule::parse("2.0,"), InvalidArgument);
  EXPECT_THROW(RefineSchedule::parse("2.0,-1"), InvalidArgument);
  EXPECT_THROW(RefineSchedule::parse("2.0,x"), InvalidArgument);
}

TEST(RefineSchedule, RecommendedLaddersAreValid) {
  const RefineSchedule quarter = RefineSchedule::recommended(0.25);
  ASSERT_EQ(quarter.levels.size(), 2u);
  EXPECT_DOUBLE_EQ(quarter.levels[0], 2.0);
  EXPECT_DOUBLE_EQ(quarter.levels[1], 0.5);
  grid::Grid fine(0.25);
  EXPECT_NO_THROW(RefineContext(fine, quarter));

  const RefineSchedule one = RefineSchedule::recommended(1.0);
  ASSERT_EQ(one.levels.size(), 1u);
  EXPECT_DOUBLE_EQ(one.levels[0], 2.0);

  EXPECT_FALSE(RefineSchedule::recommended(2.0).enabled());
}

TEST(RefineContext, RejectsInvalidSchedules) {
  grid::Grid fine(0.5);
  // No levels.
  EXPECT_THROW(RefineContext(fine, RefineSchedule{}), InvalidArgument);
  // Level not coarser than the analysis grid.
  EXPECT_THROW(RefineContext(fine, RefineSchedule::parse("0.5")),
               InvalidArgument);
  // Ascending (fine-first) order.
  EXPECT_THROW(RefineContext(fine, RefineSchedule::parse("1,2")),
               InvalidArgument);
  // Non-integer ratio between adjacent levels (3/2).
  EXPECT_THROW(RefineContext(fine, RefineSchedule::parse("3,2")),
               InvalidArgument);
  // Non-integer ratio to the fine grid (1.2/0.5).
  EXPECT_THROW(RefineContext(fine, RefineSchedule::parse("1.2")),
               InvalidArgument);
  // A good ladder passes.
  EXPECT_NO_THROW(RefineContext(fine, RefineSchedule::parse("4,2,1")));
}

TEST(RefineContext, LevelMaskRequiresPreparedRegion) {
  grid::Grid fine(1.0);
  RefineContext ctx(fine, RefineSchedule::parse("4"));
  const grid::Region mask = grid::rasterize_lat_band(fine, -60.0, 85.0);
  EXPECT_EQ(ctx.level_mask(0, nullptr), nullptr);
  EXPECT_THROW((void)ctx.level_mask(0, &mask), InvalidArgument);
  ctx.prepare_mask(mask);
  const grid::Region* coarse = ctx.level_mask(0, &mask);
  ASSERT_NE(coarse, nullptr);
  // OR-downsampling: a coarse cell is set iff some fine cell under it is.
  const grid::Grid& cg = ctx.level(0);
  const std::size_t k = 4;
  for (std::size_t cr = 0; cr < cg.rows(); cr += 7) {
    for (std::size_t cc = 0; cc < cg.cols(); cc += 11) {
      bool any = false;
      for (std::size_t fr = cr * k; fr < (cr + 1) * k && !any; ++fr)
        for (std::size_t fc = cc * k; fc < (cc + 1) * k && !any; ++fc)
          any = mask.test(fine.index(fr, fc));
      EXPECT_EQ(coarse->test(cg.index(cr, cc)), any)
          << "cr=" << cr << " cc=" << cc;
    }
  }
  EXPECT_TRUE(ctx.applies_to(fine, &mask));
  EXPECT_TRUE(ctx.applies_to(fine, nullptr));
  grid::Grid other(2.0);
  EXPECT_FALSE(ctx.applies_to(other, &mask));
  const grid::Region foreign = grid::rasterize_lat_band(fine, -10.0, 10.0);
  EXPECT_FALSE(ctx.applies_to(fine, &foreign));
}

// ---------------------------------------------------------------------
// 6. CI matrix hook: the full ladder on the production 0.25-degree grid
// ---------------------------------------------------------------------

TEST(RefinedEquivalenceEnv, ScheduleFromEnvironmentOnQuarterDegreeGrid) {
  // The CI refine jobs set AGEO_REFINE_SCHEDULE to the production
  // ladders ("2.0" and "2.0,0.5") and this test pins refined == flat on
  // the 0.25-degree audit grid for all three solver families. Skipped
  // when the variable is unset (the grid is 16x the usual test grids).
  const char* env = std::getenv("AGEO_REFINE_SCHEDULE");
  if (env == nullptr) GTEST_SKIP() << "AGEO_REFINE_SCHEDULE not set";
  const RefineSchedule sched = RefineSchedule::parse(env);
  if (!sched.enabled()) GTEST_SKIP() << "schedule disabled";

  grid::Grid fine(0.25);
  grid::CapPlanCache cache(128);
  grid::Scratch* arena = &grid::Scratch::tls();
  Rng rng(20260809, "env_schedule");
  const grid::Region mask = grid::rasterize_lat_band(fine, -60.0, 85.0);
  RefineContext ctx(fine, sched);
  ctx.prepare_mask(mask);

  for (int iter = 0; iter < 3; ++iter) {
    const geo::LatLon target{rng.uniform(-55.0, 80.0),
                             rng.uniform(-180.0, 180.0)};
    const auto disks = clustered_disks(rng, 7, target);
    const auto rings = clustered_rings(rng, 7, target);

    EXPECT_EQ(
        materialized_disks(fine, disks, &mask).words(),
        intersect_disks(fine, disks, &mask, &cache, arena, &ctx).words())
        << iter;
    EXPECT_EQ(
        materialized_rings(fine, rings, &mask).words(),
        intersect_rings(fine, rings, &mask, &cache, arena, &ctx).words())
        << iter;

    grid::Region flat_r(fine), ref_r(fine);
    std::vector<bool> flat_used, ref_used;
    const std::size_t flat_n = largest_consistent_subset_into(
        fine, disks, &mask, &cache, arena, flat_r, flat_used);
    const std::size_t ref_n = largest_consistent_subset_into(
        fine, disks, &mask, &cache, arena, ref_r, ref_used, &ctx);
    EXPECT_EQ(flat_n, ref_n) << iter;
    EXPECT_EQ(flat_used, ref_used) << iter;
    EXPECT_EQ(flat_r.words(), ref_r.words()) << iter;

    std::vector<GaussianConstraint> gauss;
    for (int i = 0; i < 6; ++i) {
      const geo::LatLon lm = random_point(rng);
      gauss.push_back(
          {lm, geo::distance_km(lm, target), rng.uniform(50.0, 200.0)});
    }
    const grid::Field flat_field = masked_posterior(fine, gauss, &mask, &cache);
    EXPECT_EQ(flat_field.credible_region(0.95).words(),
              spotter_cut(fine, gauss, 0.95, &mask, &cache, arena, &ctx)
                  .words())
        << iter;
  }
}

}  // namespace
}  // namespace ageo::mlat
