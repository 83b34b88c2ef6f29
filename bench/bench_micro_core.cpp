// Micro-benchmarks of the core primitives (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "algos/cbg_pp.hpp"
#include "calib/cbg_model.hpp"
#include "common/rng.hpp"
#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/raster.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"
#include "mlat/multilateration.hpp"
#include "obs/metrics.hpp"
#include "oracles.hpp"

using namespace ageo;

static void BM_GreatCircleDistance(benchmark::State& state) {
  Rng rng(1);
  std::vector<geo::LatLon> pts(1024);
  for (auto& p : pts)
    p = {rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geo::distance_km(pts[i % 1024], pts[(i + 7) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_GreatCircleDistance);

static void BM_RasterizeCap(benchmark::State& state) {
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  geo::Cap cap{{48.0, 11.0}, 2000.0};
  for (auto _ : state) {
    auto r = grid::rasterize_cap(g, cap);
    benchmark::DoNotOptimize(r.words().data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_RasterizeCap)->Arg(200)->Arg(100)->Arg(50)->Arg(25);

static void BM_RasterizeCapNaive(benchmark::State& state) {
  // The naive per-cell reference scan: the "before" of the pruned
  // rasterizer, kept runnable so the speedup stays measurable in place.
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  geo::Cap cap{{48.0, 11.0}, 2000.0};
  for (auto _ : state) {
    auto r = grid::reference::rasterize_cap(g, cap);
    benchmark::DoNotOptimize(r.words().data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_RasterizeCapNaive)->Arg(200)->Arg(100)->Arg(50)->Arg(25);

static void BM_RasterizeCapSmall(benchmark::State& state) {
  // Small-radius disks at fine resolution: the shape of the paper's
  // per-landmark constraint in the phase-2 inner loop.
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  geo::Cap cap{{48.0, 11.0}, 300.0};
  for (auto _ : state) {
    auto r = grid::rasterize_cap(g, cap);
    benchmark::DoNotOptimize(r.words().data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_RasterizeCapSmall)->Arg(100)->Arg(25);

static void BM_RasterizeCapSmallNaive(benchmark::State& state) {
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  geo::Cap cap{{48.0, 11.0}, 300.0};
  for (auto _ : state) {
    auto r = grid::reference::rasterize_cap(g, cap);
    benchmark::DoNotOptimize(r.words().data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_RasterizeCapSmallNaive)->Arg(100)->Arg(25);

static void BM_RasterizeRing(benchmark::State& state) {
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  geo::Ring ring{{48.0, 11.0}, 800.0, 2400.0};
  for (auto _ : state) {
    auto r = grid::rasterize_ring(g, ring);
    benchmark::DoNotOptimize(r.words().data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_RasterizeRing)->Arg(100)->Arg(25);

static void BM_RasterizeRingNaive(benchmark::State& state) {
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  geo::Ring ring{{48.0, 11.0}, 800.0, 2400.0};
  for (auto _ : state) {
    auto r = grid::reference::rasterize_ring(g, ring);
    benchmark::DoNotOptimize(r.words().data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_RasterizeRingNaive)->Arg(100)->Arg(25);

static void BM_CapPlanRasterize(benchmark::State& state) {
  // Re-rasterizing around a cached landmark at a fresh radius each time:
  // the per-proxy hot path once the plan cache is warm.
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  grid::CapScanPlan plan(g, {48.0, 11.0});
  grid::Region out(g);
  double radius = 200.0;
  for (auto _ : state) {
    out.clear();
    radius = radius >= 2400.0 ? 200.0 : radius + 37.0;
    plan.rasterize_annulus(0.0, radius, out);
    benchmark::DoNotOptimize(out.words().data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_CapPlanRasterize)->Arg(100)->Arg(25);

static void BM_AccumulateCapMask(benchmark::State& state) {
  // 25 landmarks' coverage masks on one grid: the inner loop of
  // largest_consistent_subset.
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  Rng rng(7);
  std::vector<geo::Cap> caps;
  for (int i = 0; i < 25; ++i)
    caps.push_back({{rng.uniform(35.0, 60.0), rng.uniform(-10.0, 30.0)},
                    rng.uniform(400.0, 2500.0)});
  std::vector<std::uint64_t> masks(g.size());
  for (auto _ : state) {
    std::fill(masks.begin(), masks.end(), 0);
    for (unsigned i = 0; i < caps.size(); ++i)
      grid::detail::plan_for(nullptr, g, caps[i].center)
          ->accumulate_annulus(0.0, caps[i].radius_km, masks, i);
    benchmark::DoNotOptimize(masks.data());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_AccumulateCapMask)->Arg(100)->Arg(50);

static void BM_RegionIntersect(benchmark::State& state) {
  grid::Grid g(1.0);
  auto a = grid::rasterize_cap(g, geo::Cap{{48.0, 11.0}, 3000.0});
  auto b = grid::rasterize_cap(g, geo::Cap{{50.0, 15.0}, 3000.0});
  for (auto _ : state) {
    grid::Region c = a;
    c &= b;
    benchmark::DoNotOptimize(c.count());
  }
}
BENCHMARK(BM_RegionIntersect);

static void BM_RegionCentroid(benchmark::State& state) {
  grid::Grid g(1.0);
  auto r = grid::rasterize_cap(g, geo::Cap{{48.0, 11.0}, 3000.0});
  for (auto _ : state) benchmark::DoNotOptimize(r.centroid());
}
BENCHMARK(BM_RegionCentroid);

static void BM_BestlineFit(benchmark::State& state) {
  Rng rng(2);
  calib::CalibData data;
  for (int i = 0; i < state.range(0); ++i) {
    double d = rng.uniform(50.0, 15000.0);
    data.push_back({d, d / 100.0 + 2.0 + rng.exponential(8.0)});
  }
  calib::CbgOptions opt;
  opt.enforce_slowline = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(calib::fit_cbg_bestline(data, opt));
}
BENCHMARK(BM_BestlineFit)->Arg(100)->Arg(400)->Arg(1600);

static void BM_SubsetSolve(benchmark::State& state) {
  grid::Grid g(1.0);
  Rng rng(3);
  std::vector<mlat::DiskConstraint> disks;
  geo::LatLon truth{47.0, 12.0};
  for (int i = 0; i < state.range(0); ++i) {
    geo::LatLon lm{rng.uniform(30.0, 65.0), rng.uniform(-15.0, 40.0)};
    disks.push_back(
        {lm, geo::distance_km(lm, truth) + rng.uniform(50.0, 800.0)});
  }
  for (auto _ : state) {
    auto res = mlat::largest_consistent_subset(g, disks);
    benchmark::DoNotOptimize(res.region.count());
  }
}
BENCHMARK(BM_SubsetSolve)->Arg(8)->Arg(25)->Arg(60);

static std::vector<mlat::DiskConstraint> fine_subset_disks(int n) {
  // The phase-2 audit workload: mostly nearby landmarks with tight
  // distance bounds (constraint bands cover a small slice of the grid),
  // plus a far tail of loose continent-scale disks.
  Rng rng(5);
  std::vector<mlat::DiskConstraint> disks;
  geo::LatLon truth{47.0, 12.0};
  for (int i = 0; i < n; ++i) {
    if (i % 5 == 4) {
      geo::LatLon lm{rng.uniform(30.0, 65.0), rng.uniform(-15.0, 40.0)};
      disks.push_back(
          {lm, geo::distance_km(lm, truth) + rng.uniform(200.0, 800.0)});
    } else {
      geo::LatLon lm{truth.lat_deg + rng.uniform(-8.0, 8.0),
                     truth.lon_deg + rng.uniform(-10.0, 10.0)};
      disks.push_back(
          {lm, geo::distance_km(lm, truth) + rng.uniform(50.0, 400.0)});
    }
  }
  return disks;
}

static void BM_SubsetSolveFine(benchmark::State& state) {
  // The audit steady state at the finest grid: sparse multi-plane LCS
  // walking only the constraint row bands, pooled scratch buffers, warm
  // plan cache. The 128-disk row runs the >64 (two-plane) path the old
  // engine rejected outright.
  grid::Grid g(0.25);
  auto disks = fine_subset_disks(static_cast<int>(state.range(0)));
  grid::CapPlanCache cache(256);
  grid::Scratch* arena = &grid::Scratch::tls();
  benchmark::DoNotOptimize(
      mlat::largest_consistent_subset(g, disks, nullptr, &cache, arena)
          .n_used);
  for (auto _ : state) {
    auto res =
        mlat::largest_consistent_subset(g, disks, nullptr, &cache, arena);
    benchmark::DoNotOptimize(res.region.count());
  }
}
BENCHMARK(BM_SubsetSolveFine)->Arg(8)->Arg(25)->Arg(60)->Arg(128);

static void BM_SubsetSolveFineOutliers(benchmark::State& state) {
  // Same workload with a few lying landmarks mixed in: the global
  // intersection is empty, so the intersect-first fast path bails and
  // the multi-plane coverage sweep (the general engine) does the work.
  grid::Grid g(0.25);
  auto disks = fine_subset_disks(static_cast<int>(state.range(0)));
  disks.push_back({{-55.0, -170.0}, 250.0});
  disks.push_back({{-40.0, 95.0}, 300.0});
  disks.push_back({{8.0, -150.0}, 200.0});
  grid::CapPlanCache cache(256);
  grid::Scratch* arena = &grid::Scratch::tls();
  benchmark::DoNotOptimize(
      mlat::largest_consistent_subset(g, disks, nullptr, &cache, arena)
          .n_used);
  for (auto _ : state) {
    auto res =
        mlat::largest_consistent_subset(g, disks, nullptr, &cache, arena);
    benchmark::DoNotOptimize(res.region.count());
  }
}
BENCHMARK(BM_SubsetSolveFineOutliers)->Arg(8)->Arg(25)->Arg(60)->Arg(128);

static void BM_SubsetSolveFineReference(benchmark::State& state) {
  // The "before" of BM_SubsetSolveFine: dense single-word reference
  // engine (allocates and full-scans a g.size() coverage vector per
  // call), same disks, same warm plan cache. Capped at its 64-disk
  // ceiling.
  grid::Grid g(0.25);
  auto disks = fine_subset_disks(static_cast<int>(state.range(0)));
  grid::CapPlanCache cache(256);
  benchmark::DoNotOptimize(
      mlat::reference::largest_consistent_subset(g, disks, nullptr, &cache)
          .n_used);
  for (auto _ : state) {
    auto res =
        mlat::reference::largest_consistent_subset(g, disks, nullptr, &cache);
    benchmark::DoNotOptimize(res.region.count());
  }
}
BENCHMARK(BM_SubsetSolveFineReference)->Arg(8)->Arg(25)->Arg(60);

static void BM_IntersectAnnulusFused(benchmark::State& state) {
  // AND a fresh annulus into a running region straight from the plan's
  // row spans — the intersect kernel's row pass. Each
  // iteration pays one region copy (resetting the running region) so the
  // fused and materialized rows differ only in the kernel.
  grid::Grid g(0.25);
  grid::CapScanPlan plan(g, {48.0, 11.0});
  const grid::Region base =
      grid::rasterize_cap(g, geo::Cap{{50.0, 15.0}, 3000.0});
  grid::Region out(g);
  const grid::Window all_rows = grid::full_window(g);
  double radius = 400.0;
  for (auto _ : state) {
    out = base;
    radius = radius >= 2800.0 ? 400.0 : radius + 61.0;
    plan.intersect_annulus_into(0.0, radius, out, all_rows);
    benchmark::DoNotOptimize(out.words().data());
  }
}
BENCHMARK(BM_IntersectAnnulusFused);

static void BM_IntersectAnnulusMaterialized(benchmark::State& state) {
  // The oracle pattern the fused kernel is tested against: rasterize the
  // annulus into a temporary, then AND the full word arrays.
  grid::Grid g(0.25);
  grid::CapScanPlan plan(g, {48.0, 11.0});
  const grid::Region base =
      grid::rasterize_cap(g, geo::Cap{{50.0, 15.0}, 3000.0});
  grid::Region out(g), tmp(g);
  double radius = 400.0;
  for (auto _ : state) {
    out = base;
    radius = radius >= 2800.0 ? 400.0 : radius + 61.0;
    tmp.clear();
    plan.rasterize_annulus(0.0, radius, tmp);
    out &= tmp;
    benchmark::DoNotOptimize(out.words().data());
  }
}
BENCHMARK(BM_IntersectAnnulusMaterialized);

static void BM_SubsetSolveManyMasks(benchmark::State& state) {
  // Adversarial dedup load: 60 near-concentric disks produce many
  // distinct maximum-cardinality coverage masks, which stressed the
  // linear std::find dedup in pass 2 of largest_consistent_subset.
  grid::Grid g(0.5);
  Rng rng(9);
  std::vector<mlat::DiskConstraint> disks;
  geo::LatLon truth{47.0, 12.0};
  for (int i = 0; i < 60; ++i) {
    geo::LatLon lm{rng.uniform(44.0, 50.0), rng.uniform(8.0, 16.0)};
    disks.push_back(
        {lm, geo::distance_km(lm, truth) + rng.uniform(10.0, 120.0)});
  }
  for (auto _ : state) {
    auto res = mlat::largest_consistent_subset(g, disks);
    benchmark::DoNotOptimize(res.region.count());
  }
}
BENCHMARK(BM_SubsetSolveManyMasks);

static void BM_GaussianFusion(benchmark::State& state) {
  grid::Grid g(1.0);
  Rng rng(4);
  std::vector<mlat::GaussianConstraint> rings;
  for (int i = 0; i < 25; ++i) {
    rings.push_back({{rng.uniform(30.0, 65.0), rng.uniform(-15.0, 40.0)},
                     rng.uniform(300.0, 3000.0), 200.0});
  }
  for (auto _ : state) {
    auto f = mlat::reference::fuse_gaussian_rings(g, rings);
    benchmark::DoNotOptimize(f.credible_region(0.95).count());
  }
}
BENCHMARK(BM_GaussianFusion);

static void BM_GaussianFusionReference(benchmark::State& state) {
  // The pre-fast-path fusion: full-grid reference multiplies. Kept as
  // the in-tree "before" row for BENCH_spotter.json.
  grid::Grid g(1.0);
  Rng rng(4);
  std::vector<mlat::GaussianConstraint> rings;
  for (int i = 0; i < 25; ++i) {
    rings.push_back({{rng.uniform(30.0, 65.0), rng.uniform(-15.0, 40.0)},
                     rng.uniform(300.0, 3000.0), 200.0});
  }
  for (auto _ : state) {
    grid::Field f(g);
    for (const auto& r : rings)
      grid::reference::multiply_gaussian_ring(f, r.center, r.mu_km,
                                              r.sigma_km);
    f.normalize();
    benchmark::DoNotOptimize(f.credible_region(0.95).count());
  }
}
BENCHMARK(BM_GaussianFusionReference);

static void BM_GaussianFusionCached(benchmark::State& state) {
  // BM_GaussianFusion through a warm plan cache: distance tables built
  // once, every ring multiply trig-free. Bit-identical posterior.
  grid::Grid g(1.0);
  Rng rng(4);
  std::vector<mlat::GaussianConstraint> rings;
  for (int i = 0; i < 25; ++i) {
    rings.push_back({{rng.uniform(30.0, 65.0), rng.uniform(-15.0, 40.0)},
                     rng.uniform(300.0, 3000.0), 200.0});
  }
  grid::CapPlanCache cache;
  const auto fuse = [&] {
    grid::Field f(g);
    mlat::multiply_rings_into(g, rings, &cache, f);
    f.normalize();
    return f;
  };
  benchmark::DoNotOptimize(fuse().total_mass());
  for (auto _ : state) {
    auto f = fuse();
    benchmark::DoNotOptimize(f.credible_region(0.95).count());
  }
}
BENCHMARK(BM_GaussianFusionCached);

// ---- Spotter ring multiply: naive vs windowed vs plan-cached ----
// One Gaussian ring into a fresh all-ones field; the field reset sits
// outside the timed region. Args are {cell_deg * 100, sigma_km}: 1.0 and
// 0.25 degree grids, sigma at a representative 150 km and at the 50 km
// calibration floor.

static void BM_GaussianRingNaive(benchmark::State& state) {
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  const geo::LatLon center{48.0, 11.0};
  const double sigma = static_cast<double>(state.range(1));
  const grid::Field fresh(g);
  grid::Field f(g);
  for (auto _ : state) {
    state.PauseTiming();
    f = fresh;
    state.ResumeTiming();
    grid::reference::multiply_gaussian_ring(f, center, 1500.0, sigma);
    benchmark::DoNotOptimize(f.at(0));
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0) +
                 " sigma=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_GaussianRingNaive)->Args({100, 150})->Args({25, 150})->Args({25, 50});

static void BM_GaussianRingWindowed(benchmark::State& state) {
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  const geo::LatLon center{48.0, 11.0};
  const double sigma = static_cast<double>(state.range(1));
  const grid::Field fresh(g);
  grid::Field f(g);
  for (auto _ : state) {
    state.PauseTiming();
    f = fresh;
    state.ResumeTiming();
    f.multiply_gaussian_ring(center, 1500.0, sigma);
    benchmark::DoNotOptimize(f.at(0));
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0) +
                 " sigma=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_GaussianRingWindowed)
    ->Args({100, 150})
    ->Args({25, 150})
    ->Args({25, 50});

static void BM_GaussianRingPlanCached(benchmark::State& state) {
  // Warm plan + distance table: the steady state of an audit, where the
  // same landmark multiplies into hundreds of proxies' posteriors.
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  const geo::LatLon center{48.0, 11.0};
  const double sigma = static_cast<double>(state.range(1));
  grid::CapScanPlan plan(g, center);
  benchmark::DoNotOptimize(plan.cell_distances_km().data());
  const grid::Field fresh(g);
  grid::Field f(g);
  for (auto _ : state) {
    state.PauseTiming();
    f = fresh;
    state.ResumeTiming();
    f.multiply_gaussian_ring(plan, 1500.0, sigma);
    benchmark::DoNotOptimize(f.at(0));
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0) +
                 " sigma=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_GaussianRingPlanCached)
    ->Args({100, 150})
    ->Args({25, 150})
    ->Args({25, 50});

static void BM_GaussianRingPlanCachedObsOn(benchmark::State& state) {
  // Same as BM_GaussianRingPlanCached but with the telemetry runtime
  // switch on: the multiply records a counter and a sampled-ns histogram
  // observation per call. The delta against the row above is the
  // enabled-path overhead on the hottest primitive in the stack.
  obs::set_metrics_enabled(true);
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  const geo::LatLon center{48.0, 11.0};
  const double sigma = static_cast<double>(state.range(1));
  grid::CapScanPlan plan(g, center);
  benchmark::DoNotOptimize(plan.cell_distances_km().data());
  const grid::Field fresh(g);
  grid::Field f(g);
  for (auto _ : state) {
    state.PauseTiming();
    f = fresh;
    state.ResumeTiming();
    f.multiply_gaussian_ring(plan, 1500.0, sigma);
    benchmark::DoNotOptimize(f.at(0));
  }
  obs::set_metrics_enabled(false);
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0) +
                 " sigma=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_GaussianRingPlanCachedObsOn)->Args({100, 150})->Args({25, 50});

static void BM_GaussianRingSteadyState(benchmark::State& state) {
  // The fusion hot loop: every ring after the first multiplies into a
  // posterior whose live-cell list is already built, so only surviving
  // cells are visited at all.
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  const double sigma = static_cast<double>(state.range(1));
  grid::CapScanPlan plan(g, {40.0, 20.0});
  benchmark::DoNotOptimize(plan.cell_distances_km().data());
  grid::Field seeded(g);
  seeded.multiply_gaussian_ring({48.0, 11.0}, 1500.0, sigma);
  grid::Field f(g);
  for (auto _ : state) {
    state.PauseTiming();
    f = seeded;
    state.ResumeTiming();
    f.multiply_gaussian_ring(plan, 1200.0, sigma);
    benchmark::DoNotOptimize(f.at(0));
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0) +
                 " sigma=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_GaussianRingSteadyState)->Args({100, 150})->Args({25, 50});

static void BM_CredibleRegion(benchmark::State& state) {
  // Selection-based credible region over a broad normalised posterior
  // (the widest support Spotter realistically produces).
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  grid::Field f(g);
  f.multiply_gaussian_ring({48.0, 11.0}, 3000.0, 1000.0);
  f.normalize();
  for (auto _ : state)
    benchmark::DoNotOptimize(f.credible_region(0.95).count());
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_CredibleRegion)->Arg(100)->Arg(25);

BENCHMARK_MAIN();
