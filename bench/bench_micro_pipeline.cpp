// Micro-benchmarks of the measurement pipeline (google-benchmark).
#include <benchmark/benchmark.h>

#include "algos/cbg_pp.hpp"
#include "algos/spotter.hpp"
#include "grid/cap_cache.hpp"
#include "measure/campaign.hpp"
#include "measure/testbed.hpp"
#include "measure/tools.hpp"
#include "measure/two_phase.hpp"

using namespace ageo;

namespace {
measure::Testbed& shared_bed() {
  static measure::Testbed bed = [] {
    measure::TestbedConfig cfg;
    cfg.seed = 2018;
    cfg.constellation.n_anchors = 150;
    cfg.constellation.n_probes = 300;
    return measure::Testbed(cfg);
  }();
  return bed;
}
}  // namespace

static void BM_NetworkSampleRtt(benchmark::State& state) {
  auto& bed = shared_bed();
  netsim::HostId a = bed.landmark_host(0), b = bed.landmark_host(50);
  for (auto _ : state)
    benchmark::DoNotOptimize(bed.net().sample_rtt_ms(a, b));
}
BENCHMARK(BM_NetworkSampleRtt);

static void BM_TwoPhaseMeasurement(benchmark::State& state) {
  auto& bed = shared_bed();
  netsim::HostProfile p;
  p.location = {48.2, 16.4};
  netsim::HostId target = bed.add_host(p);
  measure::ProbeFn probe = [&](std::size_t lm) {
    return measure::CliTool::measure_ms(bed.net(), target,
                                        bed.landmark_host(lm));
  };
  Rng rng(9);
  for (auto _ : state) {
    auto r = measure::two_phase_measure(bed, probe, rng);
    benchmark::DoNotOptimize(r.observations.size());
  }
}
BENCHMARK(BM_TwoPhaseMeasurement);

// The resilient engine on a healthy testbed: same measurement plan as
// BM_TwoPhaseMeasurement, so the delta between the two is the pure
// bookkeeping overhead of the fault machinery (target: < 10%).
static void BM_TwoPhaseResilientNoFaults(benchmark::State& state) {
  auto& bed = shared_bed();
  netsim::HostProfile p;
  p.location = {48.2, 16.4};
  netsim::HostId target = bed.add_host(p);
  measure::ProbeFn probe = [&](std::size_t lm) {
    return measure::CliTool::measure_ms(bed.net(), target,
                                        bed.landmark_host(lm));
  };
  Rng rng(9);
  for (auto _ : state) {
    measure::CampaignEngine engine(probe);
    auto r = measure::two_phase_measure(bed, engine, rng);
    benchmark::DoNotOptimize(r.stats.probes_sent);
  }
}
BENCHMARK(BM_TwoPhaseResilientNoFaults);

static void BM_FullLocate(benchmark::State& state) {
  auto& bed = shared_bed();
  netsim::HostProfile p;
  p.location = {48.2, 16.4};
  netsim::HostId target = bed.add_host(p);
  measure::ProbeFn probe = [&](std::size_t lm) {
    return measure::CliTool::measure_ms(bed.net(), target,
                                        bed.landmark_host(lm));
  };
  Rng rng(10);
  auto tp = measure::two_phase_measure(bed, probe, rng);
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  grid::Region mask = bed.world().plausibility_mask(g);
  algos::CbgPlusPlusGeolocator locator;
  for (auto _ : state) {
    auto est = locator.locate(g, bed.store(), tp.observations, &mask);
    benchmark::DoNotOptimize(est.area_km2());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0));
}
BENCHMARK(BM_FullLocate)->Arg(200)->Arg(100)->Arg(50);

// Spotter's full locate (ring multiplies + credible region) through a
// warm CapPlanCache — the steady-state cost of the probability-field
// pipeline per proxy. Compare against a second instance without a cache
// by toggling range(1).
static void BM_SpotterLocate(benchmark::State& state) {
  auto& bed = shared_bed();
  netsim::HostProfile p;
  p.location = {48.2, 16.4};
  netsim::HostId target = bed.add_host(p);
  measure::ProbeFn probe = [&](std::size_t lm) {
    return measure::CliTool::measure_ms(bed.net(), target,
                                        bed.landmark_host(lm));
  };
  Rng rng(10);
  auto tp = measure::two_phase_measure(bed, probe, rng);
  grid::Grid g(static_cast<double>(state.range(0)) / 100.0);
  grid::Region mask = bed.world().plausibility_mask(g);
  algos::SpotterGeolocator locator;
  grid::CapPlanCache cache;
  const bool cached = state.range(1) != 0;
  if (cached) {
    locator.set_plan_cache(&cache);
    // Warm the per-landmark plans + distance tables: an audit pays the
    // build once per landmark and amortises it over every proxy, so the
    // steady state is what this loop should see.
    benchmark::DoNotOptimize(
        locator.locate(g, bed.store(), tp.observations, &mask).area_km2());
  }
  for (auto _ : state) {
    auto est = locator.locate(g, bed.store(), tp.observations, &mask);
    benchmark::DoNotOptimize(est.area_km2());
  }
  state.SetLabel("cell_deg=" + std::to_string(state.range(0) / 100.0) +
                 (cached ? " plan_cache=on" : " plan_cache=off"));
}
BENCHMARK(BM_SpotterLocate)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({50, 1})
    ->Args({25, 1});

static void BM_TestbedCalibration(benchmark::State& state) {
  for (auto _ : state) {
    measure::TestbedConfig cfg;
    cfg.seed = 77;
    cfg.constellation.n_anchors = static_cast<int>(state.range(0));
    cfg.constellation.n_probes = static_cast<int>(state.range(0));
    measure::Testbed bed(cfg);
    benchmark::DoNotOptimize(bed.store().size());
  }
}
BENCHMARK(BM_TestbedCalibration)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
