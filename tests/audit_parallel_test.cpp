// The parallel audit fan-out: bit-identical to serial, and the
// primitives underneath it (parallel_for, network lanes) behave as
// documented.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "assess/audit.hpp"
#include "assess/explain.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "measure/testbed.hpp"
#include "netsim/adversary.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "world/fleet.hpp"
#include "refine_hook.hpp"

using namespace ageo;
using namespace ageo::assess;

// ---- parallel_for ----

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (int threads : {1, 2, 4, 0}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    parallel_for(hits.size(), threads, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeAndSingleItem) {
  int calls = 0;
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsWorkerException) {
  EXPECT_THROW(
      parallel_for(64, 4,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Serial path rethrows too.
  EXPECT_THROW(
      parallel_for(4, 1,
                   [&](std::size_t i) {
                     if (i == 2) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ResolveThreads) {
  EXPECT_EQ(resolve_threads(1, 100), 1);
  EXPECT_EQ(resolve_threads(4, 100), 4);
  EXPECT_EQ(resolve_threads(4, 2), 2);  // never more workers than items
  EXPECT_EQ(resolve_threads(-3, 100), 1);
  EXPECT_GE(resolve_threads(0, 1000), 1);  // hardware concurrency
}

// ---- the audit itself ----

namespace {

measure::TestbedConfig small_bed_config() {
  measure::TestbedConfig cfg;
  cfg.seed = 4242;
  cfg.constellation.n_anchors = 100;
  cfg.constellation.n_probes = 150;
  return cfg;
}

world::Fleet small_fleet(const world::WorldModel& w) {
  auto specs = world::default_provider_specs();
  specs.resize(2);
  specs[0].target_servers = 8;
  specs[0].n_real_sites = 3;
  specs[1].target_servers = 6;
  specs[1].n_real_sites = 2;
  return world::generate_fleet(w, specs, 77);
}

AuditConfig audit_config(int threads) {
  AuditConfig cfg;
  cfg.grid_cell_deg = 2.0;
  cfg.threads = threads;
  cfg.refine = test::refine_schedule_from_env(cfg.grid_cell_deg);
  return cfg;
}

AuditConfig refined_audit_config(int threads) {
  AuditConfig cfg = audit_config(threads);
  cfg.refine = mlat::RefineSchedule::parse("4");
  return cfg;
}

/// Every field of every row, plus report-level aggregates.
void expect_reports_identical(const AuditReport& a, const AuditReport& b) {
  EXPECT_EQ(a.eta.eta, b.eta.eta);
  EXPECT_EQ(a.eta.n_proxies, b.eta.n_proxies);
  EXPECT_EQ(a.campaign_totals, b.campaign_totals);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    EXPECT_EQ(x.host_index, y.host_index);
    EXPECT_EQ(x.provider, y.provider);
    EXPECT_EQ(x.claimed, y.claimed);
    EXPECT_EQ(x.true_country, y.true_country);
    // The two reports come from distinct Auditor grids, so compare cell
    // bitmasks, not Region identity (operator== also checks the grid).
    EXPECT_TRUE(x.region.words() == y.region.words());
    ASSERT_EQ(x.observations.size(), y.observations.size());
    for (std::size_t k = 0; k < x.observations.size(); ++k) {
      EXPECT_EQ(x.observations[k].landmark_id, y.observations[k].landmark_id);
      EXPECT_EQ(x.observations[k].one_way_delay_ms,
                y.observations[k].one_way_delay_ms);
    }
    EXPECT_EQ(x.verdict_raw, y.verdict_raw);
    EXPECT_EQ(x.verdict_dc, y.verdict_dc);
    EXPECT_EQ(x.verdict_final, y.verdict_final);
    EXPECT_EQ(x.continent_verdict, y.continent_verdict);
    EXPECT_EQ(x.candidates, y.candidates);
    EXPECT_EQ(x.empty_prediction, y.empty_prediction);
    EXPECT_EQ(x.area_km2, y.area_km2);
    EXPECT_EQ(x.centroid.has_value(), y.centroid.has_value());
    if (x.centroid && y.centroid) {
      EXPECT_EQ(*x.centroid, *y.centroid);
    }
    EXPECT_EQ(x.nearest_landmark_km, y.nearest_landmark_km);
    EXPECT_EQ(x.iclab_accepted, y.iclab_accepted);
    EXPECT_EQ(x.campaign, y.campaign);
    EXPECT_EQ(x.tunnel_flagged, y.tunnel_flagged);
    EXPECT_EQ(x.constraints_total, y.constraints_total);
    EXPECT_EQ(x.constraints_used, y.constraints_used);
    EXPECT_EQ(x.landmark_used, y.landmark_used);
    EXPECT_EQ(x.byzantine, y.byzantine);
  }
  EXPECT_EQ(a.suspicion, b.suspicion);
  EXPECT_EQ(a.suspicious_landmarks, b.suspicious_landmarks);
  EXPECT_EQ(a.drift, b.drift);
  EXPECT_EQ(a.drift_flagged, b.drift_flagged);
}

}  // namespace

TEST(ParallelAudit, ParallelReportBitIdenticalToSerial) {
  // Two testbeds built from one config are bit-identical worlds; run()
  // mutates its bed (registers hosts), so each run needs a fresh one.
  measure::Testbed bed_serial(small_bed_config());
  measure::Testbed bed_parallel(small_bed_config());
  auto fleet = small_fleet(bed_serial.world());

  Auditor serial(bed_serial, audit_config(1));
  Auditor parallel(bed_parallel, audit_config(4));
  auto a = serial.run(fleet);
  auto b = parallel.run(fleet);
  ASSERT_EQ(a.rows.size(), fleet.hosts.size());
  expect_reports_identical(a, b);
}

TEST(ParallelAudit, ByzantineAuditParallelBitIdenticalToSerial) {
  // With a quarter of the landmarks deflating, the subset engine takes
  // its slow (coverage-sweep) path and rows carry nonzero byzantine
  // diagnostics; all of it — flags, used vectors, the suspicion table —
  // must stay bit-identical across thread counts, because adversarial
  // draws are keyed on (seed, lane, host, round), never on scheduling.
  auto compromise = [](measure::Testbed& bed) {
    std::vector<netsim::HostId> hosts;
    for (std::size_t i = 0; i < bed.landmarks().size(); ++i)
      hosts.push_back(bed.landmark_host(i));
    return netsim::attach_adversaries(bed.net(), hosts, 0.25, "deflate",
                                      2024, geo::LatLon{40.0, -100.0});
  };
  measure::Testbed bed_serial(small_bed_config());
  measure::Testbed bed_parallel(small_bed_config());
  auto fleet = small_fleet(bed_serial.world());
  auto c1 = compromise(bed_serial);
  auto c2 = compromise(bed_parallel);
  ASSERT_EQ(c1, c2);  // pick_colluders is deterministic
  ASSERT_GT(c1.size(), 0u);

  Auditor serial(bed_serial, audit_config(1));
  Auditor parallel(bed_parallel, audit_config(4));
  auto a = serial.run(fleet);
  auto b = parallel.run(fleet);
  expect_reports_identical(a, b);
  // The attack actually bit: at least one solve excluded somebody.
  std::uint64_t excluded = 0;
  for (const auto& e : a.suspicion.entries()) excluded += e.excluded;
  EXPECT_GT(excluded, 0u);
}

TEST(ParallelAudit, HardwareThreadsModeRuns) {
  measure::Testbed bed(small_bed_config());
  auto fleet = small_fleet(bed.world());
  Auditor auditor(bed, audit_config(0));  // one worker per hardware thread
  auto report = auditor.run(fleet);
  EXPECT_EQ(report.rows.size(), fleet.hosts.size());
  std::set<std::size_t> indices;
  for (const auto& r : report.rows) indices.insert(r.host_index);
  EXPECT_EQ(indices.size(), fleet.hosts.size());
}

TEST(ParallelAudit, SpotterAuditParallelBitIdenticalToSerial) {
  // The probability-field path under the fan-out: shared plan cache,
  // lazily-built (call_once) per-landmark distance tables, windowed
  // multiplies. Must stay bit-identical to the serial run, and the cache
  // counters must surface on the report.
  measure::Testbed bed_serial(small_bed_config());
  measure::Testbed bed_parallel(small_bed_config());
  auto fleet = small_fleet(bed_serial.world());

  AuditConfig serial_cfg = audit_config(1);
  serial_cfg.algorithm = AuditAlgorithm::kSpotter;
  AuditConfig parallel_cfg = audit_config(4);
  parallel_cfg.algorithm = AuditAlgorithm::kSpotter;

  Auditor serial(bed_serial, serial_cfg);
  Auditor parallel(bed_parallel, parallel_cfg);
  auto a = serial.run(fleet);
  auto b = parallel.run(fleet);
  expect_reports_identical(a, b);
  EXPECT_GT(a.plan_cache.misses, 0u);
  EXPECT_GT(a.plan_cache.hits, 0u);
  EXPECT_EQ(a.plan_cache.misses, b.plan_cache.misses);
}

TEST(ParallelAudit, HybridAuditRuns) {
  // The hybrid shares the plan cache through intersect_rings.
  measure::Testbed bed(small_bed_config());
  auto fleet = small_fleet(bed.world());
  AuditConfig cfg = audit_config(2);
  cfg.algorithm = AuditAlgorithm::kHybrid;
  // Flat solves even under the refine CI hook: a 4-degree level on this
  // 2-degree grid is small enough for the per-cell sparse tail, which
  // never looks up a plan.
  cfg.refine = {};
  Auditor auditor(bed, cfg);
  auto report = auditor.run(fleet);
  EXPECT_EQ(report.rows.size(), fleet.hosts.size());
  EXPECT_GT(report.plan_cache.hits + report.plan_cache.misses, 0u);
}

TEST(ParallelAudit, RefinedAuditBitIdenticalToFlatAcrossAlgorithmsAndThreads) {
  // The coarse-to-fine driver is a pure performance lever: for every
  // locator the refined audit report must equal the flat one field for
  // field, serial and threaded alike.
  for (const AuditAlgorithm algo :
       {AuditAlgorithm::kCbgPlusPlus, AuditAlgorithm::kSpotter,
        AuditAlgorithm::kHybrid}) {
    SCOPED_TRACE(static_cast<int>(algo));
    measure::Testbed bed_flat(small_bed_config());
    measure::Testbed bed_refined(small_bed_config());
    measure::Testbed bed_refined_mt(small_bed_config());
    auto fleet = small_fleet(bed_flat.world());

    AuditConfig flat_cfg = audit_config(1);
    flat_cfg.algorithm = algo;
    flat_cfg.refine = {};  // force the flat path even under the CI hook
    AuditConfig ref_cfg = refined_audit_config(1);
    ref_cfg.algorithm = algo;
    AuditConfig ref_mt_cfg = refined_audit_config(4);
    ref_mt_cfg.algorithm = algo;

    Auditor flat(bed_flat, flat_cfg);
    Auditor refined(bed_refined, ref_cfg);
    Auditor refined_mt(bed_refined_mt, ref_mt_cfg);
    auto a = flat.run(fleet);
    auto b = refined.run(fleet);
    auto c = refined_mt.run(fleet);
    expect_reports_identical(a, b);
    expect_reports_identical(a, c);
  }
}

TEST(ParallelAudit, AuditorFitsOnlyTheCalibrationFamiliesItsAuditReads) {
  // The constructor fits the drift watchdog's plain CBG plus the
  // algorithm's own family, once; the run then reads only those.
#if AGEO_OBS_ENABLED
  const bool prev = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto fits = [] {
    std::vector<std::uint64_t> n;
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    for (const char* family : {"calib.family_fits.cbg",
                               "calib.family_fits.cbg_slowline",
                               "calib.family_fits.octant",
                               "calib.family_fits.spotter"}) {
      std::uint64_t v = 0;
      for (const auto& c : snap.counters)
        if (c.name == family) v = c.value;
      n.push_back(v);
    }
    return n;
  };
  struct Case {
    AuditAlgorithm algorithm;
    bool use_slowline;
    std::vector<std::uint64_t> want;  // cbg, slowline, octant, spotter
  };
  for (const Case& c : {Case{AuditAlgorithm::kCbgPlusPlus, true, {1, 1, 0, 0}},
                        Case{AuditAlgorithm::kCbgPlusPlus, false, {1, 0, 0, 0}},
                        Case{AuditAlgorithm::kSpotter, true, {1, 0, 0, 1}},
                        Case{AuditAlgorithm::kHybrid, true, {1, 0, 0, 1}}}) {
    SCOPED_TRACE(std::string(to_string(c.algorithm)) +
                 (c.use_slowline ? "" : " without slowline"));
    measure::Testbed bed(small_bed_config());
    auto fleet = small_fleet(bed.world());
    fleet.hosts.resize(4);
    AuditConfig cfg = audit_config(2);
    cfg.algorithm = c.algorithm;
    cfg.cbg_pp.use_slowline = c.use_slowline;
    const std::vector<std::uint64_t> before = fits();
    Auditor auditor(bed, cfg);
    std::vector<std::uint64_t> built = fits();
    (void)auditor.run(fleet);
    const std::vector<std::uint64_t> ran = fits();
    for (std::size_t f = 0; f < built.size(); ++f) built[f] -= before[f];
    EXPECT_EQ(built, c.want);
    for (std::size_t f = 0; f < ran.size(); ++f)
      EXPECT_EQ(ran[f] - before[f], c.want[f]) << f;
  }
  obs::set_metrics_enabled(prev);
#else
  GTEST_SKIP() << "needs the obs counters (AGEO_OBS=ON)";
#endif
}

TEST(ParallelAudit, RefinedSteadyStateGridAllocationsAreZero) {
  // The zero-allocation claim extends to the windowed path: coarse
  // regions, window bookkeeping, the ladder's sort keys and the refined
  // Spotter's leased posterior Field all come from the thread's pools,
  // so a warm refined audit allocates nothing.
#if AGEO_OBS_ENABLED
  const bool prev = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  measure::Testbed bed(small_bed_config());
  auto fleet = small_fleet(bed.world());
  fleet.hosts.resize(3);

  AuditConfig cfg = refined_audit_config(1);
  cfg.algorithm = AuditAlgorithm::kSpotter;  // the refined posterior
  Auditor auditor(bed, cfg);
  (void)auditor.run(fleet);  // warmup
  auto r1 = auditor.run(fleet);
  auto r2 = auditor.run(fleet);
  obs::set_metrics_enabled(prev);

  const auto counter = [](const auto& snapshot, std::string_view name) {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return decltype(snapshot.counters.front().value){0};
  };
  for (const char* name :
       {"grid.alloc.region_buffers", "grid.alloc.cover_buffers",
        "grid.alloc.field_buffers", "grid.alloc.index_buffers",
        "grid.alloc.double_buffers"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(counter(r1.telemetry, name), counter(r2.telemetry, name));
  }
  // Not vacuous: the refined Spotter actually leased its buffers.
  EXPECT_GT(counter(r2.telemetry, "mlat.scratch.double_acquires"),
            counter(r1.telemetry, "mlat.scratch.double_acquires"));
  EXPECT_GT(counter(r2.telemetry, "mlat.scratch.field_acquires"),
            counter(r1.telemetry, "mlat.scratch.field_acquires"));
  EXPECT_GT(counter(r2.telemetry, "mlat.refine.solves"),
            counter(r1.telemetry, "mlat.refine.solves"));
#endif
}

TEST(ParallelAudit, TelemetrySnapshotByteIdenticalAcrossThreadCounts) {
  // The metrics registry is process-global and cumulative, so each pass
  // resets it; reset keeps registrations, so both passes serialize the
  // same metric set. The deterministic view (wall-clock metrics
  // filtered) must be byte-identical between threads=1 and threads=4,
  // for a CBG++ and a Spotter audit (whose per-solve start-size
  // histogram is deterministic too).
  for (const AuditAlgorithm algo :
       {AuditAlgorithm::kCbgPlusPlus, AuditAlgorithm::kSpotter}) {
    SCOPED_TRACE(static_cast<int>(algo));
    const bool prev = obs::metrics_enabled();
    obs::set_metrics_enabled(true);

    measure::Testbed bed_serial(small_bed_config());
    measure::Testbed bed_parallel(small_bed_config());
    auto fleet = small_fleet(bed_serial.world());

    AuditConfig serial_cfg = audit_config(1);
    serial_cfg.algorithm = algo;
    AuditConfig parallel_cfg = audit_config(4);
    parallel_cfg.algorithm = algo;

    obs::Registry::global().reset();
    Auditor serial(bed_serial, serial_cfg);
    auto a = serial.run(fleet);

    obs::Registry::global().reset();
    Auditor parallel(bed_parallel, parallel_cfg);
    auto b = parallel.run(fleet);

    obs::set_metrics_enabled(prev);

#if AGEO_OBS_ENABLED
    ASSERT_FALSE(a.telemetry.empty());
    ASSERT_FALSE(b.telemetry.empty());
    EXPECT_EQ(a.telemetry.to_prometheus(false),
              b.telemetry.to_prometheus(false));
    EXPECT_EQ(a.telemetry.to_json(false), b.telemetry.to_json(false));

    // Spot-check the registry-backed CampaignStats view against the
    // report's own serial fold.
    bool saw_probes = false, saw_rounds = false;
    for (const auto& c : a.telemetry.counters) {
      if (c.name == "measure.campaign.probes_sent") {
        EXPECT_EQ(c.value, a.campaign_totals.probes_sent);
        saw_probes = true;
      }
      if (c.name == "measure.campaign.rounds") {
        EXPECT_EQ(c.value, a.campaign_totals.rounds);
        saw_rounds = true;
      }
      // The audit scans only through its plan cache.
      if (c.name == "grid.plan.uncached_builds") {
        EXPECT_EQ(c.value, 0u);
      }
    }
    EXPECT_TRUE(saw_probes);
    EXPECT_TRUE(saw_rounds);
    if (algo == AuditAlgorithm::kSpotter) {
      bool saw_starts = false;
      for (const auto& h : a.telemetry.histograms) {
        if (h.name != "mlat.spotter.start_cells_per_solve") continue;
        EXPECT_EQ(h.count, a.rows.size());  // one Spotter solve per proxy
        saw_starts = true;
      }
      EXPECT_TRUE(saw_starts);
    }
#else
    // -DAGEO_OBS=OFF compiles the instrumentation away entirely: nothing
    // registers, so the snapshot stays empty even with metrics enabled.
    EXPECT_TRUE(a.telemetry.empty());
    EXPECT_TRUE(b.telemetry.empty());
#endif
  }
}

TEST(ParallelAudit, TelemetryEmptyWhenDisabled) {
  measure::Testbed bed(small_bed_config());
  auto fleet = small_fleet(bed.world());
  obs::set_metrics_enabled(false);
  Auditor auditor(bed, audit_config(2));
  auto report = auditor.run(fleet);
  EXPECT_TRUE(report.telemetry.empty());
}

TEST(ParallelAudit, SteadyStateGridAllocationsAreZero) {
  // The zero-allocation claim, asserted: after a warm audit, re-auditing
  // the same proxies acquires every grid buffer (regions, LCS coverage
  // planes, fields, index scratch) from the thread's Scratch pool, so
  // the cumulative grid.alloc.* counters must not move at all.
#if AGEO_OBS_ENABLED
  const bool prev = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  measure::Testbed bed(small_bed_config());
  auto fleet = small_fleet(bed.world());
  fleet.hosts.resize(3);  // 3-proxy warm loop

  // threads=1 keeps the workers on this thread, so the warmup run and
  // the measured runs share one thread-local arena.
  Auditor auditor(bed, audit_config(1));
  (void)auditor.run(fleet);  // warmup: pools, plan cache, distance tables
  auto r1 = auditor.run(fleet);
  auto r2 = auditor.run(fleet);
  obs::set_metrics_enabled(prev);

  const auto counter = [](const auto& snapshot, std::string_view name) {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return decltype(snapshot.counters.front().value){0};
  };
  for (const char* name :
       {"grid.alloc.region_buffers", "grid.alloc.cover_buffers",
        "grid.alloc.field_buffers", "grid.alloc.index_buffers"}) {
    SCOPED_TRACE(name);
    // Cumulative counters: flat between consecutive warm runs means zero
    // allocations per proxy in steady state.
    EXPECT_EQ(counter(r1.telemetry, name), counter(r2.telemetry, name));
  }
  // The audit exercised the pooled paths at all (the claim is not
  // vacuous): the arena handed out buffers during the measured runs.
  // (Only the baseline-region lease is guaranteed: consistent testbeds
  // resolve through the intersect-first subset fast path, which never
  // touches the coverage-plane `words` pool.)
  EXPECT_GT(counter(r2.telemetry, "mlat.scratch.region_acquires"),
            counter(r1.telemetry, "mlat.scratch.region_acquires"));
#endif
}

TEST(ParallelAudit, ParallelWarmUpTablesEqualLazySerial) {
  // warm_countries builds each missing landmark table in its own worker
  // task. Duplicate ids and already-warm ids must neither race (the TSan
  // build runs this) nor change a bit of any table.
  measure::Testbed bed(small_bed_config());
  const std::size_t n = bed.world().country_count();
  ASSERT_GT(n, 8u);
  Auditor parallel(bed, audit_config(4));
  (void)parallel.country_landmark_km(3);  // table built lazily
  const std::vector<world::CountryId> early = {5, 5, 7};
  parallel.warm_countries(early);  // region and table warmed
  std::vector<world::CountryId> ids;
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t id = n; id-- > 0;)
      ids.push_back(static_cast<world::CountryId>(id));
  parallel.warm_countries(ids);

  Auditor lazy(bed, audit_config(1));
  for (std::size_t k = 0; k < n; ++k) {
    const auto id = static_cast<world::CountryId>(k);
    const auto got = parallel.country_landmark_km(id);
    const auto want = lazy.country_landmark_km(id);
    ASSERT_EQ(got.size(), want.size()) << "country " << id;
    for (std::size_t j = 0; j < want.size(); ++j)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                std::bit_cast<std::uint64_t>(want[j]))
          << "country " << id << " landmark " << j;
  }
}

TEST(ParallelAudit, RerunIsDeterministic) {
  // Two parallel runs over identical worlds agree with each other (no
  // hidden scheduling dependence, warm plan cache included).
  measure::Testbed bed1(small_bed_config());
  measure::Testbed bed2(small_bed_config());
  auto fleet = small_fleet(bed1.world());
  Auditor a1(bed1, audit_config(3));
  Auditor a2(bed2, audit_config(2));
  expect_reports_identical(a1.run(fleet), a2.run(fleet));
}

// ---- drift watchdogs ----

TEST(DriftWatchdog, AsymmetricThresholdsAndWarmup) {
  measure::DriftConfig cfg;
  cfg.ewma_alpha = 1.0;  // EWMA = last sample, for exact arithmetic
  cfg.deflate_ms = 10.0;
  cfg.inflate_ms = 150.0;
  cfg.min_samples = 3;
  measure::DriftWatchdog dog(4, cfg);
  // Landmark 0: honest residuals (small positive) — never flagged.
  // Landmark 1: impossible-fast replies — flagged once warmed up.
  // Landmark 2: mild positive drift below the wide inflate bar.
  // Landmark 3: pathological inflation.
  for (int i = 0; i < 2; ++i) dog.observe(1, -40.0);
  EXPECT_FALSE(dog.is_flagged(1)) << "min_samples gates the verdict";
  for (int i = 0; i < 4; ++i) {
    dog.observe(0, 3.0);
    dog.observe(1, -40.0);
    dog.observe(2, 60.0);
    dog.observe(3, 500.0);
  }
  EXPECT_FALSE(dog.is_flagged(0));
  EXPECT_TRUE(dog.is_flagged(1));
  EXPECT_FALSE(dog.is_flagged(2)) << "positive drift needs a wide margin";
  EXPECT_TRUE(dog.is_flagged(3));
  EXPECT_EQ(dog.flagged(), (std::vector<std::size_t>{1, 3}));
  // Degraded inputs are ignored, never fatal.
  dog.observe(99, 1.0);
  dog.observe(0, std::nan(""));
  EXPECT_EQ(dog.entries()[0].samples, 4u);
}

TEST(DriftWatchdog, ConstructorRejectsBadConfig) {
  // A bad alpha must not be swapped for a default, and a NaN threshold
  // would never flag: the constructor throws, naming the field.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  using D = measure::DriftConfig;
  const std::pair<const char*, void (*)(D&)> cases[] = {
      {"drift.ewma_alpha", [](D& d) { d.ewma_alpha = kNaN; }},
      {"drift.ewma_alpha", [](D& d) { d.ewma_alpha = 0.0; }},
      {"drift.ewma_alpha", [](D& d) { d.ewma_alpha = 1.5; }},
      {"drift.deflate_ms", [](D& d) { d.deflate_ms = kNaN; }},
      {"drift.inflate_ms", [](D& d) { d.inflate_ms = kNaN; }},
  };
  for (const auto& [field, apply] : cases) {
    measure::DriftConfig cfg;
    apply(cfg);
    try {
      measure::DriftWatchdog dog(4, cfg);
      ADD_FAILURE() << field << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

// ---- verdict provenance journal ----

namespace {

/// Journal the given audit on a fresh testbed; returns the JSONL dump
/// capped at `scope`. Resets the process-global journal around the run.
std::string journaled_run(const AuditConfig& cfg, obs::Scope scope,
                          double attackers = 0.0) {
  measure::Testbed bed(small_bed_config());
  if (attackers > 0.0) {
    std::vector<netsim::HostId> hosts;
    for (std::size_t i = 0; i < bed.landmarks().size(); ++i)
      hosts.push_back(bed.landmark_host(i));
    netsim::attach_adversaries(bed.net(), hosts, attackers, "deflate", 2024,
                               geo::LatLon{40.0, -100.0});
  }
  auto fleet = small_fleet(bed.world());
  obs::reset_journal();
  obs::set_journal_enabled(true);
  Auditor auditor(bed, cfg);
  (void)auditor.run(fleet);
  obs::set_journal_enabled(false);
  const auto dump = obs::collect_journal();
  obs::reset_journal();
  EXPECT_EQ(dump.dropped, 0u);
  return obs::journal_to_jsonl(dump, scope);
}

}  // namespace

TEST(ParallelAudit, JournalByteIdenticalAcrossThreadCounts) {
  if (!obs::journal_runtime_on() && !obs::journal_enabled()) {
    // Probe: under -DAGEO_OBS=OFF the audit never journals.
    obs::set_journal_enabled(true);
    const bool on = obs::journal_runtime_on();
    obs::set_journal_enabled(false);
    if (!on) GTEST_SKIP() << "observability compiled out";
  }
  // Everything below wall-clock scope must merge byte-identically
  // whatever the fan-out: seq keys are per-proxy, phases are
  // barrier-separated, run events come from the serial epilogue.
  const std::string serial =
      journaled_run(audit_config(1), obs::Scope::kSchedule);
  const std::string threaded =
      journaled_run(audit_config(4), obs::Scope::kSchedule);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
}

TEST(ParallelAudit, JournalVerdictViewInvariantAcrossThreadsAndRefine) {
  {
    obs::set_journal_enabled(true);
    const bool on = obs::journal_runtime_on();
    obs::set_journal_enabled(false);
    if (!on) GTEST_SKIP() << "observability compiled out";
  }
  // The kVerdict view records only execution-schedule-invariant facts,
  // so changing the thread count AND the refinement ladder (a
  // bit-identical performance lever) must not move a byte.
  AuditConfig flat_cfg = audit_config(1);
  flat_cfg.refine = {};
  const std::string flat = journaled_run(flat_cfg, obs::Scope::kVerdict);
  const std::string threaded =
      journaled_run(audit_config(4), obs::Scope::kVerdict);
  const std::string refined =
      journaled_run(refined_audit_config(2), obs::Scope::kVerdict);
  ASSERT_FALSE(flat.empty());
  EXPECT_EQ(flat, threaded);
  EXPECT_EQ(flat, refined);
}

TEST(ParallelAudit, JournalByteIdenticalUnderByzantineFleet) {
  {
    obs::set_journal_enabled(true);
    const bool on = obs::journal_runtime_on();
    obs::set_journal_enabled(false);
    if (!on) GTEST_SKIP() << "observability compiled out";
  }
  // A quarter of the landmarks deflating pushes the subset engine onto
  // its slow path and populates the suspicion/drift run events; the
  // journal must still be schedule-independent.
  const std::string serial =
      journaled_run(audit_config(1), obs::Scope::kSchedule, 0.25);
  const std::string threaded =
      journaled_run(audit_config(4), obs::Scope::kSchedule, 0.25);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial.find("\"kind\":\"suspicion\""), std::string::npos);
}

TEST(ParallelAudit, DriftWatchdogFlagsOnlyCompromisedLandmarks) {
  // Honest fleet: residuals hug the bestline from above, nothing trips.
  measure::Testbed honest_bed(small_bed_config());
  auto fleet = small_fleet(honest_bed.world());
  AuditConfig cfg = audit_config(2);
  cfg.drift.min_samples = 2;  // small fleet: few samples per landmark
  {
    Auditor auditor(honest_bed, cfg);
    auto report = auditor.run(fleet);
    std::uint64_t samples = 0;
    for (const auto& e : report.drift) samples += e.samples;
    EXPECT_GT(samples, 0u) << "watchdogs saw no residuals at all";
    EXPECT_TRUE(report.drift_flagged.empty())
        << "honest landmark tripped a drift watchdog";
  }
  // A quarter of the landmarks deflating: impossible-fast replies push
  // their EWMAs strongly negative. Every trip must be a real attacker.
  measure::Testbed byz_bed(small_bed_config());
  std::vector<netsim::HostId> hosts;
  for (std::size_t i = 0; i < byz_bed.landmarks().size(); ++i)
    hosts.push_back(byz_bed.landmark_host(i));
  auto compromised = netsim::attach_adversaries(
      byz_bed.net(), hosts, 0.25, "deflate", 2024, geo::LatLon{40.0, -100.0});
  ASSERT_FALSE(compromised.empty());
  Auditor auditor(byz_bed, cfg);
  auto report = auditor.run(fleet);
  EXPECT_FALSE(report.drift_flagged.empty())
      << "no deflating landmark drifted past the threshold";
  for (std::size_t id : report.drift_flagged) {
    SCOPED_TRACE("landmark " + std::to_string(id));
    EXPECT_NE(std::find(compromised.begin(), compromised.end(),
                        byz_bed.landmark_host(id)),
              compromised.end());
    // Flagged landmarks are folded into the report's suspicious set.
    EXPECT_NE(std::find(report.suspicious_landmarks.begin(),
                        report.suspicious_landmarks.end(), id),
              report.suspicious_landmarks.end());
  }
}

TEST(ParallelAudit, ExplainRendersProvenanceFromJournalAlone) {
  {
    obs::set_journal_enabled(true);
    const bool on = obs::journal_runtime_on();
    obs::set_journal_enabled(false);
    if (!on) GTEST_SKIP() << "observability compiled out";
  }
  // Byzantine fleet, journaled; then the narratives for one honest and
  // one attacked proxy are rendered from the *re-parsed JSONL text* —
  // the journal alone must reproduce the constraint set, the subset
  // verdict, and the suspicion evidence.
  measure::Testbed bed(small_bed_config());
  std::vector<netsim::HostId> hosts;
  for (std::size_t i = 0; i < bed.landmarks().size(); ++i)
    hosts.push_back(bed.landmark_host(i));
  auto compromised = netsim::attach_adversaries(
      bed.net(), hosts, 0.25, "deflate", 2024, geo::LatLon{40.0, -100.0});
  auto fleet = small_fleet(bed.world());
  AuditConfig cfg = audit_config(2);
  cfg.drift.min_samples = 2;
  obs::reset_journal();
  obs::set_journal_enabled(true);
  Auditor auditor(bed, cfg);
  auto report = auditor.run(fleet);
  obs::set_journal_enabled(false);
  const std::string jsonl = obs::journal_to_jsonl(obs::collect_journal());
  obs::reset_journal();
  const obs::JournalDump dump = obs::parse_journal_jsonl(jsonl);
  EXPECT_EQ(journaled_proxies(dump).size(), fleet.hosts.size());

  const auto count_of = [](const std::string& text, std::string_view tok) {
    std::size_t n = 0;
    for (std::size_t p = text.find(tok); p != std::string::npos;
         p = text.find(tok, p + 1))
      ++n;
    return n;
  };
  const auto verify = [&](const ProxyAuditRow& row) {
    SCOPED_TRACE("proxy " + std::to_string(row.host_index));
    const std::string text = explain_proxy(dump, row.host_index);
    // The exact constraint set, landmark by landmark.
    EXPECT_EQ(count_of(text, "] landmark "), row.observations.size());
    for (const auto& ob : row.observations)
      EXPECT_NE(text.find("landmark " + std::to_string(ob.landmark_id) +
                          " @ ("),
                std::string::npos);
    EXPECT_EQ(count_of(text, "DISCARDED"),
              row.constraints_total - row.constraints_used);
    EXPECT_NE(text.find(std::string("verdict: ") +
                        to_string(row.verdict_final)),
              std::string::npos);
    return text;
  };

  // One honest proxy: fully consistent constraint set, no flag.
  const ProxyAuditRow* honest = nullptr;
  for (const auto& row : report.rows)
    if (!row.byzantine && !row.observations.empty() &&
        row.constraints_used == row.constraints_total) {
      honest = &row;
      break;
    }
  ASSERT_NE(honest, nullptr);
  const std::string honest_text = verify(*honest);
  EXPECT_EQ(honest_text.find("BYZANTINE"), std::string::npos);

  // One attacked proxy: the subset engine discarded constraints.
  const ProxyAuditRow* attacked = nullptr;
  for (const auto& row : report.rows)
    if (row.constraints_used < row.constraints_total &&
        (!attacked || row.constraints_total - row.constraints_used >
                          attacked->constraints_total -
                              attacked->constraints_used))
      attacked = &row;
  ASSERT_NE(attacked, nullptr) << "deflate attack discarded nothing";
  const std::string attacked_text = verify(*attacked);
  if (attacked->byzantine) {
    EXPECT_NE(attacked_text.find("BYZANTINE"), std::string::npos);
  }

  // Suspicion evidence: fleet-wide flagged landmarks that constrained a
  // proxy must show up in its narrative with their tallies.
  ASSERT_FALSE(report.suspicious_landmarks.empty());
  bool evidence_checked = false;
  for (const auto& row : report.rows) {
    for (const auto& ob : row.observations) {
      if (std::find(report.suspicious_landmarks.begin(),
                    report.suspicious_landmarks.end(),
                    ob.landmark_id) == report.suspicious_landmarks.end())
        continue;
      const std::string text = explain_proxy(dump, row.host_index);
      EXPECT_NE(text.find("landmark evidence (fleet-wide):"),
                std::string::npos);
      EXPECT_NE(text.find("landmark " + std::to_string(ob.landmark_id) +
                          ":"),
                std::string::npos);
      evidence_checked = true;
      break;
    }
    if (evidence_checked) break;
  }
  EXPECT_TRUE(evidence_checked)
      << "no proxy was constrained by a suspicious landmark";
}
