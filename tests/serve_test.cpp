// The always-on audit service (src/serve): pool mechanics, scheduler
// ranking, bootstrap bit-identity against the batch Auditor oracle,
// streaming incremental re-localization vs full-solve oracles, thread
// invariance, Byzantine fleets, epoch snapshots (and hostile ones), and
// the auto-sized runtime (plan cache + scratch donation store).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "assess/audit.hpp"
#include "assess/explain.hpp"
#include "common/error.hpp"
#include "measure/testbed.hpp"
#include "netsim/adversary.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/pool.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "world/fleet.hpp"
#include "refine_hook.hpp"

using namespace ageo;

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

world::Fleet tiny_fleet(const world::WorldModel& w) {
  auto specs = world::default_provider_specs();
  specs.resize(1);
  specs[0].target_servers = 3;
  specs[0].n_real_sites = 2;
  return world::generate_fleet(w, specs, 77);
}

serve::ServiceConfig service_config(int threads) {
  serve::ServiceConfig cfg;
  cfg.audit.grid_cell_deg = 2.0;
  cfg.audit.threads = threads;
  // The service has no cross-proxy AS-grouping join; disable it on the
  // shared audit config so batch-oracle comparisons see the same
  // verdict_final semantics.
  cfg.audit.use_as_grouping = false;
  cfg.audit.refine = test::refine_schedule_from_env(cfg.audit.grid_cell_deg);
  return cfg;
}

/// The audit algorithms the bootstrap mirror tests run over.
constexpr assess::AuditAlgorithm kAlgorithms[] = {
    assess::AuditAlgorithm::kCbgPlusPlus, assess::AuditAlgorithm::kSpotter,
    assess::AuditAlgorithm::kHybrid};

/// CI matrix hook: AGEO_SERVE_ROUNDS overrides how many streaming
/// rounds the invariance tests run (the ctest serve entry cranks it up;
/// locally the default keeps the suite quick).
std::uint64_t serve_rounds(std::uint64_t def) {
  if (const char* s = std::getenv("AGEO_SERVE_ROUNDS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return def;
}

void expect_rows_identical(const std::vector<assess::ProxyAuditRow>& A,
                           const std::vector<assess::ProxyAuditRow>& B,
                           bool with_campaign) {
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t i = 0; i < A.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const auto& x = A[i];
    const auto& y = B[i];
    EXPECT_EQ(x.host_index, y.host_index);
    EXPECT_EQ(x.provider, y.provider);
    EXPECT_EQ(x.claimed, y.claimed);
    EXPECT_EQ(x.true_country, y.true_country);
    // Distinct services own distinct grids; compare cell bitmasks.
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
    EXPECT_EQ(x.constraints_total, y.constraints_total);
    EXPECT_EQ(x.constraints_used, y.constraints_used);
    EXPECT_EQ(x.landmark_used, y.landmark_used);
    EXPECT_EQ(x.byzantine, y.byzantine);
    if (with_campaign) {
      EXPECT_EQ(x.campaign, y.campaign);
      EXPECT_EQ(x.tunnel_flagged, y.tunnel_flagged);
    }
  }
}

/// `with_campaign` is off for restore comparisons: campaign fault
/// telemetry is bootstrap-only and deliberately not in the snapshot.
void expect_service_reports_identical(const serve::ServiceReport& a,
                                      const serve::ServiceReport& b,
                                      bool with_campaign = true,
                                      bool with_stats = true) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.eta.eta, b.eta.eta);
  EXPECT_EQ(a.eta.n_proxies, b.eta.n_proxies);
  expect_rows_identical(a.rows, b.rows, with_campaign);
  EXPECT_EQ(a.suspicion, b.suspicion);
  EXPECT_EQ(a.suspicious_landmarks, b.suspicious_landmarks);
  EXPECT_EQ(a.drift, b.drift);
  EXPECT_EQ(a.drift_flagged, b.drift_flagged);
  if (with_stats) {
    EXPECT_EQ(a.stats.rounds, b.stats.rounds);
    EXPECT_EQ(a.stats.probes, b.stats.probes);
    EXPECT_EQ(a.stats.probe_failures, b.stats.probe_failures);
    EXPECT_EQ(a.stats.observations_appended, b.stats.observations_appended);
    EXPECT_EQ(a.stats.observations_refreshed, b.stats.observations_refreshed);
    EXPECT_EQ(a.stats.incremental_updates, b.stats.incremental_updates);
    EXPECT_EQ(a.stats.full_resolves, b.stats.full_resolves);
    EXPECT_EQ(a.stats.memo_fallbacks, b.stats.memo_fallbacks);
    EXPECT_EQ(a.stats.solves, b.stats.solves);
    EXPECT_EQ(a.stats.verdict_changes, b.stats.verdict_changes);
    EXPECT_EQ(a.stats.deferred_picks, b.stats.deferred_picks);
  }
}

std::vector<netsim::HostId> compromise_landmarks(measure::Testbed& bed,
                                                 double fraction,
                                                 const char* strategy) {
  std::vector<netsim::HostId> hosts;
  hosts.reserve(bed.landmarks().size());
  for (std::size_t i = 0; i < bed.landmarks().size(); ++i)
    hosts.push_back(bed.landmark_host(i));
  return netsim::attach_adversaries(bed.net(), hosts, fraction, strategy,
                                    909, geo::LatLon{40.0, -100.0});
}

}  // namespace

// ---- pool mechanics ----

TEST(VerdictRing, PushWrapAndLatest) {
  serve::VerdictRing ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.latest(), std::nullopt);
  ring.push(assess::Verdict::kCredible);
  ring.push(assess::Verdict::kUncertain);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(0), assess::Verdict::kCredible);
  EXPECT_EQ(*ring.latest(), assess::Verdict::kUncertain);
  ring.push(assess::Verdict::kFalse);
  ring.push(assess::Verdict::kCredible);  // evicts the oldest
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.at(0), assess::Verdict::kUncertain);
  EXPECT_EQ(ring.at(1), assess::Verdict::kFalse);
  EXPECT_EQ(ring.at(2), assess::Verdict::kCredible);
  EXPECT_EQ(*ring.latest(), assess::Verdict::kCredible);
  // Zero-capacity ring stays empty (and allocation-free).
  serve::VerdictRing none(0);
  none.push(assess::Verdict::kFalse);
  EXPECT_TRUE(none.empty());
}

TEST(ProxyPool, AdmitFindAndShardBalance) {
  serve::ProxyPool pool;
  world::ProxyHost host;
  for (std::size_t id = 0; id < 10; ++id) pool.admit(id, host, 4);
  EXPECT_EQ(pool.size(), 10u);
  for (std::size_t id = 0; id < 10; ++id) {
    const serve::ProxyEntry* e = pool.find(id);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->id, id);
    EXPECT_EQ(e->status, serve::EntryStatus::kAdmitted);
  }
  EXPECT_EQ(pool.find(10), nullptr);
  EXPECT_EQ(pool.find(9999), nullptr);
  // Duplicate admits throw.
  EXPECT_THROW(pool.admit(3, host, 4), ageo::InvalidArgument);
  // for_each visits in ascending id order.
  std::vector<std::size_t> seen;
  pool.for_each([&](serve::ProxyEntry& e) { seen.push_back(e.id); });
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  // An id past a gap: the ids in between stay unadmitted.
  pool.admit(16, host, 4);
  EXPECT_EQ(pool.size(), 11u);
  EXPECT_EQ(pool.find(12), nullptr);
  ASSERT_NE(pool.find(16), nullptr);
  EXPECT_EQ(pool.find(16)->id, 16u);
}

TEST(ProxyPool, RankPrioritizesStaleAndUncertain) {
  serve::ProxyPool pool;
  world::ProxyHost host;
  for (std::size_t id = 0; id < 8; ++id) {
    serve::ProxyEntry& e = pool.admit(id, host, 4);
    e.status = serve::EntryStatus::kActive;
    e.last_solve_epoch = 0;
  }
  serve::SchedulerWeights w;  // credible 1.0, uncertain 3.0, false 2.0
  // id 0: credible, stale 4 -> 4.  id 1: uncertain, stale 2 -> 6.
  // id 2: false, stale 2 -> 4 (ties id 0, loses on id).  id 3: solved
  // this epoch -> excluded.  id 4: never audited -> uncertain weight,
  // stale 4 -> 12.  id 5: retired -> excluded.
  pool.find(0)->history.push(assess::Verdict::kCredible);
  pool.find(1)->history.push(assess::Verdict::kUncertain);
  pool.find(1)->last_solve_epoch = 2;
  pool.find(2)->history.push(assess::Verdict::kFalse);
  pool.find(2)->last_solve_epoch = 2;
  pool.find(3)->history.push(assess::Verdict::kUncertain);
  pool.find(3)->last_solve_epoch = 4;
  pool.find(5)->status = serve::EntryStatus::kRetired;
  pool.find(6)->history.push(assess::Verdict::kCredible);
  pool.find(7)->history.push(assess::Verdict::kCredible);

  auto order = pool.rank(w, 4, 8, false);
  // 4 (12), 1 (6), 0/2 tie at 4 (id asc), then 6, 7 (4 each, credible).
  ASSERT_GE(order.size(), 6u);
  EXPECT_EQ(order[0], 4u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 0u);
  EXPECT_EQ(order[3], 2u);
  // Excluded: retired (5) and solved-this-epoch (3).
  for (std::size_t id : order) {
    EXPECT_NE(id, 3u);
    EXPECT_NE(id, 5u);
  }
}

TEST(ProxyPool, RankQuotaKeepsHighestScores) {
  // Regression: with more candidates than quota the selection heap must
  // evict its WORST retained candidate, not its best — high scorers
  // arriving after the heap fills have to displace low ones.
  serve::ProxyPool pool;
  world::ProxyHost host;
  for (std::size_t id = 0; id < 12; ++id) {
    serve::ProxyEntry& e = pool.admit(id, host, 4);
    e.status = serve::EntryStatus::kActive;
    // Staleness grows with id, so the best candidates are admitted (and
    // scanned) last.
    e.last_solve_epoch = static_cast<std::int64_t>(11 - id);
    e.history.push(assess::Verdict::kCredible);
  }
  serve::SchedulerWeights w;
  auto order = pool.rank(w, 12, 3, false);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 11u);  // stale 11
  EXPECT_EQ(order[1], 10u);
  EXPECT_EQ(order[2], 9u);

  // include_admitted: a never-solved admitted entry ranks as an unknown.
  serve::ProxyEntry& fresh = pool.admit(12, host, 4);
  EXPECT_EQ(fresh.status, serve::EntryStatus::kAdmitted);
  auto with_admitted = pool.rank(w, 12, 3, true);
  ASSERT_EQ(with_admitted.size(), 3u);
  // score(12) = 3.0 * (12 - (-1)) = 39 — tops the board.
  EXPECT_EQ(with_admitted[0], 12u);
  auto without = pool.rank(w, 12, 3, false);
  for (std::size_t id : without) EXPECT_NE(id, 12u);
}

// ---- bootstrap: the batch Auditor is the oracle ----

TEST(AuditService, BootstrapBitIdenticalToBatchAuditor) {
  // Bootstrap runs the batch Auditor's two passes with the same seeds,
  // so on the same fleet every row field the service produces must match
  // the batch report bit for bit (AS-grouping off on both: the service's
  // streaming assessment has no cross-proxy join). Per algorithm: the
  // batch solve is locate, the bootstrap's captures a memo.
  for (const assess::AuditAlgorithm algo : kAlgorithms) {
    SCOPED_TRACE(assess::to_string(algo));
    measure::Testbed bed_batch(small_bed_config());
    measure::Testbed bed_serve(small_bed_config());
    auto fleet = small_fleet(bed_batch.world());

    serve::ServiceConfig cfg = service_config(2);
    cfg.audit.algorithm = algo;
    assess::Auditor auditor(bed_batch, cfg.audit);
    auto batch = auditor.run(fleet);

    serve::AuditService service(bed_serve, cfg);
    EXPECT_EQ(service.admit(fleet), fleet.hosts.size());
    service.bootstrap();
    auto rep = service.report();

    EXPECT_EQ(rep.epoch, 0u);
    EXPECT_EQ(rep.eta.eta, batch.eta.eta);
    EXPECT_EQ(rep.eta.n_proxies, batch.eta.n_proxies);
    expect_rows_identical(rep.rows, batch.rows, /*with_campaign=*/true);
    EXPECT_EQ(rep.suspicion, batch.suspicion);
    EXPECT_EQ(rep.suspicious_landmarks, batch.suspicious_landmarks);
    EXPECT_EQ(rep.drift, batch.drift);
    EXPECT_EQ(rep.drift_flagged, batch.drift_flagged);
    EXPECT_EQ(rep.stats.solves, fleet.hosts.size());
  }
}

namespace {

bool journal_compiled_in() {
  obs::set_journal_enabled(true);
  const bool on = obs::journal_runtime_on();
  obs::set_journal_enabled(false);
  return on;
}

/// Journal of `run` (which audits into a fresh testbed), collected and
/// reset around it.
obs::JournalDump journal_of(const std::function<void(measure::Testbed&)>& run) {
  measure::Testbed bed(small_bed_config());
  obs::reset_journal();
  obs::set_journal_enabled(true);
  run(bed);
  obs::set_journal_enabled(false);
  obs::JournalDump dump = obs::collect_journal();
  obs::reset_journal();
  EXPECT_EQ(dump.dropped, 0u);
  return dump;
}

/// The kVerdict JSONL view of the per-proxy events (run-level events —
/// batch ledgers, service summaries — differ by design and are dropped).
std::string proxy_verdict_view(obs::JournalDump dump) {
  std::erase_if(dump.events, [](const obs::JournalEvent& ev) {
    return ev.proxy == obs::kRunEvent;
  });
  return obs::journal_to_jsonl(dump, obs::Scope::kVerdict);
}

}  // namespace

TEST(AuditService, BootstrapJournalMatchesBatchAuditor) {
  if (!journal_compiled_in()) GTEST_SKIP() << "observability compiled out";
  // One pipeline: bootstrap and the batch audit run the same passes, so
  // every proxy's verdict-scope provenance is byte-identical, whatever
  // the algorithm and the thread count.
  for (const assess::AuditAlgorithm algo : kAlgorithms) {
    std::string batch_view;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(assess::to_string(algo)) + " threads " +
                   std::to_string(threads));
      serve::ServiceConfig cfg = service_config(threads);
      cfg.audit.algorithm = algo;
      const std::string batch = proxy_verdict_view(journal_of([&](auto& bed) {
        assess::Auditor auditor(bed, cfg.audit);
        (void)auditor.run(small_fleet(bed.world()));
      }));
      const std::string boot = proxy_verdict_view(journal_of([&](auto& bed) {
        serve::AuditService service(bed, cfg);
        service.admit(small_fleet(bed.world()));
        service.bootstrap();
      }));
      ASSERT_FALSE(batch.empty());
      EXPECT_EQ(batch, boot);
      if (batch_view.empty()) batch_view = batch;
      EXPECT_EQ(batch, batch_view);
    }
  }
}

TEST(AuditService, ExplainRendersBootstrapJournalCompletely) {
  if (!journal_compiled_in()) GTEST_SKIP() << "observability compiled out";
  std::vector<assess::ProxyAuditRow> rows;
  const obs::JournalDump dump = obs::parse_journal_jsonl(
      obs::journal_to_jsonl(journal_of([&](measure::Testbed& bed) {
        serve::AuditService service(bed, service_config(2));
        service.admit(small_fleet(bed.world()));
        service.bootstrap();
        rows = service.report().rows;
      })));
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    SCOPED_TRACE("proxy " + std::to_string(row.host_index));
    const std::string text = assess::explain_proxy(dump, row.host_index);
    // Every slot the narrative reads is journaled: no "?" placeholder.
    EXPECT_EQ(text.find('?'), std::string::npos) << text;
    EXPECT_NE(text.find("  constraints:"), std::string::npos);
    std::size_t listed = 0;
    for (std::size_t p = text.find("] landmark "); p != std::string::npos;
         p = text.find("] landmark ", p + 1))
      ++listed;
    EXPECT_EQ(listed, row.observations.size());
    EXPECT_NE(text.find(std::string("verdict: ") +
                        assess::to_string(row.verdict_final)),
              std::string::npos);
  }
}

// ---- streaming rounds ----

TEST(AuditService, ReportInvariantAcrossThreads) {
  const std::uint64_t rounds = serve_rounds(6);
  std::optional<serve::ServiceReport> base;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    measure::Testbed bed(small_bed_config());
    auto fleet = small_fleet(bed.world());
    serve::AuditService service(bed, service_config(threads));
    service.admit(fleet);
    service.bootstrap();
    service.run_rounds(rounds);
    auto rep = service.report();
    EXPECT_EQ(rep.epoch, rounds);
    ASSERT_EQ(rep.rows.size(), fleet.hosts.size());
    if (!base) {
      base = std::move(rep);
    } else {
      expect_service_reports_identical(*base, rep);
    }
  }
  // The streaming steady state actually exercised the incremental path.
  EXPECT_GT(base->stats.incremental_updates, 0u);
  EXPECT_GT(base->stats.observations_appended, 0u);
}

TEST(AuditService, IncrementalSolvesMatchFullOracle) {
  // After streaming rounds, every row's (region, constraint counts,
  // used flags) must equal a cold full locate() on the same observation
  // list — the incremental memo path is bit-transparent. Flat and under
  // a refine ladder ("4" on the 2-degree grid): refined solves keep
  // memos too, and their rows equal the flat oracle.
  for (const char* sched : {"", "4"}) {
    SCOPED_TRACE(std::string("refine '") + sched + "'");
    measure::Testbed bed(small_bed_config());
    auto fleet = small_fleet(bed.world());
    serve::ServiceConfig cfg = service_config(4);
    cfg.audit.refine = mlat::RefineSchedule::parse(sched);
    serve::AuditService service(bed, cfg);
    service.admit(fleet);
    service.bootstrap();
    service.run_rounds(serve_rounds(6));
    auto rep = service.report();
    EXPECT_GT(rep.stats.incremental_updates, 0u);

    auto oracle = assess::make_geolocator(cfg.audit);  // flat: no ladder
    grid::CapPlanCache oracle_cache(1024);
    oracle->set_plan_cache(&oracle_cache);
    const grid::Region mask = bed.world().plausibility_mask(*rep.grid);
    for (const auto& row : rep.rows) {
      SCOPED_TRACE("row " + std::to_string(row.host_index));
      if (row.observations.empty()) continue;
      auto est =
          oracle->locate(*rep.grid, bed.store(), row.observations, &mask);
      EXPECT_TRUE(est.region == row.region);
      EXPECT_EQ(est.constraints_total, row.constraints_total);
      EXPECT_EQ(est.constraints_used, row.constraints_used);
      EXPECT_EQ(est.used, row.landmark_used);
    }
  }
}

TEST(AuditService, SpotterStreamingMatchesFullOracle) {
  // Flat and refined ("4" on the 2-degree grid), as above.
  for (const char* sched : {"", "4"}) {
    SCOPED_TRACE(std::string("refine '") + sched + "'");
    measure::Testbed bed(small_bed_config());
    auto fleet = tiny_fleet(bed.world());
    serve::ServiceConfig cfg = service_config(2);
    cfg.audit.algorithm = assess::AuditAlgorithm::kSpotter;
    cfg.audit.refine = mlat::RefineSchedule::parse(sched);
    serve::AuditService service(bed, cfg);
    service.admit(fleet);
    service.bootstrap();
    service.run_rounds(serve_rounds(4));
    auto rep = service.report();
    EXPECT_GT(rep.stats.incremental_updates, 0u);

    auto oracle = assess::make_geolocator(cfg.audit);  // flat: no ladder
    grid::CapPlanCache oracle_cache(1024);
    oracle->set_plan_cache(&oracle_cache);
    const grid::Region mask = bed.world().plausibility_mask(*rep.grid);
    for (const auto& row : rep.rows) {
      SCOPED_TRACE("row " + std::to_string(row.host_index));
      if (row.observations.empty()) continue;
      auto est =
          oracle->locate(*rep.grid, bed.store(), row.observations, &mask);
      EXPECT_TRUE(est.region == row.region);
      EXPECT_EQ(est.area_km2(), row.area_km2);
    }
  }
}

TEST(AuditService, ByzantineFleetStreamingInvariant) {
  // A quarter of the landmarks deflate their RTTs. The streaming service
  // must stay thread-count invariant on the slow (coverage-sweep) subset
  // path too, and its rows still match the cold-solve oracle.
  const std::uint64_t rounds = serve_rounds(4);
  std::optional<serve::ServiceReport> base;
  measure::Testbed* oracle_bed = nullptr;
  measure::Testbed bed_a(small_bed_config());
  measure::Testbed bed_b(small_bed_config());
  for (int threads : {1, 4}) {
    measure::Testbed& bed = threads == 1 ? bed_a : bed_b;
    auto attackers = compromise_landmarks(bed, 0.25, "deflate");
    ASSERT_EQ(attackers.size(), bed.landmarks().size() / 4);
    auto fleet = small_fleet(bed.world());
    serve::AuditService service(bed, service_config(threads));
    service.admit(fleet);
    service.bootstrap();
    service.run_rounds(rounds);
    auto rep = service.report();
    if (!base) {
      base = std::move(rep);
      oracle_bed = &bed;
    } else {
      expect_service_reports_identical(*base, rep);
    }
  }
  // Deflating landmarks leave fingerprints: some constraints are
  // excluded from winning coalitions, so the suspicion table is live.
  bool any_excluded = false;
  for (const auto& row : base->rows)
    any_excluded |= row.constraints_used < row.constraints_total;
  EXPECT_TRUE(any_excluded);

  serve::ServiceConfig cfg = service_config(1);
  auto oracle = assess::make_geolocator(cfg.audit);
  grid::CapPlanCache oracle_cache(1024);
  oracle->set_plan_cache(&oracle_cache);
  const grid::Region mask =
      oracle_bed->world().plausibility_mask(*base->grid);
  for (const auto& row : base->rows) {
    if (row.observations.empty()) continue;
    auto est =
        oracle->locate(*base->grid, oracle_bed->store(), row.observations,
                       &mask);
    EXPECT_TRUE(est.region == row.region);
    EXPECT_EQ(est.used, row.landmark_used);
  }
}

// ---- snapshots ----

TEST(Snapshot, TextCodecRoundTripsLosslessly) {
  serve::EpochSnapshot s;
  s.epoch = 17;
  s.eta.eta = 0.7071067811865476;
  s.eta.r_squared = 0.25;
  s.eta.n_proxies = 3;
  s.eta.eta_ci_low = 0.5;
  s.eta.eta_ci_high = 0.9;
  serve::EntrySnapshot e;
  e.id = 5;
  e.last_solve_epoch = -1;
  e.probe_failures = 2;
  e.tunnel_drops = 1;
  e.jseq = 9;
  e.tunnel_rtt_ms = 123.456789012345e-3;
  e.continent = 3;
  e.pool_cursor = 11;
  e.refresh_cursor = 4;
  e.needs_full = true;
  e.queued = false;
  e.history = {0, 2, 1};
  e.observations = {{7, 31.25}, {12, 0.1}};
  s.entries.push_back(e);
  s.pending = {5, 9};

  const std::string text = serve::snapshot_to_text(s);
  const serve::EpochSnapshot r = serve::parse_snapshot_text(text);
  EXPECT_EQ(serve::snapshot_to_text(r), text);
  EXPECT_EQ(r.epoch, s.epoch);
  EXPECT_EQ(r.eta.eta, s.eta.eta);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].id, 5u);
  EXPECT_EQ(r.entries[0].last_solve_epoch, -1);
  EXPECT_EQ(r.entries[0].tunnel_rtt_ms, e.tunnel_rtt_ms);
  EXPECT_EQ(r.entries[0].history, e.history);
  ASSERT_EQ(r.entries[0].observations.size(), 2u);
  EXPECT_EQ(r.entries[0].observations[1].one_way_delay_ms, 0.1);
  EXPECT_EQ(r.pending, s.pending);

  EXPECT_THROW(serve::parse_snapshot_text(""), ageo::InvalidArgument);
  EXPECT_THROW(serve::parse_snapshot_text("ageo-serve-snapshot v2"),
               ageo::InvalidArgument);
  EXPECT_THROW(serve::parse_snapshot_text(text.substr(0, text.size() / 2)),
               ageo::InvalidArgument);
}

TEST(AuditService, SnapshotRestoreRoundTrip) {
  // Run, snapshot, restore into a FRESH bed+service, continue both:
  // the restored service replays the original bit for bit (campaign
  // fault telemetry is bootstrap-only and outside the snapshot).
  const std::uint64_t pre = 3, post = serve_rounds(3);
  serve::ServiceConfig cfg = service_config(2);

  measure::Testbed bed_a(small_bed_config());
  auto fleet = small_fleet(bed_a.world());
  serve::AuditService original(bed_a, cfg);
  original.admit(fleet);
  original.bootstrap();
  original.run_rounds(pre);
  const serve::EpochSnapshot snap =
      serve::parse_snapshot_text(serve::snapshot_to_text(original.snapshot()));

  measure::Testbed bed_b(small_bed_config());
  serve::AuditService restored(bed_b, cfg);
  restored.admit(fleet);
  restored.restore(snap);
  EXPECT_EQ(restored.epoch(), pre);
  EXPECT_EQ(restored.pending(), original.pending());
  {
    auto a = original.report();
    auto b = restored.report();
    expect_service_reports_identical(a, b, /*with_campaign=*/false,
                                     /*with_stats=*/false);
  }

  original.run_rounds(post);
  restored.run_rounds(post);
  auto a = original.report();
  auto b = restored.report();
  expect_service_reports_identical(a, b, /*with_campaign=*/false,
                                   /*with_stats=*/false);
  // Strongest check: the continued runs snapshot identically — cursors,
  // health counters, pending queue, tunnel RTTs, every observation.
  EXPECT_EQ(serve::snapshot_to_text(original.snapshot()),
            serve::snapshot_to_text(restored.snapshot()));
}

TEST(AuditService, RestoreRequiresFreshService) {
  measure::Testbed bed(small_bed_config());
  auto fleet = tiny_fleet(bed.world());
  serve::AuditService service(bed, service_config(1));
  service.admit(fleet);
  service.bootstrap();
  auto snap = service.snapshot();
  EXPECT_THROW(service.restore(snap), ageo::InvalidArgument);
  // And rounds require a bootstrapped (or restored) service.
  serve::AuditService fresh(bed, service_config(1));
  EXPECT_THROW(fresh.run_round(), ageo::InvalidArgument);
}

// ---- hostile snapshots ----

namespace {

/// A streamed service's snapshot: bootstrap plus a few rounds. Every
/// needs_full flag is cleared (restore consumes it), so restoring this
/// snapshot re-snapshots to the same text.
serve::EpochSnapshot streamed_snapshot() {
  measure::Testbed bed(small_bed_config());
  serve::AuditService service(bed, service_config(2));
  service.admit(small_fleet(bed.world()));
  service.bootstrap();
  service.run_rounds(3);
  serve::EpochSnapshot snap = service.snapshot();
  for (auto& e : snap.entries) e.needs_full = false;
  return snap;
}

/// `corrupt` breaks one field of a valid snapshot. restore() must throw
/// ageo::Error and leave the service untouched, so restoring the valid
/// snapshot onto the same service afterwards still succeeds exactly.
void expect_restore_rejects(
    const std::function<void(serve::EpochSnapshot&)>& corrupt) {
  static const serve::EpochSnapshot good = streamed_snapshot();
  serve::EpochSnapshot bad = good;
  corrupt(bad);
  measure::Testbed bed(small_bed_config());
  serve::AuditService service(bed, service_config(2));
  service.admit(small_fleet(bed.world()));
  EXPECT_THROW(service.restore(bad), ageo::Error);
  EXPECT_FALSE(service.bootstrapped());
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.pending(), 0u);
  service.restore(good);
  EXPECT_EQ(service.epoch(), good.epoch);
  EXPECT_EQ(serve::snapshot_to_text(service.snapshot()),
            serve::snapshot_to_text(good));
}

}  // namespace

TEST(SnapshotRestore, RejectsEtaOutsideUnitInterval) {
  for (double bad : {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    expect_restore_rejects([bad](serve::EpochSnapshot& s) { s.eta.eta = bad; });
  }
}

TEST(SnapshotRestore, RejectsEntriesOutOfIdOrder) {
  expect_restore_rejects([](serve::EpochSnapshot& s) {
    ASSERT_GE(s.entries.size(), 2u);
    std::swap(s.entries[0], s.entries[1]);
  });
}

TEST(SnapshotRestore, RejectsEntryNotAdmitted) {
  expect_restore_rejects(
      [](serve::EpochSnapshot& s) { s.entries.back().id = 1000000; });
}

TEST(SnapshotRestore, RejectsPendingIdWithoutEntry) {
  // Used to dereference null on the next round's solve.
  expect_restore_rejects([](serve::EpochSnapshot& s) {
    s.pending.push_back(s.entries.back().id + 1);
  });
}

TEST(SnapshotRestore, RejectsBadContinent) {
  expect_restore_rejects(
      [](serve::EpochSnapshot& s) { s.entries[0].continent = 200; });
}

TEST(SnapshotRestore, RejectsBadVerdictInHistory) {
  expect_restore_rejects(
      [](serve::EpochSnapshot& s) { s.entries[0].history.push_back(77); });
}

TEST(SnapshotRestore, RejectsLandmarkIdOutOfRange) {
  expect_restore_rejects([](serve::EpochSnapshot& s) {
    ASSERT_FALSE(s.entries[0].observations.empty());
    s.entries[0].observations[0].landmark_id = 1000000;
  });
}

TEST(SnapshotRestore, RejectsNonFiniteOrNegativeDelay) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    SCOPED_TRACE(bad);
    expect_restore_rejects([bad](serve::EpochSnapshot& s) {
      ASSERT_FALSE(s.entries[0].observations.empty());
      s.entries[0].observations.back().one_way_delay_ms = bad;
    });
  }
}

TEST(SnapshotRestore, RejectsRefreshCursorPastObservations) {
  expect_restore_rejects([](serve::EpochSnapshot& s) {
    s.entries[0].refresh_cursor = s.entries[0].observations.size();
  });
}

TEST(SnapshotRestore, RejectsPoolCursorPastProbePool) {
  expect_restore_rejects([](serve::EpochSnapshot& s) {
    s.entries[0].pool_cursor = std::numeric_limits<std::size_t>::max();
  });
}

TEST(Snapshot, ParserRejectsHugeCountsSignsAndOverflow) {
  const std::string good =
      "ageo-serve-snapshot v1\nepoch 3\neta 0.5 0.9 2 0.4 0.6\n"
      "entries 1\nentry 5 -1 0 0 0 1.5 2 0 0 0 0\nhistory 1 2\n"
      "obs 1\n7 2.5\npending 0\nend\n";
  const serve::EpochSnapshot s = serve::parse_snapshot_text(good);
  ASSERT_EQ(s.entries.size(), 1u);
  EXPECT_EQ(s.entries[0].last_solve_epoch, -1);
  EXPECT_EQ(serve::snapshot_to_text(s), good);

  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  const std::string huge = "100000000000000";
  for (const std::string& bad :
       {with("entries 1", "entries " + huge),
        with("history 1", "history " + huge), with("obs 1", "obs " + huge),
        with("pending 0", "pending " + huge), with("epoch 3", "epoch -1"),
        with("epoch 3", "epoch +3"),
        with("epoch 3", "epoch 18446744073709551616"),
        with("entry 5 -1", "entry 5 -99999999999999999999"),
        with("1.5 2 0", "1.5 256 0"), with("history 1 2", "history 1 -2"),
        with("0 0 0 0\n", "0 0 2 0\n"), with("7 2.5", "-7 2.5")}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(serve::parse_snapshot_text(bad), ageo::Error);
  }
}

// ---- runtime auto-sizing and backpressure ----

TEST(AuditService, AutoSizesPlanCache) {
  measure::Testbed bed(small_bed_config());
  auto fleet = small_fleet(bed.world());
  serve::AuditService service(bed, service_config(4));
  service.admit(fleet);
  service.bootstrap();
  const grid::CapPlanCache::Stats warm = service.report().plan_cache;
  service.run_rounds(serve_rounds(6));
  auto rep = service.report();
  // The cache never evicts, so each (landmark, grid) plan is built at
  // most once: misses over bootstrap and rounds together stay within the
  // landmark count (one grid). Bootstrap pays most of them; a landmark
  // whose constraints have only reached the intersect kernel's per-cell
  // tail (which fetches no plan) is first built during the rounds.
  EXPECT_EQ(rep.plan_cache.evictions, 0u);
  EXPECT_GT(warm.misses, 0u);
  EXPECT_LE(rep.plan_cache.misses, bed.store().size());
}

TEST(AuditService, BackpressureBoundsPendingQueue) {
  measure::Testbed bed(small_bed_config());
  auto fleet = small_fleet(bed.world());
  serve::ServiceConfig cfg = service_config(2);
  cfg.round_quota = 8;
  cfg.solver_budget = 1;
  cfg.max_pending = 4;
  serve::AuditService service(bed, cfg);
  service.admit(fleet);
  service.bootstrap();
  for (std::uint64_t i = 0; i < serve_rounds(12); ++i) {
    service.run_round();
    // Probing is gated on pending < max_pending, so the queue can hold
    // at most max_pending - 1 + round_quota jobs right after a probe
    // phase (minus what the drain removed).
    EXPECT_LE(service.pending(), cfg.max_pending - 1 + cfg.round_quota);
  }
  // With quota 8 against budget 1 the solver falls behind and rounds
  // start deferring picks.
  EXPECT_GT(service.stats().deferred_picks, 0u);
  EXPECT_GT(service.pending(), 0u);
}

TEST(AuditService, RefreshRotationSpendsMemoAndFallsBackToFull) {
  // A tiny fleet against the full constellation: after the continent
  // pool is exhausted, refresh rotation edits delays inside the solved
  // prefix, which must spend the memo and route the next solve through
  // the full path (stats.memo_fallbacks counts locate_update refusals;
  // needs_full refreshes skip the update entirely and land in
  // full_resolves).
  measure::Testbed bed(small_bed_config());
  auto fleet = tiny_fleet(bed.world());
  serve::ServiceConfig cfg = service_config(2);
  cfg.round_quota = fleet.hosts.size();
  cfg.probes_per_round = 16;
  serve::AuditService service(bed, cfg);
  service.admit(fleet);
  service.bootstrap();
  const std::uint64_t bootstrap_fulls = service.stats().full_resolves;
  for (int i = 0; i < 40 && service.stats().observations_refreshed == 0; ++i)
    service.run_round();
  EXPECT_GT(service.stats().observations_refreshed, 0u);
  // A refreshed solved-prefix delay forces a full re-solve.
  for (int i = 0;
       i < 10 && service.stats().full_resolves == bootstrap_fulls; ++i)
    service.run_round();
  EXPECT_GT(service.stats().full_resolves, bootstrap_fulls);
  // And the rows still match a cold oracle solve afterwards.
  auto rep = service.report();
  auto oracle = assess::make_geolocator(cfg.audit);
  grid::CapPlanCache oracle_cache(1024);
  oracle->set_plan_cache(&oracle_cache);
  const grid::Region mask = bed.world().plausibility_mask(*rep.grid);
  for (const auto& row : rep.rows) {
    if (row.observations.empty()) continue;
    auto est = oracle->locate(*rep.grid, bed.store(), row.observations, &mask);
    EXPECT_TRUE(est.region == row.region);
  }
}

TEST(AuditService, EmptyBootstrapIsANoOp) {
  measure::Testbed bed(small_bed_config());
  serve::AuditService service(bed, service_config(1));
  service.bootstrap();
  EXPECT_TRUE(service.bootstrapped());
  auto rep = service.report();
  EXPECT_TRUE(rep.rows.empty());
  EXPECT_EQ(rep.epoch, 0u);
}
