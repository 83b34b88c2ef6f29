// Always-on audit service benchmark (src/serve, DESIGN.md §15).
//
// Four stories, one binary:
//
//   pool-scale  — admit a million-entry (scaled by AGEO_SCALE) pool and
//     run one scheduler sweep over it: ranking is a pure metadata scan,
//     so both rows are memory-bandwidth numbers, no network or solver.
//   bootstrap   — the batch-shaped initial audit of the standard fleet
//     through the service (proxies/sec; mirrors bench_headline_audit).
//   sustained   — streaming re-audit rounds at steady state: sustained
//     proxies/sec through the solver and the p50/p99 verdict latency
//     from the serve.verdict_latency_us histogram.
//   A/B         — the perf contract: per-observation incremental update
//     (memoised CBG++ disk intersect / Spotter ring multiply) vs a cold
//     full re-localization of the same growing observation list, with a
//     bit-identity check at every step. Exits non-zero when the speedup
//     drops below AGEO_SERVE_AB_MIN (default 5).
//
// AGEO_SCALE shrinks everything; AGEO_THREADS sets the worker count;
// AGEO_AUDIT_ALGO picks cbgpp (default), spotter or hybrid;
// AGEO_SERVE_FLOOR_PPS, when set, gates sustained throughput; garbage
// in any of these five knobs exits 2 before anything is built;
// AGEO_BENCH_JSON_SERVICE=FILE records every row as BENCH_service.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "grid/cap_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/pool.hpp"
#include "serve/service.hpp"

using namespace ageo;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct PoolScaleResult {
  std::size_t entries = 0;
  double admit_ms = 0.0;
  double rank_ms = 0.0;
  std::size_t ranked = 0;
};

PoolScaleResult bench_pool_scale(double scale) {
  PoolScaleResult res;
  res.entries = std::max<std::size_t>(
      4096, static_cast<std::size_t>(1048576.0 * scale));
  serve::ProxyPool pool;
  world::ProxyHost host;
  host.provider = "bench";
  auto t0 = Clock::now();
  for (std::size_t id = 0; id < res.entries; ++id) pool.admit(id, host, 8);
  res.admit_ms = ms_since(t0);
  serve::SchedulerWeights w;
  t0 = Clock::now();
  auto picks = pool.rank(w, /*epoch=*/1, /*quota=*/64,
                         /*include_admitted=*/true);
  res.rank_ms = ms_since(t0);
  res.ranked = picks.size();
  return res;
}

struct AbResult {
  std::size_t steps = 0;
  std::size_t fallbacks = 0;
  bool identical = true;
  double avg_full_us = 0.0;
  double avg_incremental_us = 0.0;
  double speedup = 0.0;
};

/// Replay one proxy's observation list observation by observation:
/// incremental locate_update against a memo vs cold full locate, timing
/// both and comparing results bit for bit.
AbResult bench_incremental_ab(const assess::AuditConfig& cfg,
                              measure::Testbed& bed, const grid::Grid& g,
                              const grid::Region& mask,
                              std::span<const algos::Observation> obs) {
  AbResult res;
  auto inc_loc = assess::make_geolocator(cfg);
  auto full_loc = assess::make_geolocator(cfg);
  // Both caches take the mask as their table domain, as the Auditor's
  // does, and every landmark's plan and distance table is built before
  // timing: the A/B then times solves, not one-off table builds.
  grid::CapPlanCache inc_cache(2048, mask), full_cache(2048, mask);
  for (grid::CapPlanCache* cache : {&inc_cache, &full_cache})
    for (const auto& ob : obs)
      cache->plan(g, ob.landmark)->cell_distances_km();
  inc_loc->set_plan_cache(&inc_cache);
  full_loc->set_plan_cache(&full_cache);

  const std::size_t n0 = obs.size() / 2;
  algos::GeoEstimate inc_est;
  auto memo =
      inc_loc->locate_memo(g, bed.store(), obs.subspan(0, n0), &mask, inc_est);
  double inc_us = 0.0, full_us = 0.0;
  std::size_t inc_ok = 0;
  for (std::size_t k = n0; k < obs.size(); ++k) {
    const auto prefix = obs.subspan(0, k + 1);
    algos::GeoEstimate full_est;
    auto t0 = Clock::now();
    full_est = full_loc->locate(g, bed.store(), prefix, &mask);
    full_us += ms_since(t0) * 1000.0;

    bool incremental = false;
    t0 = Clock::now();
    if (memo) {
      incremental = inc_loc->locate_update(*memo, g, bed.store(), prefix, k,
                                           &mask, inc_est);
    }
    if (incremental) {
      inc_us += ms_since(t0) * 1000.0;
      ++inc_ok;
    } else {
      // Memo spent (LCS membership changed, ...): re-seed with a full
      // capture, exactly what AuditService::solve_entry does. Not
      // counted into the per-update average — fallbacks are tallied
      // separately.
      ++res.fallbacks;
      memo = inc_loc->locate_memo(g, bed.store(), prefix, &mask, inc_est);
    }
    ++res.steps;
    res.identical = res.identical &&
                    inc_est.region == full_est.region &&
                    inc_est.constraints_total == full_est.constraints_total &&
                    inc_est.constraints_used == full_est.constraints_used &&
                    inc_est.used == full_est.used;
  }
  if (res.steps) res.avg_full_us = full_us / static_cast<double>(res.steps);
  if (inc_ok) res.avg_incremental_us = inc_us / static_cast<double>(inc_ok);
  if (res.avg_incremental_us > 0.0)
    res.speedup = res.avg_full_us / res.avg_incremental_us;
  return res;
}

}  // namespace

int main() {
  obs::set_metrics_enabled(true);
  const double scale = bench::scale_from_env();
  const int threads = bench::threads_from_env(1);

  serve::ServiceConfig cfg;
  cfg.audit.algorithm = bench::algorithm_from_env();
  cfg.audit.threads = threads;
  // Default floor per algorithm: CBG++'s one-more-disk update skips the
  // whole constraint re-rasterization (≥5x); Spotter's one-more-ring
  // multiply still pays the posterior normalization and credible-mass
  // extraction every step, so its honest floor is lower.
  const double ab_min = bench::floor_from_env(
      "AGEO_SERVE_AB_MIN",
      cfg.audit.algorithm == assess::AuditAlgorithm::kSpotter ? 2.0 : 5.0);
  // Unset (0) gates nothing: throughput is never negative.
  const double floor_pps = bench::floor_from_env("AGEO_SERVE_FLOOR_PPS", 0.0);
  cfg.round_quota = 32;
  cfg.probes_per_round = 4;
  cfg.solver_budget = 64;
  cfg.max_pending = 128;

  std::printf("algorithm: %s\n", assess::to_string(cfg.audit.algorithm));
  std::printf("scale: %.3f, threads: %d\n", scale, threads);

  // --- pool scale ---
  const PoolScaleResult ps = bench_pool_scale(scale);
  const double admits_per_sec =
      ps.admit_ms > 0.0
          ? 1000.0 * static_cast<double>(ps.entries) / ps.admit_ms
          : 0.0;
  std::printf("pool_entries: %zu\n", ps.entries);
  std::printf("pool_admits_per_sec: %.0f\n", admits_per_sec);
  std::printf("rank_ms: %.3f (quota 64, ranked %zu)\n", ps.rank_ms, ps.ranked);

  // --- bootstrap ---
  auto bed = bench::standard_testbed(scale);
  auto fleet = bench::standard_fleet(bed->world(), scale);
  serve::AuditService service(*bed, cfg);
  service.admit(fleet);
  auto t0 = Clock::now();
  service.bootstrap();
  const double bootstrap_ms = ms_since(t0);
  const std::size_t proxies = fleet.hosts.size();
  const double bootstrap_pps =
      bootstrap_ms > 0.0 ? 1000.0 * static_cast<double>(proxies) / bootstrap_ms
                         : 0.0;
  std::printf("bootstrap_proxies: %zu\n", proxies);
  std::printf("bootstrap_ms: %.1f\n", bootstrap_ms);
  std::printf("bootstrap_proxies_per_sec: %.1f\n", bootstrap_pps);

  // --- sustained streaming rounds ---
  const std::uint64_t rounds =
      std::max<std::uint64_t>(10, static_cast<std::uint64_t>(100.0 * scale));
  const std::uint64_t solves_before = service.stats().solves;
  t0 = Clock::now();
  service.run_rounds(rounds);
  const double rounds_ms = ms_since(t0);
  const std::uint64_t solved = service.stats().solves - solves_before;
  const double sustained_pps =
      rounds_ms > 0.0 ? 1000.0 * static_cast<double>(solved) / rounds_ms : 0.0;
  double p50_us = 0.0, p99_us = 0.0;
  for (const auto& h : obs::Registry::global().snapshot().histograms) {
    if (h.name == "serve.verdict_latency_us") {
      p50_us = h.quantile(0.50);
      p99_us = h.quantile(0.99);
    }
  }
  const serve::ServiceStats& st = service.stats();
  std::printf("sustained_rounds: %llu (solves %llu, incremental %llu, "
              "full %llu, fallbacks %llu)\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(solved),
              static_cast<unsigned long long>(st.incremental_updates),
              static_cast<unsigned long long>(st.full_resolves),
              static_cast<unsigned long long>(st.memo_fallbacks));
  std::printf("sustained_proxies_per_sec: %.1f\n", sustained_pps);
  std::printf("p50_verdict_latency_us: %.1f\n", p50_us);
  std::printf("p99_verdict_latency_us: %.1f\n", p99_us);

  // --- incremental vs full A/B ---
  auto rep = service.report();
  const assess::ProxyAuditRow* richest = nullptr;
  for (const auto& row : rep.rows)
    if (!richest || row.observations.size() > richest->observations.size())
      richest = &row;
  AbResult ab;
  if (richest && richest->observations.size() >= 8) {
    ab = bench_incremental_ab(cfg.audit, *bed, *rep.grid,
                              bed->world().plausibility_mask(*rep.grid),
                              richest->observations);
  }
  std::printf("ab_steps: %zu (fallbacks %zu)\n", ab.steps, ab.fallbacks);
  std::printf("ab_identical: %s\n", ab.identical ? "true" : "false");
  std::printf("ab_full_us_per_obs: %.1f\n", ab.avg_full_us);
  std::printf("ab_incremental_us_per_obs: %.1f\n", ab.avg_incremental_us);
  std::printf("incremental_speedup: %.2f\n", ab.speedup);

  if (const char* path = std::getenv("AGEO_BENCH_JSON_SERVICE")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    out << "{\n  \"scale\": " << scale << ",\n  \"threads\": " << threads
        << ",\n  \"algorithm\": \"" << assess::to_string(cfg.audit.algorithm)
        << "\",\n  \"pool\": {\"entries\": " << ps.entries
        << ", \"admits_per_sec\": " << admits_per_sec
        << ", \"rank_ms\": " << ps.rank_ms << "}"
        << ",\n  \"bootstrap\": {\"proxies\": " << proxies
        << ", \"ms\": " << bootstrap_ms
        << ", \"proxies_per_sec\": " << bootstrap_pps << "}"
        << ",\n  \"sustained\": {\"rounds\": " << rounds
        << ", \"solves\": " << solved
        << ", \"proxies_per_sec\": " << sustained_pps
        << ", \"p50_verdict_latency_us\": " << p50_us
        << ", \"p99_verdict_latency_us\": " << p99_us
        << ", \"incremental_updates\": " << st.incremental_updates
        << ", \"full_resolves\": " << st.full_resolves
        << ", \"memo_fallbacks\": " << st.memo_fallbacks
        << ", \"deferred_picks\": " << st.deferred_picks << "}"
        << ",\n  \"ab\": {\"steps\": " << ab.steps
        << ", \"fallbacks\": " << ab.fallbacks
        << ", \"identical\": " << (ab.identical ? "true" : "false")
        << ", \"full_us_per_obs\": " << ab.avg_full_us
        << ", \"incremental_us_per_obs\": " << ab.avg_incremental_us
        << ", \"speedup\": " << ab.speedup << "}\n}\n";
    std::fprintf(stderr, "wrote %s\n", path);
  }

  // --- gates ---
  if (!ab.identical) {
    std::fprintf(stderr, "FAIL: incremental estimates diverged from the "
                         "full-solve oracle\n");
    return 1;
  }
  if (ab.steps > 0 && ab.avg_incremental_us > 0.0 && ab.speedup < ab_min) {
    std::fprintf(stderr,
                 "FAIL: incremental speedup %.2f below floor %.2f\n",
                 ab.speedup, ab_min);
    return 1;
  }
  if (sustained_pps < floor_pps) {
    std::fprintf(stderr,
                 "FAIL: sustained %.1f proxies/sec below floor %.1f\n",
                 sustained_pps, floor_pps);
    return 1;
  }
  return 0;
}
