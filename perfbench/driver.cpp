// Audit benchmark driver: one workload per process.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 times the workload end to end through the top-level entry
// points only (measure::Testbed, assess::Auditor, serve::AuditService)
// for about S seconds and reports the end-to-end metrics. --trace 1 runs
// the workload once, then times each layer through layers.cpp and reports
// the per-layer metrics. Both modes check the outputs (verdict digests
// stable across passes, snapshot round trip, replayed solves bit-equal)
// and print one JSON result as the last line; a failed check makes the
// result "correct": false and the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "serve/snapshot.hpp"

using namespace ageo;
using namespace perfbench;

namespace {

/// Streaming rounds per service pass: enough that every proxy is picked
/// several times and staleness refreshes (full re-solves) run in steady
/// state.
constexpr int kRounds = 400;
/// Passes per --trace 0 run, at least (set-up is sampled once per pass).
constexpr int kMinPasses = 3;

struct Workload {
  const char* name;
  bool serve;
  assess::AuditAlgorithm algorithm;
  double grid_deg;
  const char* refine;
};

constexpr Workload kWorkloads[] = {
    {"audit-cbgpp", false, assess::AuditAlgorithm::kCbgPlusPlus, 1.0, "off"},
    {"audit-cbgpp-fine", false, assess::AuditAlgorithm::kCbgPlusPlus, 0.25,
     "2.0,0.5"},
    {"audit-spotter", false, assess::AuditAlgorithm::kSpotter, 1.0, "off"},
    {"serve-stream", true, assess::AuditAlgorithm::kCbgPlusPlus, 1.0, "off"},
};

assess::AuditConfig audit_config(const Workload& w, std::uint64_t seed,
                                  int threads) {
  assess::AuditConfig c;
  c.algorithm = w.algorithm;
  c.grid_cell_deg = w.grid_deg;
  c.refine = mlat::RefineSchedule::parse(w.refine);
  c.threads = threads;
  c.seed = derive_seed(seed, 3);
  return c;
}

serve::ServiceConfig service_config(const Workload& w, std::uint64_t seed,
                                    int threads) {
  serve::ServiceConfig c;
  c.audit = audit_config(w, seed, threads);
  c.round_quota = 32;
  c.probes_per_round = 4;
  c.solver_budget = 64;
  c.max_pending = 128;
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_tally(const char* what,
                 std::span<const assess::ProxyAuditRow> rows) {
  const Tally t = tally(rows);
  std::printf("%s: %zu proxies, credible %zu, uncertain %zu, false %zu, "
              "empty predictions %zu, digest %s\n",
              what, rows.size(), t.credible, t.uncertain, t.false_, t.empty,
              hex(digest(rows)).c_str());
}

/// Checks one pass's digest against the first pass of the run.
void expect_digest(Sink& sink, const char* what, std::uint64_t& first,
                   std::uint64_t d, int pass) {
  if (pass == 0) {
    first = d;
  } else if (d != first) {
    sink.fail(std::string(what) + " digest of pass " + std::to_string(pass) +
              " differs from pass 0");
  }
}

struct Counts {
  std::uint64_t attempted = 0, failed = 0;
  void add(std::span<const assess::ProxyAuditRow> rows) {
    attempted += rows.size();
    failed += tally(rows).empty;
  }
};

// ---- --trace 0: end-to-end ----------------------------------------------

/// True while another pass of `last_s` seconds still fits the budget.
bool another_pass(int passes, Clock::time_point start, double seconds,
                  double last_s) {
  return passes < kMinPasses || seconds_since(start) + last_s <= seconds;
}

Counts end_to_end_batch(const Workload& w, std::uint64_t seed, double seconds,
                        Sink& sink) {
  const assess::AuditConfig cfg = audit_config(w, seed, 4);
  std::vector<double> setup_s, audit_pps, reaudit_pps, reaudit_ms;
  std::uint64_t cold_digest = 0, warm_digest = 0;
  Counts counts;
  const auto start = Clock::now();
  double pass_s = 0.0;
  for (int pass = 0; another_pass(pass, start, seconds, pass_s); ++pass) {
    const auto t0 = Clock::now();
    auto bed = make_testbed(seed);
    double setup = seconds_since(t0);
    const world::Fleet fleet = make_fleet(*bed, seed);
    auto t = Clock::now();
    assess::Auditor auditor(*bed, cfg);
    setup += seconds_since(t);

    t = Clock::now();
    const assess::AuditReport cold = auditor.run(fleet);
    const double cold_s = seconds_since(t);
    t = Clock::now();
    const assess::AuditReport warm = auditor.run(fleet);
    const double warm_s = seconds_since(t);

    const double n = static_cast<double>(cold.rows.size());
    setup_s.push_back(setup);
    audit_pps.push_back(n / cold_s);
    reaudit_pps.push_back(static_cast<double>(warm.rows.size()) / warm_s);
    reaudit_ms.push_back(warm_s * 1e3);
    std::printf("pass %d: setup %.3f s, audit %.1f ms, re-audit %.1f ms\n",
                pass, setup, cold_s * 1e3, warm_s * 1e3);
    if (pass == 0) {
      print_tally("audit", cold.rows);
      print_tally("re-audit", warm.rows);
    }
    expect_digest(sink, "audit", cold_digest, digest(cold.rows), pass);
    expect_digest(sink, "re-audit", warm_digest, digest(warm.rows), pass);
    if (cold.rows.size() != fleet.hosts.size())
      sink.fail("audit report is missing rows");
    counts.add(cold.rows);
    counts.add(warm.rows);
    pass_s = seconds_since(t0);
  }
  sink.metric("setup_s", "s", lowest(setup_s));
  sink.metric("audit_proxies_per_s", "1/s", highest(audit_pps));
  sink.metric("reaudit_solves_per_s", "1/s", highest(reaudit_pps));
  sink.metric("reaudit_p50_ms", "ms", lowest(reaudit_ms));
  std::printf("medians over %zu passes: setup %.4f s, audit %.1f/s, "
              "re-audit %.1f/s, re-audit %.3f ms\n",
              setup_s.size(), median(setup_s), median(audit_pps),
              median(reaudit_pps), median(reaudit_ms));
  return counts;
}

Counts end_to_end_serve(const Workload& w, std::uint64_t seed, double seconds,
                        Sink& sink) {
  const serve::ServiceConfig cfg = service_config(w, seed, 4);
  std::vector<double> setup_s, boot_pps, round_ms;
  // Every pass replays the same round sequence; each round's best time
  // over the passes makes up the run's round timings.
  std::vector<double> best_round_s(kRounds, 1e300);
  double round_solves = 0.0, restore_s = 0.0;
  std::uint64_t boot_digest = 0, round_digest = 0;
  Counts counts;
  const auto start = Clock::now();
  double pass_s = 0.0;
  for (int pass = 0; another_pass(pass, start, seconds, pass_s); ++pass) {
    const auto t0 = Clock::now();
    auto bed = make_testbed(seed);
    double setup = seconds_since(t0);
    const world::Fleet fleet = make_fleet(*bed, seed);
    auto t = Clock::now();
    serve::AuditService service(*bed, cfg);
    service.admit(fleet);
    setup += seconds_since(t);

    t = Clock::now();
    service.bootstrap();
    const double boot_s = seconds_since(t);
    const serve::ServiceReport boot = service.report();

    const std::uint64_t solves0 = service.stats().solves;
    double rounds_s = 0.0;
    for (int r = 0; r < kRounds; ++r) {
      t = Clock::now();
      service.run_round();
      const double s = seconds_since(t);
      rounds_s += s;
      round_ms.push_back(s * 1e3);
      best_round_s[r] = std::min(best_round_s[r], s);
    }
    round_solves = static_cast<double>(service.stats().solves - solves0);
    const serve::ServiceReport after = service.report();
    setup_s.push_back(setup);
    boot_pps.push_back(static_cast<double>(boot.rows.size()) / boot_s);
    std::printf("pass %d: setup %.3f s, bootstrap %.1f ms, %d rounds %.1f ms "
                "(%.0f solves)\n",
                pass, setup, boot_s * 1e3, kRounds, rounds_s * 1e3,
                round_solves);
    expect_digest(sink, "bootstrap", boot_digest, digest(boot.rows), pass);
    expect_digest(sink, "rounds", round_digest, digest(after.rows), pass);
    counts.add(boot.rows);
    counts.add(after.rows);

    if (pass == 0) {
      print_tally("bootstrap", boot.rows);
      print_tally("after rounds", after.rows);
      // Snapshot -> text -> parse -> restore onto a freshly admitted
      // service; its testbed is built outside the timed span.
      auto bed2 = make_testbed(seed);
      t = Clock::now();
      const std::string text = serve::snapshot_to_text(service.snapshot());
      serve::AuditService restored(*bed2, cfg);
      restored.admit(fleet);
      restored.restore(serve::parse_snapshot_text(text));
      restore_s = seconds_since(t);
      if (!same_rows(after.rows, restored.report().rows))
        sink.fail("restored service report differs from the snapshotted one");
    }
    pass_s = seconds_since(t0);
  }
  std::vector<double> best_ms;
  double best_total_s = 0.0;
  for (double s : best_round_s) {
    best_ms.push_back(s * 1e3);
    best_total_s += s;
  }
  sink.metric("setup_s", "s", lowest(setup_s));
  sink.metric("audit_proxies_per_s", "1/s", highest(boot_pps));
  sink.metric("reaudit_solves_per_s", "1/s", round_solves / best_total_s);
  sink.metric("reaudit_p50_ms", "ms", median(best_ms));
  std::printf("round_%s_ms: %.4f ms (best of %zu passes per round); over all "
              "%zu rounds run: p50 %.4f ms, %s %.4f ms\n",
              tail_label(best_ms.size()).c_str(), tail(best_ms), setup_s.size(),
              round_ms.size(), median(round_ms),
              tail_label(round_ms.size()).c_str(), tail(round_ms));
  std::printf("restore_s: %.4f s\n", restore_s);
  std::printf("medians over %zu passes: setup %.4f s, bootstrap %.1f/s\n",
              setup_s.size(), median(setup_s), median(boot_pps));
  return counts;
}

// ---- --trace 1: per-layer -----------------------------------------------

void layer_summary(Sink& sink, const LayerTimes& lt, double wall4,
                   double wall1) {
  sink.metric("common.speedup_4t", "ratio", wall1 / wall4);
  const double attributed =
      lt.eta_s + lt.warm_s + lt.campaign_s + lt.locate_s + lt.claim_s;
  sink.metric("trace.unattributed_frac", "ratio", 1.0 - attributed / wall1);
  std::printf("serial wall %.1f ms = eta %.1f + warm %.1f + campaign %.1f + "
              "locate %.1f + claim %.1f + unattributed %.1f ms\n",
              wall1 * 1e3, lt.eta_s * 1e3, lt.warm_s * 1e3,
              lt.campaign_s * 1e3, lt.locate_s * 1e3, lt.claim_s * 1e3,
              (wall1 - attributed) * 1e3);
}

double hit_ratio(const grid::CapPlanCache::Stats& s) {
  std::printf("plan cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.evictions));
  return static_cast<double>(s.hits) / static_cast<double>(s.hits + s.misses);
}

Counts per_layer_batch(const Workload& w, std::uint64_t seed, Sink& sink) {
  const assess::AuditConfig cfg = audit_config(w, seed, 4);
  auto t = Clock::now();
  auto bed = make_testbed(seed);
  sink.metric("measure.calibrate_s", "s", seconds_since(t));
  const world::Fleet fleet = make_fleet(*bed, seed);
  t = Clock::now();
  assess::Auditor auditor(*bed, cfg);
  sink.metric("world.raster_ms", "ms", seconds_since(t) * 1e3);
  t = Clock::now();
  const assess::AuditReport report = auditor.run(fleet);
  const double wall4 = seconds_since(t);
  print_tally("audit", report.rows);
  sink.metric("measure.probes_sent", "count",
              static_cast<double>(report.campaign_totals.probes_sent));
  sink.metric("grid.plan_cache_hit_ratio", "ratio",
              hit_ratio(report.plan_cache));

  double wall1 = 0.0;
  {
    auto serial_bed = make_testbed(seed);
    assess::Auditor serial(*serial_bed, audit_config(w, seed, 1));
    t = Clock::now();
    const assess::AuditReport one = serial.run(fleet);
    wall1 = seconds_since(t);
    if (digest(one.rows) != digest(report.rows))
      sink.fail("threads=1 audit differs from the threads=4 audit");
  }
  const LayerTimes lt =
      trace_layers({&cfg, seed, report.grid.get(), report.rows}, sink);
  layer_summary(sink, lt, wall4, wall1);
  Counts counts;
  counts.add(report.rows);
  return counts;
}

Counts per_layer_serve(const Workload& w, std::uint64_t seed, Sink& sink) {
  const serve::ServiceConfig cfg = service_config(w, seed, 4);
  auto t = Clock::now();
  auto bed = make_testbed(seed);
  sink.metric("measure.calibrate_s", "s", seconds_since(t));
  const world::Fleet fleet = make_fleet(*bed, seed);
  t = Clock::now();
  serve::AuditService service(*bed, cfg);
  sink.metric("world.raster_ms", "ms", seconds_since(t) * 1e3);
  service.admit(fleet);
  t = Clock::now();
  service.bootstrap();
  const double wall4 = seconds_since(t);
  const serve::ServiceReport boot = service.report();
  print_tally("bootstrap", boot.rows);
  measure::CampaignStats campaigns;
  for (const auto& row : boot.rows) campaigns.merge(row.campaign);
  sink.metric("measure.probes_sent", "count",
              static_cast<double>(campaigns.probes_sent));

  const serve::ServiceStats before = service.stats();
  std::vector<double> rank_ms;
  std::size_t pending_max = 0;
  for (int r = 0; r < kRounds; ++r) {
    rank_ms.push_back(time_next_rank(service) * 1e3);
    service.run_round();
    pending_max = std::max(pending_max, service.pending());
  }
  const serve::ServiceStats& st = service.stats();
  const serve::ServiceReport after = service.report();
  print_tally("after rounds", after.rows);
  sink.metric("grid.plan_cache_hit_ratio", "ratio",
              hit_ratio(after.plan_cache));
  std::printf("serve.incremental_frac: %.4f (%llu incremental of %llu round "
              "solves)\n",
              static_cast<double>(st.incremental_updates -
                                  before.incremental_updates) /
                  static_cast<double>(st.solves - before.solves),
              static_cast<unsigned long long>(st.incremental_updates -
                                              before.incremental_updates),
              static_cast<unsigned long long>(st.solves - before.solves));
  std::printf("serve.memo_fallbacks: %llu\nserve.full_resolves: %llu\n"
              "serve.observations_refreshed: %llu\n",
              static_cast<unsigned long long>(st.memo_fallbacks),
              static_cast<unsigned long long>(st.full_resolves -
                                              before.full_resolves),
              static_cast<unsigned long long>(st.observations_refreshed));
  std::printf("serve.rank_ms_p50: %.4f ms\nserve.pending_max: %zu\n",
              median(rank_ms), pending_max);
  check_rows_against_locate(cfg.audit, *bed, *after.grid, after.rows, sink);

  t = Clock::now();
  const std::string text = serve::snapshot_to_text(service.snapshot());
  const double snap_s = seconds_since(t);
  {
    auto bed2 = make_testbed(seed);
    serve::AuditService restored(*bed2, cfg);
    restored.admit(fleet);
    const serve::EpochSnapshot parsed = serve::parse_snapshot_text(text);
    t = Clock::now();
    restored.restore(parsed);
    const double restore_s = seconds_since(t);
    std::printf("serve.snapshot_ms: %.3f ms\nserve.snapshot_kb: %.1f KiB\n"
                "serve.restore_ms: %.3f ms\n",
                snap_s * 1e3, static_cast<double>(text.size()) / 1024.0,
                restore_s * 1e3);
    if (!same_rows(after.rows, restored.report().rows))
      sink.fail("restored service report differs from the snapshotted one");
  }

  double wall1 = 0.0;
  {
    auto serial_bed = make_testbed(seed);
    serve::AuditService serial(*serial_bed, service_config(w, seed, 1));
    serial.admit(fleet);
    t = Clock::now();
    serial.bootstrap();
    wall1 = seconds_since(t);
    if (digest(serial.report().rows) != digest(boot.rows))
      sink.fail("threads=1 bootstrap differs from the threads=4 bootstrap");
  }
  const LayerTimes lt =
      trace_layers({&cfg.audit, seed, boot.grid.get(), boot.rows}, sink);
  layer_summary(sink, lt, wall4, wall1);
  Counts counts;
  counts.add(boot.rows);
  counts.add(after.rows);
  return counts;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, value) == 0) workload = &w;
      if (!workload) return usage(argv[0]);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(seconds > 0.0))
        return usage(argv[0]);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage(argv[0]);
    }
  }
  if (!workload || !have_seed || argc % 2 == 0) return usage(argv[0]);

  // Shipped defaults: telemetry runtime-off, journal off.
  obs::set_metrics_enabled(false);
  std::printf("workload %s, seed %llu, %s\n", workload->name,
              static_cast<unsigned long long>(seed),
              trace ? "per-layer trace" : "end to end");
  try {
    Sink sink;
    Counts counts;
    if (trace) {
      counts = workload->serve ? per_layer_serve(*workload, seed, sink)
                               : per_layer_batch(*workload, seed, sink);
    } else {
      counts = workload->serve
                   ? end_to_end_serve(*workload, seed, seconds, sink)
                   : end_to_end_batch(*workload, seed, seconds, sink);
      sink.metric("peak_rss_mb", "MB", peak_rss_mb());
    }
    std::printf("failed_frac: %.6f (%llu of %llu audited proxies without a "
                "prediction region)\n",
                static_cast<double>(counts.failed) /
                    static_cast<double>(counts.attempted),
                static_cast<unsigned long long>(counts.failed),
                static_cast<unsigned long long>(counts.attempted));
    sink.print_json(counts.attempted, counts.failed);
    return sink.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
}
