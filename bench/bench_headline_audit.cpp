// Headline numbers of §6: the full fleet audit.
//
// Paper: 2269 unique server IPs over 222 claimed countries; credible for
// 989, uncertain for 642, false for 638; 401 of the false not even on
// the claimed continent; 462 of the uncertain on the same continent. At
// most 70% of servers are where their operators say (generous), ~50%
// confirmed (strict).
//
// After the §6 tables the bench measures the localization-perf curves
// recorded to BENCH_refine.json (set AGEO_BENCH_JSON=FILE to write it):
// the threads=1/2/4/8 scaling of the standard 1.0-degree audit, and the
// flat vs coarse-to-fine refined audit at 0.25-degree final resolution
// (schedule from AGEO_REFINE, default 2.0,0.5), with the refined rows
// checked bit-identical against the flat oracle (a mismatch exits
// non-zero). AGEO_PERF_SECTION=off skips all the perf curves (the obs-overhead CI
// job only needs the headline).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"

using namespace ageo;

namespace {

struct PerfCell {
  std::string label;
  double grid_deg = 1.0;
  std::string schedule = "off";  // "off" = flat solves
  int threads = 1;
  std::size_t proxies = 0;
  double audit_ms = 0.0;
  double ms_per_proxy = 0.0;
  double proxies_per_sec = 0.0;
  double speedup = 1.0;  // vs the first cell of the same section
  bool identical_to_flat = true;
};

// One timed audit cell. Builds a fresh testbed from the standard seed
// (audits perturb the testbed, and identical configs must see identical
// worlds) and times only the audit proper. Deliberately ignores
// AGEO_THREADS: the scaling section sweeps the thread count itself.
PerfCell run_perf_cell(std::string label, double scale, double grid_deg,
                       const std::string& schedule, int threads,
                       assess::AuditReport* report_out = nullptr) {
  auto bed = bench::standard_testbed(scale);
  auto fleet = bench::standard_fleet(bed->world(), scale);
  assess::AuditConfig cfg;
  cfg.grid_cell_deg = grid_deg;
  cfg.refine = mlat::RefineSchedule::parse(schedule);
  cfg.threads = threads;
  cfg.algorithm = bench::algorithm_from_env();
  assess::Auditor auditor(*bed, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  auto report = auditor.run(fleet);
  const auto t1 = std::chrono::steady_clock::now();

  PerfCell cell;
  cell.label = std::move(label);
  cell.grid_deg = grid_deg;
  cell.schedule = schedule;
  cell.threads = threads;
  cell.proxies = report.rows.size();
  cell.audit_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  cell.ms_per_proxy =
      cell.proxies ? cell.audit_ms / static_cast<double>(cell.proxies) : 0.0;
  cell.proxies_per_sec = cell.audit_ms > 0.0
                             ? 1000.0 * static_cast<double>(cell.proxies) /
                                   cell.audit_ms
                             : 0.0;
  if (report_out) *report_out = std::move(report);
  return cell;
}

bool reports_match(const assess::AuditReport& a, const assess::AuditReport& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (x.region.words() != y.region.words() ||
        x.verdict_final != y.verdict_final ||
        x.constraints_used != y.constraints_used ||
        x.landmark_used != y.landmark_used)
      return false;
  }
  return true;
}

void print_perf_row(const PerfCell& c) {
  std::printf("%-24s %8.2f %-10s %7d %10.0f %12.4f %11.0f %8.2fx  %s\n",
              c.label.c_str(), c.grid_deg, c.schedule.c_str(), c.threads,
              c.audit_ms, c.ms_per_proxy, c.proxies_per_sec, c.speedup,
              c.identical_to_flat ? "" : "MISMATCH");
}

void append_perf_cell(std::ofstream& out, const PerfCell& c,
                      const char* indent) {
  out << indent << "{\"label\":\"" << c.label << "\",\"grid_deg\":"
      << c.grid_deg << ",\"schedule\":\"" << c.schedule
      << "\",\"threads\":" << c.threads << ",\"proxies\":" << c.proxies
      << ",\"audit_ms\":" << c.audit_ms
      << ",\"ms_per_proxy\":" << c.ms_per_proxy
      << ",\"proxies_per_sec\":" << c.proxies_per_sec
      << ",\"speedup\":" << c.speedup << ",\"identical_to_flat\":"
      << (c.identical_to_flat ? "true" : "false") << "}";
}

void append_perf_cells(std::ofstream& out, const std::vector<PerfCell>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    append_perf_cell(out, cells[i], "    ");
    out << (i + 1 < cells.size() ? "," : "") << "\n";
  }
}

void write_refine_json(const std::string& path, double scale,
                       const std::vector<PerfCell>& threads_curve,
                       const std::vector<PerfCell>& refine_curve) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"scale\": " << scale << ",\n  \"algorithm\": \""
      << assess::to_string(bench::algorithm_from_env())
      << "\",\n  \"thread_scaling\": [\n";
  append_perf_cells(out, threads_curve);
  out << "  ],\n  \"refinement\": [\n";
  append_perf_cells(out, refine_curve);
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  // AGEO_OBS_FORCE=on|off pins the telemetry runtime switch for overhead
  // comparisons (the CI disabled-path check runs with "off" on both an
  // instrumented and an AGEO_OBS=OFF binary).
  if (const char* f = std::getenv("AGEO_OBS_FORCE")) {
    if (!std::strcmp(f, "on")) obs::set_metrics_enabled(true);
    if (!std::strcmp(f, "off")) obs::set_metrics_enabled(false);
  }
  // AGEO_BENCH_REPEAT=N reruns the audit and reports the minimum — the
  // stable statistic for regression gating on shared CI machines.
  const int repeat = bench::repeat_from_env();

  const double scale = bench::scale_from_env();
  auto bundle = bench::run_standard_audit(scale);
  double audit_ms_min = bundle.audit_ms;
  for (int i = 1; i < repeat; ++i) {
    auto again = bench::run_standard_audit(scale);
    audit_ms_min = std::min(audit_ms_min, again.audit_ms);
  }

  const auto& rows = bundle.report.rows;
  std::printf("algorithm: %s\n",
              assess::to_string(bench::algorithm_from_env()));
  std::printf("telemetry: %s\n",
              obs::metrics_enabled() ? "enabled" : "disabled");
  std::printf("setup (testbed+calibration): %.0f ms, audit: %.0f ms "
              "(%.2f ms/proxy)\n",
              bundle.setup_ms, bundle.audit_ms,
              rows.empty() ? 0.0 : bundle.audit_ms / rows.size());
  std::printf("ms_per_proxy_min: %.4f\n",
              rows.empty() ? 0.0 : audit_ms_min / rows.size());
  std::printf("plan cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(bundle.report.plan_cache.hits),
              static_cast<unsigned long long>(bundle.report.plan_cache.misses),
              static_cast<unsigned long long>(
                  bundle.report.plan_cache.evictions));
  const auto& ct = bundle.report.campaign_totals;
  std::printf("campaign: %llu probes, %llu measured, %llu retries, "
              "%llu breaker trips\n\n",
              static_cast<unsigned long long>(ct.probes_sent),
              static_cast<unsigned long long>(ct.measured()),
              static_cast<unsigned long long>(ct.retries),
              static_cast<unsigned long long>(ct.breaker_trips));

  std::set<world::CountryId> claimed_countries;
  for (const auto& r : rows) claimed_countries.insert(r.claimed);

  const assess::VerdictTally tally = assess::tally_verdicts(rows);
  std::size_t false_other_continent = 0, uncertain_same_continent = 0;
  for (const auto& r : rows) {
    const bool other_continent = r.continent_verdict == assess::Verdict::kFalse;
    if (r.verdict_final == assess::Verdict::kUncertain && !other_continent)
      ++uncertain_same_continent;
    if (r.verdict_final == assess::Verdict::kFalse && other_continent)
      ++false_other_continent;
  }
  const double n = static_cast<double>(rows.size());

  std::printf("=== Headline audit (paper §6) ===\n\n");
  std::printf("proxies tested (paper: 2269):            %zu\n", rows.size());
  std::printf("claimed countries (paper: 222 incl. territories): %zu\n",
              claimed_countries.size());
  std::printf("eta (paper: 0.49, R^2>0.99):             %.3f (R^2 %.3f)\n\n",
              bundle.report.eta.eta, bundle.report.eta.r_squared);
  std::printf("credible   (paper:  989, 44%%):          %5zu (%4.1f%%)\n",
              tally.credible, 100.0 * tally.credible / n);
  std::printf("uncertain  (paper:  642, 28%%):          %5zu (%4.1f%%)\n",
              tally.uncertain, 100.0 * tally.uncertain / n);
  std::printf("false      (paper:  638, 28%%):          %5zu (%4.1f%%)\n",
              tally.false_, 100.0 * tally.false_ / n);
  std::printf("false on another continent (paper: 401): %5zu\n",
              false_other_continent);
  std::printf("uncertain on the same continent (462):   %5zu\n\n",
              uncertain_same_continent);

  double generous = 100.0 * (tally.credible + tally.uncertain) / n;
  double strict = 100.0 * tally.credible / n;
  std::printf("at most where they say (generous; paper <= 70%%): %.0f%%\n",
              generous);
  std::printf("confidently confirmed (strict; paper ~50%%):      %.0f%%\n",
              strict);
  std::printf("\nheadline shape check — 'at least one third of all the "
              "servers are not in their advertised country': %s "
              "(false = %.0f%%)\n",
              tally.false_ >= rows.size() / 3 ? "PASS" : "FAIL",
              100.0 * tally.false_ / n);

  // ---- Localization perf: thread scaling + coarse-to-fine refinement ----
  if (const char* p = std::getenv("AGEO_PERF_SECTION"))
    if (!std::strcmp(p, "off")) return 0;

  std::printf("\n=== Localization perf (BENCH_refine.json) ===\n\n");
  std::printf("%-24s %8s %-10s %7s %10s %12s %11s %9s\n", "cell", "grid",
              "schedule", "threads", "audit ms", "ms/proxy", "proxies/s",
              "speedup");

  // Thread scaling of the standard 1.0-degree audit. Reports are
  // bit-identical across thread counts by construction (pinned by
  // audit_parallel_test); here we record what that parallelism buys in
  // wall-clock.
  std::vector<PerfCell> threads_curve;
  for (int t : {1, 2, 4, 8}) {
    PerfCell c = run_perf_cell("threads-" + std::to_string(t), scale, 1.0,
                               "off", t);
    if (!threads_curve.empty())
      c.speedup = threads_curve.front().audit_ms / c.audit_ms;
    print_perf_row(c);
    threads_curve.push_back(std::move(c));
  }

  // Flat vs refined audit at 0.25-degree final resolution, serial, with
  // the refined rows checked against the flat oracle.
  std::printf("\n");
  const char* sched_env = std::getenv("AGEO_REFINE");
  const std::string schedule = sched_env ? sched_env : "2.0,0.5";
  std::vector<PerfCell> refine_curve;
  assess::AuditReport flat_report;
  PerfCell flat = run_perf_cell("flat-0.25deg", scale, 0.25, "off", 1,
                                &flat_report);
  print_perf_row(flat);
  refine_curve.push_back(flat);
  assess::AuditReport refined_report;
  PerfCell refined = run_perf_cell("refined-0.25deg", scale, 0.25, schedule,
                                   1, &refined_report);
  refined.speedup = flat.audit_ms / refined.audit_ms;
  refined.identical_to_flat = reports_match(flat_report, refined_report);
  print_perf_row(refined);
  refine_curve.push_back(refined);

  std::printf("\nrefined == flat oracle: %s;  refined speedup at "
              "0.25 degrees: %.2fx\n",
              refined.identical_to_flat ? "PASS" : "FAIL", refined.speedup);

  if (const char* path = std::getenv("AGEO_BENCH_JSON"))
    write_refine_json(path, scale, threads_curve, refine_curve);

  return refined.identical_to_flat ? 0 : 1;
}
