// Ablation: coarse-to-fine refinement schedules (DESIGN.md §12).
//
// Sweeps refinement schedule x geolocation algorithm on the 0.25-degree
// audit grid — the resolution where flat solves pay ~16x the cells of
// 1.0 degree for a surviving region that covers a sliver of Earth. Each
// refined cell is checked bit-identical against the flat cell of the
// same algorithm (region words, verdicts, subset membership): the
// schedules are pure performance levers, so any drift is a bug and
// fails the bench.
//
//   AGEO_SCALE=0.25 bench_ablation_refine
//   AGEO_BENCH_JSON=out.json  also write the sweep as JSON
//
// Every cell rebuilds the testbed from the same seed (audits perturb
// the testbed), so cells differ only in algorithm and schedule.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "assess/audit.hpp"
#include "bench_util.hpp"

using namespace ageo;

namespace {

constexpr double kGridDeg = 0.25;

struct CellResult {
  std::string algo;
  std::string schedule;  // "off" = flat baseline
  std::size_t n_proxies = 0;
  double audit_ms = 0.0;
  double ms_per_proxy = 0.0;
  double speedup = 1.0;  // vs the flat cell of the same algo
  bool identical_to_flat = true;
  std::uint64_t coarse_empty = 0;   // mlat.refine.coarse_empty
  std::uint64_t lcs_fallbacks = 0;  // mlat.refine.lcs_fallbacks
};

std::uint64_t counter(const obs::Snapshot& snap, const char* name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

CellResult run_cell(const std::string& algo, const std::string& schedule,
                    double scale, assess::AuditReport* report_out) {
  assess::AuditConfig cfg;
  cfg.grid_cell_deg = kGridDeg;
  cfg.refine = mlat::RefineSchedule::parse(schedule);
  cfg.algorithm = assess::parse_algorithm(algo);
  cfg.threads = bench::threads_from_env(cfg.threads);
  auto bed = bench::standard_testbed(scale);
  auto fleet = bench::standard_fleet(bed->world(), scale);
  assess::Auditor auditor(*bed, cfg);
  const std::uint64_t empty0 =
      counter(obs::Registry::global().snapshot(), "mlat.refine.coarse_empty");
  const std::uint64_t fall0 =
      counter(obs::Registry::global().snapshot(), "mlat.refine.lcs_fallbacks");
  const auto t0 = std::chrono::steady_clock::now();
  auto report = auditor.run(fleet);
  const auto t1 = std::chrono::steady_clock::now();

  CellResult r;
  r.algo = algo;
  r.schedule = schedule;
  r.n_proxies = report.rows.size();
  r.audit_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.ms_per_proxy =
      r.n_proxies ? r.audit_ms / static_cast<double>(r.n_proxies) : 0.0;
  r.coarse_empty =
      counter(obs::Registry::global().snapshot(), "mlat.refine.coarse_empty") - empty0;
  r.lcs_fallbacks =
      counter(obs::Registry::global().snapshot(), "mlat.refine.lcs_fallbacks") - fall0;
  if (report_out) *report_out = std::move(report);
  return r;
}

bool reports_match(const assess::AuditReport& a, const assess::AuditReport& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (x.region.words() != y.region.words() ||
        x.verdict_final != y.verdict_final ||
        x.constraints_used != y.constraints_used ||
        x.landmark_used != y.landmark_used || x.byzantine != y.byzantine)
      return false;
  }
  return true;
}

void print_row(const CellResult& r) {
  std::printf("%-8s %-10s %8zu %10.0f %12.4f %8.2fx %7llu %9llu  %s\n",
              r.algo.c_str(), r.schedule.c_str(), r.n_proxies, r.audit_ms,
              r.ms_per_proxy, r.speedup,
              static_cast<unsigned long long>(r.coarse_empty),
              static_cast<unsigned long long>(r.lcs_fallbacks),
              r.identical_to_flat ? "ok" : "MISMATCH");
}

void write_json(const std::string& path, const std::vector<CellResult>& cells,
                double scale) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"scale\": " << scale << ",\n  \"grid_deg\": " << kGridDeg
      << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& r = cells[i];
    out << "    {\"algo\":\"" << r.algo << "\",\"schedule\":\"" << r.schedule
        << "\",\"proxies\":" << r.n_proxies << ",\"audit_ms\":" << r.audit_ms
        << ",\"ms_per_proxy\":" << r.ms_per_proxy
        << ",\"speedup\":" << r.speedup << ",\"coarse_empty\":"
        << r.coarse_empty << ",\"lcs_fallbacks\":" << r.lcs_fallbacks
        << ",\"identical_to_flat\":"
        << (r.identical_to_flat ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  // The refine counters feed the per-cell fallback columns.
  obs::set_metrics_enabled(true);
  const double scale = bench::scale_from_env();
  const std::vector<std::string> algos{"cbgpp", "spotter", "hybrid"};
  const std::vector<std::string> schedules{"2.0", "0.5", "2.0,0.5"};

  std::printf("=== Ablation: refinement schedules at %.2f degrees "
              "(DESIGN.md §12) ===\n\n",
              kGridDeg);
  std::printf("%-8s %-10s %8s %10s %12s %9s %7s %9s  %s\n", "algo",
              "schedule", "proxies", "audit ms", "ms/proxy", "speedup",
              "empty", "fallbacks", "check");

  bool all_identical = true;
  std::vector<CellResult> cells;
  for (const auto& algo : algos) {
    assess::AuditReport flat_report;
    CellResult flat = run_cell(algo, "off", scale, &flat_report);
    print_row(flat);
    cells.push_back(flat);
    for (const auto& schedule : schedules) {
      assess::AuditReport report;
      CellResult r = run_cell(algo, schedule, scale, &report);
      r.speedup = r.audit_ms > 0.0 ? flat.audit_ms / r.audit_ms : 1.0;
      r.identical_to_flat = reports_match(flat_report, report);
      all_identical = all_identical && r.identical_to_flat;
      print_row(r);
      cells.push_back(std::move(r));
    }
    std::printf("\n");
  }

  std::printf("refined == flat oracle across every cell: %s\n",
              all_identical ? "PASS" : "FAIL");
  if (const char* path = std::getenv("AGEO_BENCH_JSON"))
    write_json(path, cells, scale);
  return all_identical ? 0 : 1;
}
