// Ablation: Byzantine landmarks (DESIGN.md §11).
//
// The §8 adversary bench lets the *proxy* lie; here the *landmarks* do.
// Sweeps attacker fraction x attack strategy x geolocation algorithm and
// measures what the lies cost (region-contains-truth rate, median-area
// blowup vs the honest baseline) and what the defences catch (byzantine
// row flags, suspicion-table precision/recall against the ground-truth
// attacker set).
//
//   AGEO_SCALE=0.25 AGEO_THREADS=0 bench_ablation_byzantine
//   AGEO_BENCH_JSON=out.json  also write the sweep as JSON
//
// Every cell rebuilds the testbed from the same seed, so cells differ
// only in the attached adversary profiles.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "assess/audit.hpp"
#include "bench_util.hpp"
#include "netsim/adversary.hpp"

using namespace ageo;

namespace {

struct CellResult {
  std::string algo;
  std::string strategy;
  double fraction = 0.0;
  std::size_t n_proxies = 0;
  std::size_t n_attackers = 0;
  double contains_rate = 0.0;
  double median_area_km2 = 0.0;
  double area_blowup = 1.0;  // vs the honest cell of the same algo
  std::size_t byzantine_rows = 0;
  std::size_t flagged_landmarks = 0;
  double flag_precision = 1.0;  // 1.0 when nothing is flagged
  double flag_recall = 0.0;     // 0.0 when there is nothing to catch
};

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

CellResult run_cell(const std::string& algo, const std::string& strategy,
                    double fraction, double scale) {
  assess::AuditConfig cfg;
  cfg.threads = bench::threads_from_env(0);
  cfg.algorithm = assess::parse_algorithm(algo);
  auto bed = bench::standard_testbed(scale);
  auto fleet = bench::standard_fleet(bed->world(), scale);

  std::vector<netsim::HostId> compromised;
  if (fraction > 0.0) {
    std::vector<netsim::HostId> landmark_hosts;
    landmark_hosts.reserve(bed->landmarks().size());
    for (std::size_t i = 0; i < bed->landmarks().size(); ++i)
      landmark_hosts.push_back(bed->landmark_host(i));
    const geo::LatLon fake{40.0, -100.0};  // colluders' rendezvous
    compromised = netsim::attach_adversaries(bed->net(), landmark_hosts,
                                             fraction, strategy, 2018, fake);
  }

  assess::Auditor auditor(*bed, cfg);
  auto report = auditor.run(fleet);

  CellResult r;
  r.algo = algo;
  r.strategy = strategy;
  r.fraction = fraction;
  r.n_proxies = report.rows.size();
  r.n_attackers = compromised.size();

  std::vector<double> areas;
  std::size_t contains = 0, nonempty = 0;
  for (const auto& row : report.rows) {
    if (row.byzantine) ++r.byzantine_rows;
    if (row.empty_prediction) continue;
    ++nonempty;
    areas.push_back(row.area_km2);
    if (row.region.contains(fleet.hosts[row.host_index].true_location))
      ++contains;
  }
  r.contains_rate = nonempty ? static_cast<double>(contains) / nonempty : 0.0;
  r.median_area_km2 = median(std::move(areas));

  // Suspicion scoring against the ground-truth attacker set.
  r.flagged_landmarks = report.suspicious_landmarks.size();
  std::size_t hits = 0;
  for (std::size_t id : report.suspicious_landmarks) {
    netsim::HostId h = bed->landmark_host(id);
    if (std::find(compromised.begin(), compromised.end(), h) !=
        compromised.end())
      ++hits;
  }
  if (r.flagged_landmarks)
    r.flag_precision =
        static_cast<double>(hits) / static_cast<double>(r.flagged_landmarks);
  if (!compromised.empty())
    r.flag_recall =
        static_cast<double>(hits) / static_cast<double>(compromised.size());
  return r;
}

void print_row(const CellResult& r) {
  std::printf("%-8s %-8s %8.2f %9zu %9.3f %12.0f %8.2fx %6zu %7zu "
              "%6.2f %6.2f\n",
              r.algo.c_str(), r.strategy.c_str(), r.fraction, r.n_attackers,
              r.contains_rate, r.median_area_km2, r.area_blowup,
              r.byzantine_rows, r.flagged_landmarks, r.flag_precision,
              r.flag_recall);
}

void write_json(const std::string& path,
                const std::vector<CellResult>& cells, double scale) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"scale\": " << scale << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& r = cells[i];
    out << "    {\"algo\":\"" << r.algo << "\",\"strategy\":\""
        << r.strategy << "\",\"fraction\":" << r.fraction
        << ",\"attackers\":" << r.n_attackers
        << ",\"contains_rate\":" << r.contains_rate
        << ",\"median_area_km2\":" << r.median_area_km2
        << ",\"area_blowup\":" << r.area_blowup
        << ",\"byzantine_rows\":" << r.byzantine_rows
        << ",\"flagged_landmarks\":" << r.flagged_landmarks
        << ",\"flag_precision\":" << r.flag_precision
        << ",\"flag_recall\":" << r.flag_recall << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const double scale = bench::scale_from_env();
  const std::vector<std::string> algos{"cbgpp", "spotter", "hybrid"};
  const std::vector<std::string> strategies{"inflate", "deflate", "collude",
                                            "drop"};
  const std::vector<double> fractions{0.10, 0.25, 0.40};

  std::printf("=== Ablation: Byzantine landmarks (DESIGN.md §11) ===\n\n");
  std::printf("%-8s %-8s %8s %9s %9s %12s %9s %6s %7s %6s %6s\n", "algo",
              "attack", "fraction", "attackers", "contains", "med km^2",
              "blowup", "byz", "flagged", "prec", "recall");

  std::vector<CellResult> cells;
  for (const auto& algo : algos) {
    // Honest baseline, once per algorithm; every strategy curve starts
    // from it.
    CellResult honest = run_cell(algo, "honest", 0.0, scale);
    print_row(honest);
    cells.push_back(honest);
    const double base_area = std::max(1.0, honest.median_area_km2);
    for (const auto& strategy : strategies) {
      for (double f : fractions) {
        CellResult r = run_cell(algo, strategy, f, scale);
        r.area_blowup = r.median_area_km2 / base_area;
        print_row(r);
        cells.push_back(r);
      }
    }
    std::printf("\n");
  }

  std::printf("shape checks:\n");
  auto cell = [&](const std::string& a, const std::string& s,
                  double f) -> const CellResult& {
    for (const auto& c : cells)
      if (c.algo == a && c.strategy == s && c.fraction == f) return c;
    return cells.front();
  };
  // Deflation is the detectable attack: its constraints exclude the
  // truth, lose the subset vote, and build up suspicion.
  const auto& defl = cell("cbgpp", "deflate", 0.25);
  std::printf("  deflate@25%% is caught (prec=%.2f recall=%.2f):  %s\n",
              defl.flag_precision, defl.flag_recall,
              (defl.flagged_landmarks > 0 && defl.flag_precision >= 0.9)
                  ? "PASS"
                  : "FAIL");
  // Collusion is the stealthy attack: consistency-preserving lies pass
  // the subset vote yet pull the region away from the truth.
  const auto& coll = cell("cbgpp", "collude", 0.25);
  std::printf("  collude@25%% degrades contains-rate (%.3f vs %.3f): %s\n",
              coll.contains_rate, cell("cbgpp", "honest", 0.0).contains_rate,
              coll.contains_rate <
                      cell("cbgpp", "honest", 0.0).contains_rate - 0.05
                  ? "PASS"
                  : "FAIL");

  if (const char* path = std::getenv("AGEO_BENCH_JSON"))
    write_json(path, cells, scale);
  return 0;
}
