// Shared scaffolding for the figure-regeneration benches.
//
// Every bench builds the same standard testbed (or a scaled version of
// it; set AGEO_SCALE=0.25 in the environment to shrink workloads while
// iterating) and prints paper-style tables to stdout.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "assess/audit.hpp"
#include "measure/testbed.hpp"
#include "measure/tools.hpp"
#include "measure/two_phase.hpp"
#include "world/crowd.hpp"
#include "world/fleet.hpp"

namespace ageo::bench {

/// Workload knobs, parsed strictly: a value that does not parse or is out
/// of range prints the variable's name and exits 2; unset or empty gives
/// the default. AGEO_SCALE: scale in (0, 4] (default 1.0 = paper scale).
double scale_from_env();
/// AGEO_THREADS: worker threads in [0, 2147483647]; `fallback` if unset.
int threads_from_env(int fallback);
/// AGEO_AUDIT_ALGO: an assess::parse_algorithm name (default cbgpp).
assess::AuditAlgorithm algorithm_from_env();
/// AGEO_BENCH_REPEAT: audit repeats in [1, 2147483647] (default 1).
int repeat_from_env();
/// A gate floor read from `var` (AGEO_SERVE_AB_MIN,
/// AGEO_SERVE_FLOOR_PPS): a finite number >= 0; `fallback` if unset.
double floor_from_env(const char* var, double fallback);

/// The standard testbed: 250 anchors + 800 probes (paper Fig. 3 scale),
/// seed 2018.
std::unique_ptr<measure::Testbed> standard_testbed(double scale = 1.0);

/// The seven-provider fleet at the paper's ~2269-server scale.
world::Fleet standard_fleet(const world::WorldModel& w, double scale = 1.0);

struct AuditBundle {
  std::unique_ptr<measure::Testbed> bed;
  world::Fleet fleet;
  assess::AuditReport report;
  /// Wall-clock of testbed construction (calibration) and of the audit
  /// proper, ms.
  double setup_ms = 0.0;
  double audit_ms = 0.0;
};

/// Full §6 audit: testbed + fleet + geolocation pipeline over every
/// proxy. `threads` is forwarded to AuditConfig::threads (0 = hardware
/// concurrency, 1 = serial); AGEO_THREADS in the environment overrides.
/// The algorithm comes from algorithm_from_env(). `base` seeds the rest
/// of the AuditConfig (grid resolution, refinement schedule, ...);
/// threads and algorithm are overridden as above.
AuditBundle run_standard_audit(double scale = 1.0, int threads = 1,
                               const assess::AuditConfig& base = {});

/// Per-crowd-host measurement result for the §5 validation experiments.
struct CrowdMeasurement {
  const world::CrowdHost* host = nullptr;
  std::vector<algos::Observation> observations;
  world::Continent continent = world::Continent::kEurope;
};

/// Measure every crowd host with the web tool through the two-phase
/// procedure (the paper's validation setup, §5).
std::vector<CrowdMeasurement> measure_crowd(
    measure::Testbed& bed, const std::vector<world::CrowdHost>& crowd,
    std::uint64_t seed = 5);

/// Print "name: p10 p25 p50 p75 p90 max" for a sample.
void print_quantiles(const std::string& name, std::vector<double> xs);

/// Print an ECDF evaluated at the given points.
void print_ecdf(const std::string& name, const std::vector<double>& xs,
                const std::vector<double>& at);

}  // namespace ageo::bench
