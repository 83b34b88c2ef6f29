// Two-phase measurement (paper §4.1).
//
// Pinging all ~250 anchors takes minutes and landmarks far from the
// target contribute little (§5.2), so: phase 1 measures three anchors per
// continent and guesses the target's continent from the fastest reply;
// phase 2 measures 25 randomly selected landmarks (anchors + stable
// probes) on that continent.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "algos/geolocator.hpp"
#include "common/rng.hpp"
#include "measure/probe_policy.hpp"
#include "measure/testbed.hpp"
#include "world/continent.hpp"

namespace ageo::measure {

struct TwoPhaseConfig {
  int anchors_per_continent = 3;
  int phase2_landmarks = 25;
  /// Probes per landmark; the minimum is kept.
  int attempts = 3;

  /// Every field must be >= 1. Throws InvalidArgument naming the field
  /// (as `two_phase.<field>`, its path in assess::AuditConfig).
  void validate() const;
};

struct TwoPhaseResult {
  world::Continent continent = world::Continent::kEurope;
  /// Phase-2 observations (one-way delays), ready for a Geolocator.
  std::vector<algos::Observation> observations;
  /// The phase-1 continental scan, same format.
  std::vector<algos::Observation> phase1;
  /// Landmark ids used in phase 2 (diagnostics / refinement).
  std::vector<std::size_t> landmark_ids;
  /// Fault telemetry; populated only by the campaign-engine overload
  /// (measure/campaign.hpp) — all-zero under the bare ProbeFn path.
  CampaignStats stats;
};

/// Landmark ids (anchors + probes) on `continent`, ascending — the
/// phase-2 sampling pool, exposed for the streaming service's per-proxy
/// re-probe pool (src/serve), which must draw from exactly the
/// population phase 2 drew from.
std::vector<std::size_t> continent_landmarks(const Testbed& bed,
                                             world::Continent continent);

/// Run the two-phase procedure. The returned observations may be fewer
/// than requested when landmarks are unreachable through `probe`.
TwoPhaseResult two_phase_measure(const Testbed& bed, const ProbeFn& probe,
                                 Rng& rng, const TwoPhaseConfig& cfg = {});

/// Single-phase variant (measure every anchor); used by the landmark
/// effectiveness analysis (Fig. 11) and as an ablation baseline.
std::vector<algos::Observation> full_scan_measure(const Testbed& bed,
                                                  const ProbeFn& probe,
                                                  int attempts = 3);

}  // namespace ageo::measure
