#include "measure/two_phase.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace ageo::measure {

namespace {
/// Minimum of `attempts` probes of a landmark, or nullopt if all failed.
std::optional<double> min_probe(const ProbeFn& probe, std::size_t id,
                                int attempts) {
  std::optional<double> best;
  for (int i = 0; i < attempts; ++i) {
    auto m = probe(id);
    AGEO_COUNT("measure.raw_probes");
    if (m) {
      // Simulated round-trip time: seed-derived, so the histogram is
      // deterministic across thread counts.
      AGEO_HIST("measure.rtt_ms", *m, 0.5, 4096.0);
    } else {
      AGEO_COUNT("measure.raw_probe_failures");
    }
    if (m && (!best || *m < *best)) best = m;
  }
  return best;
}
}  // namespace

void TwoPhaseConfig::validate() const {
  detail::require(anchors_per_continent > 0,
                  "two_phase.anchors_per_continent must be > 0");
  detail::require(phase2_landmarks > 0,
                  "two_phase.phase2_landmarks must be > 0");
  detail::require(attempts > 0, "two_phase.attempts must be > 0");
}

std::vector<std::size_t> continent_landmarks(const Testbed& bed,
                                             world::Continent continent) {
  const auto& landmarks = bed.landmarks();
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < landmarks.size(); ++i)
    if (landmarks[i].continent == continent) pool.push_back(i);
  return pool;
}

TwoPhaseResult two_phase_measure(const Testbed& bed, const ProbeFn& probe,
                                 Rng& rng, const TwoPhaseConfig& cfg) {
  AGEO_SPAN("measure", "two_phase");
  AGEO_COUNT("measure.two_phase.runs");
  cfg.validate();
  TwoPhaseResult result;
  const auto& landmarks = bed.landmarks();

  // ---- Phase 1: three anchors per continent ----
  double best_delay = std::numeric_limits<double>::infinity();
  for (std::size_t cont = 0; cont < world::kContinentCount; ++cont) {
    auto continent = static_cast<world::Continent>(cont);
    // Collect this continent's anchors, then sample without replacement.
    std::vector<std::size_t> pool;
    for (std::size_t a : bed.anchor_ids())
      if (landmarks[a].continent == continent) pool.push_back(a);
    int want = std::min<int>(cfg.anchors_per_continent,
                             static_cast<int>(pool.size()));
    for (int k = 0; k < want; ++k) {
      std::size_t pick = rng.uniform_index(pool.size() - static_cast<std::size_t>(k));
      std::swap(pool[pick], pool[pool.size() - 1 - static_cast<std::size_t>(k)]);
      std::size_t id = pool[pool.size() - 1 - static_cast<std::size_t>(k)];
      auto m = min_probe(probe, id, 1);
      if (!m) continue;
      result.phase1.push_back(
          {id, landmarks[id].location, *m / 2.0});
      if (*m < best_delay) {
        best_delay = *m;
        result.continent = continent;
      }
    }
  }

  // ---- Phase 2: 25 random landmarks on the chosen continent ----
  std::vector<std::size_t> pool = continent_landmarks(bed, result.continent);
  // Fisher–Yates partial shuffle.
  std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(cfg.phase2_landmarks), pool.size());
  for (std::size_t k = 0; k < want; ++k) {
    std::size_t pick = k + rng.uniform_index(pool.size() - k);
    std::swap(pool[k], pool[pick]);
    std::size_t id = pool[k];
    auto m = min_probe(probe, id, cfg.attempts);
    if (!m) continue;
    result.observations.push_back({id, landmarks[id].location, *m / 2.0});
    result.landmark_ids.push_back(id);
  }
  return result;
}

std::vector<algos::Observation> full_scan_measure(const Testbed& bed,
                                                  const ProbeFn& probe,
                                                  int attempts) {
  AGEO_SPAN("measure", "full_scan");
  detail::require(attempts > 0, "full_scan_measure: attempts must be > 0");
  std::vector<algos::Observation> out;
  const auto& landmarks = bed.landmarks();
  for (std::size_t a : bed.anchor_ids()) {
    auto m = min_probe(probe, a, attempts);
    if (!m) continue;
    out.push_back({a, landmarks[a].location, *m / 2.0});
  }
  return out;
}

}  // namespace ageo::measure
