#include "measure/drift.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ageo::measure {

void DriftConfig::validate() const {
  // Comparisons are written so that NaN fails them.
  detail::require(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
                  "drift.ewma_alpha must be in (0, 1]");
  detail::require(std::isfinite(deflate_ms) && deflate_ms > 0.0,
                  "drift.deflate_ms must be finite and > 0");
  detail::require(std::isfinite(inflate_ms) && inflate_ms > 0.0,
                  "drift.inflate_ms must be finite and > 0");
  detail::require(min_samples > 0, "drift.min_samples must be >= 1");
}

DriftWatchdog::DriftWatchdog(std::size_t n_landmarks, DriftConfig cfg)
    : cfg_(cfg), entries_(n_landmarks) {
  cfg_.validate();
}

void DriftWatchdog::observe(std::size_t landmark_id,
                            double residual_ms) noexcept {
  if (landmark_id >= entries_.size() || !std::isfinite(residual_ms)) return;
  DriftEntry& e = entries_[landmark_id];
  if (e.samples == 0) {
    e.ewma_ms = residual_ms;
    e.min_ms = residual_ms;
    e.max_ms = residual_ms;
  } else {
    e.ewma_ms += cfg_.ewma_alpha * (residual_ms - e.ewma_ms);
    e.min_ms = std::min(e.min_ms, residual_ms);
    e.max_ms = std::max(e.max_ms, residual_ms);
  }
  ++e.samples;
}

bool DriftWatchdog::is_flagged(std::size_t landmark_id) const noexcept {
  if (landmark_id >= entries_.size()) return false;
  const DriftEntry& e = entries_[landmark_id];
  if (e.samples < cfg_.min_samples) return false;
  return e.ewma_ms <= -cfg_.deflate_ms || e.ewma_ms >= cfg_.inflate_ms;
}

std::vector<std::size_t> DriftWatchdog::flagged() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (is_flagged(i)) out.push_back(i);
  return out;
}

}  // namespace ageo::measure
