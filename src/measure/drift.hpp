// Per-landmark RTT-drift watchdogs.
//
// A landmark whose reported delays drift away from its calibration
// baseline is either degrading (stale path, congested uplink) or lying
// (BFT-PoLoc's delay-shift adversaries). The watchdog tracks, per
// landmark, an EWMA of the *residual* between each observed one-way
// delay and what the landmark's fitted CBG model predicts for the
// distance actually involved:
//
//   residual_ms = observed_delay_ms
//               - (intercept_ms + slope_ms_per_km * distance_km)
//
// The bestline fit is a lower envelope of the calibration cloud, so an
// honest landmark's residuals are small and non-negative on average.
// A deflating attacker (shrinking its disks to frame a fake region)
// drives the residual strongly negative — physically impossible under
// an honest fit — while an inflating one pushes it far positive. The
// thresholds are therefore asymmetric: a little negative drift is
// damning, positive drift needs a wide margin before it beats honest
// queueing noise.
//
// Determinism: observe() is plain arithmetic with no clock or RNG; fed
// in a fixed order (the audit's serial epilogue walks proxies in host
// index order) the entries and flag set are bit-identical across
// thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ageo::measure {

struct DriftConfig {
  /// EWMA smoothing factor in (0, 1]; 1 = last sample only.
  double ewma_alpha = 0.25;
  /// Flag when the EWMA residual <= -deflate_ms (impossible-fast
  /// replies). Tight: honest bestline residuals are non-negative up to
  /// the centroid's grid-cell error (~2-3 ms), and the per-landmark
  /// EWMA averages that error across independent proxies, so a
  /// sustained -5 ms is physically inconsistent with an honest fit.
  double deflate_ms = 5.0;
  /// Flag when the EWMA residual >= +inflate_ms (delays far above the
  /// fit). Wide: honest paths wander tens of ms above the envelope.
  double inflate_ms = 150.0;
  /// No verdict before this many samples (EWMA still warming up).
  std::uint64_t min_samples = 8;

  /// ewma_alpha in (0, 1], both thresholds finite and > 0, min_samples
  /// >= 1. Throws InvalidArgument naming the field (as `drift.<field>`,
  /// its path in assess::AuditConfig).
  void validate() const;
};

/// One landmark's running drift state.
struct DriftEntry {
  std::uint64_t samples = 0;
  double ewma_ms = 0.0;  ///< EWMA of the residual; 0 until first sample
  double min_ms = 0.0;   ///< extreme residuals seen (0 when no samples)
  double max_ms = 0.0;

  friend bool operator==(const DriftEntry&, const DriftEntry&) = default;
};

class DriftWatchdog {
 public:
  /// Throws InvalidArgument when `cfg` fails DriftConfig::validate.
  explicit DriftWatchdog(std::size_t n_landmarks, DriftConfig cfg = {});

  /// Fold one residual into the landmark's EWMA. Out-of-range ids and
  /// non-finite residuals are ignored (telemetry must degrade, never
  /// abort).
  void observe(std::size_t landmark_id, double residual_ms) noexcept;

  const DriftConfig& config() const noexcept { return cfg_; }
  const std::vector<DriftEntry>& entries() const noexcept { return entries_; }

  /// Whether this landmark's EWMA has crossed a threshold (with enough
  /// samples to trust it).
  bool is_flagged(std::size_t landmark_id) const noexcept;

  /// Every flagged landmark id, ascending.
  std::vector<std::size_t> flagged() const;

 private:
  DriftConfig cfg_;
  std::vector<DriftEntry> entries_;
};

}  // namespace ageo::measure
