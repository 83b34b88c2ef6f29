// Full Octant, with the "height" factor (paper §3.2 / Wong et al. 2007).
//
// The original Octant subtracts each landmark's local overhead — the
// time spent before routes to different destinations diverge — from its
// measurements, estimated from route traces. The paper had to omit this
// ("Quasi-Octant") because proxies break traceroute. Against direct
// targets the simulator can supply it, so this class exists to measure
// what the omission costs (bench_ablation_octant_height).
//
// The height of a landmark is estimated from its own calibration
// scatter: the smallest slack any peer shows over the physical
// propagation bound, h = min_i (delay_i - dist_i / 200 km/ms),
// clamped to >= 0. Every observation through that landmark then has h
// subtracted before the delay model is applied.
#pragma once

#include "algos/geolocator.hpp"

namespace ageo::algos {

/// Estimate a landmark's Octant height from its calibration data, ms.
/// Returns 0 for uncalibrated landmarks.
double octant_height_ms(const calib::CalibrationStore& store,
                        std::size_t landmark_id);

class FullOctantGeolocator final : public Geolocator {
 public:
  std::string_view name() const noexcept override { return "Octant"; }

 private:
  GeoEstimate solve(const grid::Grid& g, const calib::CalibrationStore& store,
                    std::span<const Observation> observations,
                    const grid::Region* mask,
                    std::unique_ptr<LocatorMemo>* memo) const override;
};

}  // namespace ageo::algos
