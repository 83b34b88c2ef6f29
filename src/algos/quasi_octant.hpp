// Quasi-Octant (paper §3.2; Wong et al. 2007 minus traceroute features).
#pragma once

#include "algos/geolocator.hpp"

namespace ageo::algos {

/// Ring constraints from each landmark's convex-hull delay model; the
/// prediction is the intersection of all rings.
class QuasiOctantGeolocator final : public Geolocator {
 public:
  std::string_view name() const noexcept override { return "Quasi-Octant"; }

 private:
  GeoEstimate solve(const grid::Grid& g, const calib::CalibrationStore& store,
                    std::span<const Observation> observations,
                    const grid::Region* mask,
                    std::unique_ptr<LocatorMemo>* memo) const override;
};

}  // namespace ageo::algos
