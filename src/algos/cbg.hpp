// Constraint-Based Geolocation (paper §3.1; Gueye et al. 2004).
#pragma once

#include "algos/geolocator.hpp"

namespace ageo::algos {

/// Classic CBG: one bestline disk per landmark, intersected. Fails
/// (empty region) when any bestline underestimates.
class CbgGeolocator final : public Geolocator {
 public:
  std::string_view name() const noexcept override { return "CBG"; }

 private:
  GeoEstimate solve(const grid::Grid& g, const calib::CalibrationStore& store,
                    std::span<const Observation> observations,
                    const grid::Region* mask,
                    std::unique_ptr<LocatorMemo>* memo) const override;
};

}  // namespace ageo::algos
