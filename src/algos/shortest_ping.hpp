// Shortest-ping geolocation (paper §2; GeoPing lineage).
//
// The simplest active method: guess that the target is wherever the
// landmark with the smallest delay is. Works when a landmark happens to
// be nearby and "breaks down when the target is not near any of the
// landmarks" — included as the historical baseline the multilateration
// algorithms improve on.
#pragma once

#include "algos/geolocator.hpp"

namespace ageo::algos {

class ShortestPingGeolocator final : public Geolocator {
 public:
  /// The prediction is a disk of `radius_km` around the fastest
  /// landmark (0 = just that landmark's grid cell).
  explicit ShortestPingGeolocator(double radius_km = 100.0);

  std::string_view name() const noexcept override { return "Shortest-Ping"; }

  /// The winning landmark of the last-constructed constraint is exposed
  /// via this helper for diagnostics.
  static std::size_t fastest_landmark(
      std::span<const Observation> observations);

 private:
  GeoEstimate solve(const grid::Grid& g, const calib::CalibrationStore& store,
                    std::span<const Observation> observations,
                    const grid::Region* mask,
                    std::unique_ptr<LocatorMemo>* memo) const override;

  double radius_km_;
};

}  // namespace ageo::algos
