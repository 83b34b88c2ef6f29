// The ICLab location checker (paper §6.2; Razaghpanah et al. 2016).
//
// Unlike the estimators, this only tries to DISPROVE a claimed country:
// for each landmark, compute the minimum distance from the landmark to
// the claimed country and the speed a packet would have needed to cover
// it in the observed one-way time; reject the claim if any measurement
// implies a speed above the limit (153 km/ms = 0.5104 c by default).
#pragma once

#include <span>

#include "algos/geolocator.hpp"
#include "grid/region.hpp"

namespace ageo::algos {

struct IclabOptions {
  /// "Speed of internet" limit, km/ms.
  double speed_limit_km_per_ms = 153.0;

  /// The limit must be finite and > 0 (+inf would accept every claim).
  /// Throws InvalidArgument naming `iclab.speed_limit_km_per_ms`.
  void validate() const;
};

class IclabChecker {
 public:
  explicit IclabChecker(IclabOptions options = {});

  /// True when the observations are consistent with the target being
  /// anywhere inside `claimed_country` (i.e. the claim is accepted).
  bool accepts(const grid::Region& claimed_country,
               std::span<const Observation> observations) const;

  /// Number of observations that individually violate the speed limit
  /// for this claim (0 means accepted).
  std::size_t violations(const grid::Region& claimed_country,
                         std::span<const Observation> observations) const;

  /// Same checks against a precomputed distance table:
  /// `landmark_min_km[ob.landmark_id]` must equal
  /// `claimed_country.distance_from_km(ob.landmark)`. Lets a caller that
  /// checks many proxies against the same country pay the region scans
  /// once per (country, landmark) pair instead of once per observation.
  bool accepts(std::span<const Observation> observations,
               std::span<const double> landmark_min_km) const;
  std::size_t violations(std::span<const Observation> observations,
                         std::span<const double> landmark_min_km) const;

 private:
  IclabOptions options_;
};

}  // namespace ageo::algos
