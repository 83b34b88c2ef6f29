#include "algos/iclab.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ageo::algos {

void IclabOptions::validate() const {
  detail::require(std::isfinite(speed_limit_km_per_ms) &&
                      speed_limit_km_per_ms > 0.0,
                  "iclab.speed_limit_km_per_ms must be finite and > 0");
}

IclabChecker::IclabChecker(IclabOptions options) : options_(options) {
  options_.validate();
}

namespace {

std::size_t count_violations(std::span<const Observation> observations,
                             double speed_limit_km_per_ms,
                             const grid::Region* claimed_country,
                             std::span<const double> landmark_min_km) {
  std::size_t count = 0;
  for (const auto& ob : observations) {
    // Minimum distance from the landmark to anywhere in the country.
    double min_km;
    if (claimed_country) {
      min_km = claimed_country->distance_from_km(ob.landmark);
    } else {
      detail::require(ob.landmark_id < landmark_min_km.size(),
                      "IclabChecker: landmark id outside distance table");
      min_km = landmark_min_km[ob.landmark_id];
    }
    if (min_km <= 0.0) continue;  // landmark inside the claimed country
    if (ob.one_way_delay_ms <= 0.0) {
      ++count;  // instantaneous reply from a nonzero distance
      continue;
    }
    double required_speed = min_km / ob.one_way_delay_ms;
    if (required_speed > speed_limit_km_per_ms) ++count;
  }
  return count;
}

}  // namespace

std::size_t IclabChecker::violations(
    const grid::Region& claimed_country,
    std::span<const Observation> observations) const {
  detail::require(!claimed_country.empty(),
                  "IclabChecker: claimed country region is empty");
  return count_violations(observations, options_.speed_limit_km_per_ms,
                          &claimed_country, {});
}

std::size_t IclabChecker::violations(
    std::span<const Observation> observations,
    std::span<const double> landmark_min_km) const {
  return count_violations(observations, options_.speed_limit_km_per_ms,
                          nullptr, landmark_min_km);
}

bool IclabChecker::accepts(const grid::Region& claimed_country,
                           std::span<const Observation> observations) const {
  return violations(claimed_country, observations) == 0;
}

bool IclabChecker::accepts(std::span<const Observation> observations,
                           std::span<const double> landmark_min_km) const {
  return violations(observations, landmark_min_km) == 0;
}

}  // namespace ageo::algos
