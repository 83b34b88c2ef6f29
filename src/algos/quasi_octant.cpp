#include "algos/quasi_octant.hpp"

#include "mlat/multilateration.hpp"

namespace ageo::algos {

GeoEstimate QuasiOctantGeolocator::solve(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    std::unique_ptr<LocatorMemo>* /*memo*/) const {
  validate(store, observations);
  std::vector<mlat::RingConstraint> rings;
  rings.reserve(observations.size());
  for (const auto& ob : observations) {
    const auto& model = store.octant(ob.landmark_id);
    rings.push_back({ob.landmark,
                     model.min_distance_km(ob.one_way_delay_ms),
                     model.max_distance_km(ob.one_way_delay_ms)});
  }
  return GeoEstimate{mlat::intersect_rings(g, rings, mask)};
}

}  // namespace ageo::algos
