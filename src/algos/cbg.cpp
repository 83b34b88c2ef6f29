#include "algos/cbg.hpp"

#include "mlat/multilateration.hpp"

namespace ageo::algos {

GeoEstimate CbgGeolocator::solve(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    std::unique_ptr<LocatorMemo>* /*memo*/) const {
  validate(store, observations);
  std::vector<mlat::DiskConstraint> disks;
  disks.reserve(observations.size());
  for (const auto& ob : observations) {
    const auto& model = store.cbg(ob.landmark_id);
    disks.push_back(
        {ob.landmark, model.max_distance_km(ob.one_way_delay_ms)});
  }
  return GeoEstimate{mlat::intersect_disks(g, disks, mask)};
}

}  // namespace ageo::algos
