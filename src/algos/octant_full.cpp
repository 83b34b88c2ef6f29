#include "algos/octant_full.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "geo/units.hpp"
#include "mlat/multilateration.hpp"

namespace ageo::algos {

double octant_height_ms(const calib::CalibrationStore& store,
                        std::size_t landmark_id) {
  auto data = store.data(landmark_id);
  if (data.empty()) return 0.0;
  // A pair's slack over the physical propagation bound contains both
  // endpoints' local overheads plus routing detours. Among the nearest
  // peers the detour term is smallest, and under symmetry half of the
  // residual slack is this landmark's own overhead — its "height".
  std::vector<calib::CalibPoint> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const calib::CalibPoint& a, const calib::CalibPoint& b) {
              return a.distance_km < b.distance_km;
            });
  const std::size_t consider = std::min<std::size_t>(10, sorted.size());
  double min_slack = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < consider; ++i) {
    double slack = sorted[i].delay_ms -
                   sorted[i].distance_km / geo::kFibreSpeedKmPerMs;
    min_slack = std::min(min_slack, slack);
  }
  return std::max(0.0, min_slack / 2.0);
}

GeoEstimate FullOctantGeolocator::solve(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    std::unique_ptr<LocatorMemo>* /*memo*/) const {
  validate(store, observations);
  std::vector<mlat::RingConstraint> rings;
  rings.reserve(observations.size());
  for (const auto& ob : observations) {
    const auto& model = store.octant(ob.landmark_id);
    double h = octant_height_ms(store, ob.landmark_id);
    // The height is the landmark's share of every measurement; the
    // model curves were fitted on un-corrected data, so subtracting h
    // here tightens the max bound by h * model-speed (and floors the
    // corrected delay at a small positive value).
    double t = std::max(0.01, ob.one_way_delay_ms - h);
    rings.push_back(
        {ob.landmark, model.min_distance_km(t), model.max_distance_km(t)});
  }
  return GeoEstimate{mlat::intersect_rings(g, rings, mask)};
}

}  // namespace ageo::algos
