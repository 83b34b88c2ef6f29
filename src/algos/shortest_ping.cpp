#include "algos/shortest_ping.hpp"

#include "common/error.hpp"
#include "grid/raster.hpp"

namespace ageo::algos {

ShortestPingGeolocator::ShortestPingGeolocator(double radius_km)
    : radius_km_(radius_km) {
  detail::require(radius_km >= 0.0,
                  "ShortestPingGeolocator: radius must be >= 0");
}

std::size_t ShortestPingGeolocator::fastest_landmark(
    std::span<const Observation> observations) {
  detail::require(!observations.empty(),
                  "ShortestPingGeolocator: no observations");
  std::size_t best = 0;
  for (std::size_t i = 1; i < observations.size(); ++i)
    if (observations[i].one_way_delay_ms <
        observations[best].one_way_delay_ms)
      best = i;
  return best;
}

GeoEstimate ShortestPingGeolocator::solve(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    std::unique_ptr<LocatorMemo>* /*memo*/) const {
  validate(store, observations);
  const Observation& winner = observations[fastest_landmark(observations)];
  grid::Region r(g);
  if (radius_km_ > 0.0) {
    r = grid::rasterize_cap(g, geo::Cap{winner.landmark, radius_km_});
  }
  r.set(g.cell_at(winner.landmark));
  if (mask) {
    // Keep at least the winning cell even if the mask excludes it (the
    // guess is the landmark itself, which is on land by construction).
    bool cell_masked = !mask->test(g.cell_at(winner.landmark));
    r &= *mask;
    if (cell_masked) r.set(g.cell_at(winner.landmark));
  }
  return GeoEstimate{std::move(r)};
}

}  // namespace ageo::algos
