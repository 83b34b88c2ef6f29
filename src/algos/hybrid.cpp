#include "algos/hybrid.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "grid/scratch.hpp"
#include "mlat/multilateration.hpp"

namespace ageo::algos {

HybridGeolocator::HybridGeolocator(double n_sigma, bool robust_subset)
    : n_sigma_(n_sigma), robust_subset_(robust_subset) {
  detail::require(n_sigma > 0.0, "HybridGeolocator: n_sigma must be > 0");
}

GeoEstimate HybridGeolocator::solve(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    std::unique_ptr<LocatorMemo>* /*memo*/) const {
  validate(store, observations);
  const auto& model = store.spotter();
  std::vector<mlat::RingConstraint> rings;
  rings.reserve(observations.size());
  for (const auto& ob : observations) {
    double mu = model.mu_km(ob.one_way_delay_ms);
    double sigma = model.sigma_km(ob.one_way_delay_ms);
    rings.push_back({ob.landmark, std::max(0.0, mu - n_sigma_ * sigma),
                     mu + n_sigma_ * sigma});
  }
  grid::Scratch* scratch = &grid::Scratch::tls();
  const LadderRecorder ladder(refine_, g, mask);
  if (!robust_subset_) {
    GeoEstimate est{
        mlat::intersect_rings(g, rings, mask, plan_cache_, scratch, refine_)};
    ladder.stamp(est);
    return est;
  }
  // Byzantine-robust mode: the subset engine's intersect-first fast
  // path makes a consistent (honest) ring set bit-identical to plain
  // intersect_rings; an inconsistent one keeps the largest consistent
  // coalition and reports who was excluded.
  mlat::SubsetResult subset{grid::Region(g), {}, 0};
  subset.n_used = mlat::largest_consistent_subset_into(
      g, rings, mask, plan_cache_, scratch, subset.region, subset.used,
      refine_);
  GeoEstimate est{std::move(subset.region)};
  est.constraints_total = rings.size();
  est.constraints_used = subset.n_used;
  est.used = std::move(subset.used);
  ladder.stamp(est);
  return est;
}

}  // namespace ageo::algos
