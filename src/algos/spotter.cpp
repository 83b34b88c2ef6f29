#include "algos/spotter.hpp"

#include "common/error.hpp"
#include "grid/scratch.hpp"
#include "mlat/multilateration.hpp"
#include "obs/obs.hpp"

namespace ageo::algos {

namespace {

/// Resumable posterior for the streaming service: the UNnormalised
/// product of every ring seen so far, started from mlat::spotter_start
/// (the mask clipped to the capture's ring supports). Kept unnormalised
/// so appending ring k+1 produces the same per-cell factor sequence as
/// fusing all k+1 rings from scratch; each estimate normalises a COPY
/// (`work`, kept for its capacity) and cuts the credible region from
/// that.
struct SpotterMemo final : LocatorMemo {
  const grid::Grid* grid = nullptr;    ///< the capture's grid
  const grid::Region* mask = nullptr;  ///< the capture's mask (may be null)
  grid::Field product;
  grid::Field work;
  std::size_t n_rings = 0;

  /// Refresh `work` from `product` and cut the credible region. Both
  /// fields carry live lists after the first refresh, so the copy
  /// touches only the two lists' cells, not the grid.
  grid::Region estimate(double credible_mass) {
    work.copy_from(product);
    work.normalize();
    return work.credible_region(credible_mass);
  }
};

std::vector<mlat::GaussianConstraint> rings_of(
    const calib::CalibrationStore& store,
    std::span<const Observation> observations) {
  const auto& model = store.spotter();
  std::vector<mlat::GaussianConstraint> rings;
  rings.reserve(observations.size());
  for (const auto& ob : observations) {
    rings.push_back({ob.landmark, model.mu_km(ob.one_way_delay_ms),
                     model.sigma_km(ob.one_way_delay_ms)});
  }
  return rings;
}

}  // namespace

SpotterGeolocator::SpotterGeolocator(double credible_mass)
    : credible_mass_(credible_mass) {
  detail::require(credible_mass > 0.0 && credible_mass <= 1.0,
                  "SpotterGeolocator: credible mass must be in (0, 1]");
}

GeoEstimate SpotterGeolocator::locate(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations,
    const grid::Region* mask) const {
  AGEO_SPAN("algos", "spotter.locate");
  AGEO_COUNT("algos.spotter.locates");
  validate(store, observations);
  const LadderRecorder ladder(refine_, g, mask);
  GeoEstimate est{mlat::spotter_credible(g, rings_of(store, observations),
                                         credible_mass_, mask, plan_cache_,
                                         &grid::Scratch::tls(), refine_)};
  ladder.stamp(est);
  return est;
}

std::unique_ptr<LocatorMemo> SpotterGeolocator::locate_memo(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    GeoEstimate& out) const {
  AGEO_COUNT("algos.spotter.memo_captures");
  validate(store, observations);
  const LadderRecorder ladder(refine_, g, mask);
  const std::vector<mlat::GaussianConstraint> rings =
      rings_of(store, observations);
  // The product starts from the same region as locate's posterior: the
  // mask clipped to every ring's hard support. A cell off the start is
  // zero in the mask-started product and stays zero under every later
  // ring, so updates extend that product bit for bit.
  grid::Scratch* scratch = &grid::Scratch::tls();
  auto seed = grid::Scratch::region(scratch, g);
  mlat::spotter_start(g, rings, mask, plan_cache_, scratch, refine_,
                      seed.get());
  auto memo = std::make_unique<SpotterMemo>();
  memo->grid = &g;
  memo->mask = mask;
  memo->product.rebind(g, &seed.get());
  for (const auto& ring : rings) {
    mlat::multiply_ring_into(g, ring, plan_cache_, memo->product);
    ++memo->n_rings;
  }
  // Normalise a copy: the running product must stay unnormalised so the
  // next update appends to the same factor sequence the oracle fuses.
  out = GeoEstimate{memo->estimate(credible_mass_)};
  ladder.stamp(out);
  return memo;
}

bool SpotterGeolocator::locate_update(
    LocatorMemo& memo_base, const grid::Grid& g,
    const calib::CalibrationStore& store,
    std::span<const Observation> observations, std::size_t n_prev,
    const grid::Region* mask, GeoEstimate& out) const {
  auto* memo = dynamic_cast<SpotterMemo*>(&memo_base);
  if (memo == nullptr) return false;
  detail::require(&g == memo->grid && mask == memo->mask,
                  "Spotter locate_update: grid or mask differs from the "
                  "memo's");
  detail::require(n_prev == memo->n_rings,
                  "Spotter locate_update: memo does not match n_prev");
  detail::require(observations.size() > n_prev,
                  "Spotter locate_update: no new observations");
  AGEO_COUNT("algos.spotter.memo_updates");
  validate(store, observations);
  for (const auto& ring : rings_of(store, observations.subspan(n_prev))) {
    mlat::multiply_ring_into(g, ring, plan_cache_, memo->product);
    ++memo->n_rings;
  }
  out = GeoEstimate{memo->estimate(credible_mass_)};
  out.prov.incremental = true;
  return true;
}

}  // namespace ageo::algos
