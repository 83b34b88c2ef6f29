#include "algos/spotter.hpp"

#include "common/error.hpp"
#include "grid/scratch.hpp"
#include "mlat/multilateration.hpp"
#include "mlat/refine.hpp"
#include "obs/obs.hpp"

namespace ageo::algos {

namespace {

/// Resumable posterior for the streaming service: the masked,
/// UNnormalised product of every ring seen so far. Kept unnormalised so
/// appending ring k+1 produces the same per-cell factor sequence as
/// fusing all k+1 rings from scratch; each estimate normalises a COPY
/// (`work`, kept for its capacity) and cuts the credible region from
/// that.
struct SpotterMemo final : LocatorMemo {
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
  const auto& model = store.spotter();
  std::vector<mlat::GaussianConstraint> rings;
  rings.reserve(observations.size());
  for (const auto& ob : observations) {
    rings.push_back({ob.landmark, model.mu_km(ob.one_way_delay_ms),
                     model.sigma_km(ob.one_way_delay_ms)});
  }
  // Coarse-to-fine: the same fusion from the coarse survivors' children
  // instead of the whole mask; the cut is bit-identical.
  if (refine_ && refine_->applies_to(g, mask)) {
    const LadderRecorder ladder(true);
    GeoEstimate est{mlat::refine_spotter_credible(
        *refine_, rings, credible_mass_, mask, plan_cache_,
        &grid::Scratch::tls())};
    ladder.stamp(est);
    return est;
  }
  // Pooled posterior: the Field (and its internal temporaries, via the
  // attached arena) comes from the thread's scratch pool, already masked
  // in the same pass that resets it; only the credible region escapes.
  auto posterior = grid::Scratch::field(&grid::Scratch::tls(), g, mask);
  mlat::fuse_gaussian_rings_into(g, rings, posterior.ref(), nullptr,
                                 plan_cache_);
  return GeoEstimate{posterior.ref().credible_region(credible_mass_)};
}

std::unique_ptr<LocatorMemo> SpotterGeolocator::locate_memo(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    GeoEstimate& out) const {
  // The refined posterior starts from the coarse survivors of the whole
  // observation list, so it is no running product to resume: refined
  // configs stay on the plain path.
  if (refine_ && refine_->applies_to(g, mask)) {
    out = locate(g, store, observations, mask);
    return nullptr;
  }
  AGEO_COUNT("algos.spotter.memo_captures");
  validate(store, observations);
  if (mask)
    detail::require(mask->grid() == &g,
                    "Spotter locate_memo: mask grid mismatch");
  auto memo = std::make_unique<SpotterMemo>();
  memo->product.rebind(g, mask);
  const auto& model = store.spotter();
  for (const auto& ob : observations) {
    mlat::multiply_ring_into(g,
                             {ob.landmark, model.mu_km(ob.one_way_delay_ms),
                              model.sigma_km(ob.one_way_delay_ms)},
                             plan_cache_, memo->product);
    ++memo->n_rings;
  }
  // Normalise a copy: the running product must stay unnormalised so the
  // next update appends to the same factor sequence the oracle fuses.
  out = GeoEstimate{memo->estimate(credible_mass_)};
  return memo;
}

bool SpotterGeolocator::locate_update(
    LocatorMemo& memo_base, const grid::Grid& g,
    const calib::CalibrationStore& store,
    std::span<const Observation> observations, std::size_t n_prev,
    const grid::Region* mask, GeoEstimate& out) const {
  auto* memo = dynamic_cast<SpotterMemo*>(&memo_base);
  if (memo == nullptr || (refine_ && refine_->applies_to(g, mask)))
    return false;
  detail::require(n_prev == memo->n_rings,
                  "Spotter locate_update: memo does not match n_prev");
  detail::require(observations.size() > n_prev,
                  "Spotter locate_update: no new observations");
  AGEO_COUNT("algos.spotter.memo_updates");
  validate(store, observations);
  const auto& model = store.spotter();
  for (std::size_t j = n_prev; j < observations.size(); ++j) {
    const Observation& ob = observations[j];
    mlat::multiply_ring_into(g,
                             {ob.landmark, model.mu_km(ob.one_way_delay_ms),
                              model.sigma_km(ob.one_way_delay_ms)},
                             plan_cache_, memo->product);
    ++memo->n_rings;
  }
  out = GeoEstimate{memo->estimate(credible_mass_)};
  out.prov.incremental = true;
  return true;
}

}  // namespace ageo::algos
