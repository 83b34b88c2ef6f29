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
  grid::detail::require_credible_mass(credible_mass,
                                      "SpotterGeolocator: credible mass");
}

GeoEstimate SpotterGeolocator::solve(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    std::unique_ptr<LocatorMemo>* memo) const {
  AGEO_SPAN("algos", "spotter.locate");
  AGEO_COUNT("algos.spotter.locates");
  validate(store, observations);
  const LadderRecorder ladder(refine_, g, mask);
  const std::vector<mlat::GaussianConstraint> rings =
      rings_of(store, observations);
  grid::Scratch* scratch = &grid::Scratch::tls();
  auto seed = grid::Scratch::region(scratch, g);
  GeoEstimate est;
  if (memo == nullptr) {
    // Pooled posterior; only the credible region escapes.
    auto posterior = grid::Scratch::field(scratch);
    mlat::spotter_start(g, rings, mask, plan_cache_, scratch, refine_,
                        seed.get(), posterior.get());
    posterior.get().normalize();  // a zero-mass field stays as it is
    est.region = posterior.get().credible_region(credible_mass_);
  } else {
    AGEO_COUNT("algos.spotter.memo_captures");
    auto m = std::make_unique<SpotterMemo>();
    m->grid = &g;
    m->mask = mask;
    // The product borrows this thread's arena for the call only: the
    // memo may be updated later from another worker.
    m->product.set_scratch(scratch);
    mlat::spotter_start(g, rings, mask, plan_cache_, scratch, refine_,
                        seed.get(), m->product);
    m->product.set_scratch(nullptr);
    m->n_rings = rings.size();
    est.region = m->estimate(credible_mass_);
    *memo = std::move(m);
  }
  ladder.stamp(est);
  return est;
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
  mlat::multiply_rings_into(g, rings_of(store, observations.subspan(n_prev)),
                            plan_cache_, memo->product);
  memo->n_rings = observations.size();
  out = GeoEstimate{memo->estimate(credible_mass_)};
  out.prov.incremental = true;
  return true;
}

}  // namespace ageo::algos
