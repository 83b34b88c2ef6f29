// Spotter (paper §3.3; Laki et al. 2011).
#pragma once

#include "algos/geolocator.hpp"

namespace ageo::algos {

/// Probabilistic multilateration: per-landmark Gaussian rings of
/// probability combined with Bayes' rule; the prediction region is the
/// highest-density set holding `credible_mass` of the posterior.
class SpotterGeolocator final : public Geolocator {
 public:
  explicit SpotterGeolocator(double credible_mass = 0.95);

  std::string_view name() const noexcept override { return "Spotter"; }

  GeoEstimate locate(const grid::Grid& g,
                     const calib::CalibrationStore& store,
                     std::span<const Observation> observations,
                     const grid::Region* mask = nullptr) const override;

  /// Full solve + resumable posterior for the streaming service: the
  /// memo keeps the UNnormalised ring product, started from the same
  /// region as locate() (mlat::spotter_start: the mask clipped to every
  /// captured ring's hard support), so an appended observation
  /// multiplies exactly one more ring into it. A cell off the start is
  /// zero in the mask-started product and stays zero under more rings,
  /// so the memo is exact, refined or flat.
  std::unique_ptr<LocatorMemo> locate_memo(
      const grid::Grid& g, const calib::CalibrationStore& store,
      std::span<const Observation> observations, const grid::Region* mask,
      GeoEstimate& out) const override;

  /// Multiply the appended observations' rings into the cached product
  /// (in observation order), then normalise a copy and cut the credible
  /// region. Per-cell factor order matches a from-scratch fuse of the
  /// full ring list, so the posterior — and the region cut from it — is
  /// bit-identical to locate(). Never leaves the fast path: a zero-mass
  /// product stays zero under further multiplies, exactly like the
  /// oracle's. Throws InvalidArgument when `g` or `mask` is not the
  /// capture's.
  bool locate_update(LocatorMemo& memo, const grid::Grid& g,
                     const calib::CalibrationStore& store,
                     std::span<const Observation> observations,
                     std::size_t n_prev, const grid::Region* mask,
                     GeoEstimate& out) const override;

  /// Serve per-landmark distance tables from `cache` so each ring
  /// multiply does zero trigonometry (not owned; null disables). The
  /// posterior is bit-identical with or without a cache.
  void set_plan_cache(grid::CapPlanCache* cache) noexcept override {
    plan_cache_ = cache;
  }

  /// Start the posterior (and the memo's product) from the ladder's
  /// seed instead of the whole mask when `ctx` applies to the call; the
  /// credible region is bit-identical.
  void set_refine(const mlat::RefineContext* ctx) noexcept override {
    refine_ = ctx;
  }

 private:
  double credible_mass_;
  grid::CapPlanCache* plan_cache_ = nullptr;
  const mlat::RefineContext* refine_ = nullptr;
};

}  // namespace ageo::algos
