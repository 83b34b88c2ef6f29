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

  /// Multiply the appended observations' rings into the cached product
  /// (in observation order), then normalise a copy and cut the credible
  /// region. Per-cell factor order matches a full solve of the whole
  /// ring list, so the posterior — and the region cut from it — is
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
  /// The one Spotter solve: the posterior starts from
  /// mlat::spotter_start's region (the mask, or the ladder's seed,
  /// clipped to every ring's hard support) and takes every ring's
  /// multiply. Without a memo the posterior is a pooled field, normalised
  /// in place. With one it is the memo's UNnormalised product, so an
  /// appended observation multiplies exactly one more ring into it, and
  /// each estimate normalises a copy. A cell off the start is zero in
  /// the mask-started product and stays zero under more rings, so the
  /// memo is exact, refined or flat.
  GeoEstimate solve(const grid::Grid& g, const calib::CalibrationStore& store,
                    std::span<const Observation> observations,
                    const grid::Region* mask,
                    std::unique_ptr<LocatorMemo>* memo) const override;

  double credible_mass_;
  grid::CapPlanCache* plan_cache_ = nullptr;
  const mlat::RefineContext* refine_ = nullptr;
};

}  // namespace ageo::algos
