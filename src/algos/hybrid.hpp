// Quasi-Octant/Spotter hybrid (paper §3.4).
//
// Separates the effect of Spotter's probabilistic multilateration from
// its delay model: uses Spotter's mu/sigma curves but Quasi-Octant's
// ring intersection, with ring radii mu - 5 sigma and mu + 5 sigma.
#pragma once

#include "algos/geolocator.hpp"

namespace ageo::algos {

class HybridGeolocator final : public Geolocator {
 public:
  /// `robust_subset` routes the ring intersection through the
  /// largest-consistent-subset engine (Byzantine-robust mode, DESIGN.md
  /// §11): a fully consistent ring set — every honest measurement —
  /// yields bit-identical regions either way, but when landmarks lie the
  /// solver keeps the largest mutually consistent coalition instead of
  /// collapsing to an empty region, and the estimate reports which
  /// constraints were excluded.
  explicit HybridGeolocator(double n_sigma = 5.0, bool robust_subset = true);

  std::string_view name() const noexcept override { return "Hybrid"; }

  /// Reuse per-landmark rasterization plans from `cache` for the ring
  /// intersection (not owned; null disables). Results are identical.
  void set_plan_cache(grid::CapPlanCache* cache) noexcept override {
    plan_cache_ = cache;
  }

  /// Route the ring solve (plain or robust) through the
  /// multi-resolution driver; bit-identical results either way.
  void set_refine(const mlat::RefineContext* ctx) noexcept override {
    refine_ = ctx;
  }

 private:
  GeoEstimate solve(const grid::Grid& g, const calib::CalibrationStore& store,
                    std::span<const Observation> observations,
                    const grid::Region* mask,
                    std::unique_ptr<LocatorMemo>* memo) const override;

  double n_sigma_;
  bool robust_subset_;
  grid::CapPlanCache* plan_cache_ = nullptr;
  const mlat::RefineContext* refine_ = nullptr;
};

}  // namespace ageo::algos
