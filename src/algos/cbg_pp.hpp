// CBG++ (paper §5.1): the paper's contribution.
//
// Two changes over CBG, both aimed at eliminating bestline
// underestimation (the only way CBG can miss the true location):
//
//  1. The "slowline" physical-plausibility constraint: bestline travel
//     speed estimates may be no slower than 84.5 km/ms (a one-way time
//     above 237 ms could have crossed a geostationary satellite hop and
//     is uninformative).
//  2. Consistency-filtered multilateration: compute a disk per landmark
//     from both the bestline and the (physics-only) baseline. Take the
//     largest subset of baseline disks with nonempty intersection (the
//     "baseline region"); discard bestline disks that do not overlap it;
//     then take the largest subset of the survivors with nonempty
//     intersection (the "bestline region" — the prediction).
#pragma once

#include "algos/geolocator.hpp"
#include "grid/cap_cache.hpp"

namespace ageo::algos {

struct CbgPlusPlusOptions {
  /// Disable for ablation: use plain (baseline-only) bestlines.
  bool use_slowline = true;
  /// Disable for ablation: intersect all disks like plain CBG instead of
  /// the largest-consistent-subset filter.
  bool use_subset_filter = true;
};

class CbgPlusPlusGeolocator final : public Geolocator {
 public:
  explicit CbgPlusPlusGeolocator(CbgPlusPlusOptions options = {});

  std::string_view name() const noexcept override { return "CBG++"; }

  /// Intersect the appended observations' disks into the cached state.
  /// Bit-identical to locate() on the full list because regions are
  /// bitsets of order-independent per-cell membership predicates, and
  /// the baseline region only ever shrinks — so previously-discarded
  /// bestline disks stay discarded (their distance to the region can
  /// only grow) and only retained + new disks need their stage-2
  /// verdicts rechecked, and only when the baseline region actually
  /// changed. Falls back (returns false, memo spent) when the baseline
  /// or bestline region empties or a previously-retained disk drops out
  /// of the coalition. Throws InvalidArgument when `g` or `mask` is not
  /// the capture's.
  bool locate_update(LocatorMemo& memo, const grid::Grid& g,
                     const calib::CalibrationStore& store,
                     std::span<const Observation> observations,
                     std::size_t n_prev, const grid::Region* mask,
                     GeoEstimate& out) const override;

  /// Reuse per-landmark rasterization plans from `cache` (not owned; may
  /// be null to disable). Results are identical with or without a cache;
  /// CapPlanCache is internally synchronized, so a shared locator stays
  /// usable from several threads.
  void set_plan_cache(grid::CapPlanCache* cache) noexcept override {
    plan_cache_ = cache;
  }

  /// Hand the ladder to both subset solves (stage 1 over the baseline
  /// disks, stage 3 over the retained bestline disks); each is seeded
  /// from it when it applies to the call. Bit-identical results.
  void set_refine(const mlat::RefineContext* ctx) noexcept override {
    refine_ = ctx;
  }

 private:
  /// The three-stage solve. With a non-null `memo` it also hands back
  /// resumable state for the streaming service: the baseline/bestline
  /// regions and per-disk retention verdicts, when both subset solves
  /// took the all-used fast path (every baseline disk and every retained
  /// bestline disk in the coalition), so locate_update can absorb one
  /// more observation with two fused annulus intersects instead of 2k.
  /// A refined solve returns the flat regions bit for bit, so it
  /// captures the same memo. `*memo` stays null for ablation configs (no
  /// subset filter), cache-less locators, or campaigns whose constraints
  /// were already mutually inconsistent.
  GeoEstimate solve(const grid::Grid& g, const calib::CalibrationStore& store,
                    std::span<const Observation> observations,
                    const grid::Region* mask,
                    std::unique_ptr<LocatorMemo>* memo) const override;

  CbgPlusPlusOptions options_;
  grid::CapPlanCache* plan_cache_ = nullptr;
  const mlat::RefineContext* refine_ = nullptr;
};

}  // namespace ageo::algos
