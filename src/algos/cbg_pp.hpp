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

  GeoEstimate locate(const grid::Grid& g,
                     const calib::CalibrationStore& store,
                     std::span<const Observation> observations,
                     const grid::Region* mask = nullptr) const override;

  /// locate() plus resumable state for the streaming service: the same
  /// three-stage solve, which also hands back the baseline/bestline
  /// regions and per-disk retention verdicts when both subset solves
  /// took the all-used fast path (every baseline disk and every retained
  /// bestline disk in the coalition), so locate_update can absorb one
  /// more observation with two fused annulus intersects instead of 2k.
  /// Returns null — with `out` still correct — for ablation configs (no
  /// subset filter), cache-less or refined locators, or campaigns whose
  /// constraints were already mutually inconsistent.
  std::unique_ptr<LocatorMemo> locate_memo(
      const grid::Grid& g, const calib::CalibrationStore& store,
      std::span<const Observation> observations, const grid::Region* mask,
      GeoEstimate& out) const override;

  /// Intersect the appended observations' disks into the cached state.
  /// Bit-identical to locate() on the full list because regions are
  /// bitsets of order-independent per-cell membership predicates, and
  /// the baseline region only ever shrinks — so previously-discarded
  /// bestline disks stay discarded (their distance to the region can
  /// only grow) and only retained + new disks need their stage-2
  /// verdicts rechecked, and only when the baseline region actually
  /// changed. Falls back (returns false, memo spent) when the baseline
  /// or bestline region empties or a previously-retained disk drops out
  /// of the coalition.
  bool locate_update(LocatorMemo& memo, const grid::Grid& g,
                     const calib::CalibrationStore& store,
                     std::span<const Observation> observations,
                     std::size_t n_prev, const grid::Region* mask,
                     GeoEstimate& out) const override;

  /// Detailed result for diagnostics and tests.
  struct Detail {
    GeoEstimate estimate;
    std::size_t baseline_subset_size = 0;
    std::size_t bestline_subset_size = 0;
    std::size_t disks_discarded_by_baseline = 0;
  };
  Detail locate_detailed(const grid::Grid& g,
                         const calib::CalibrationStore& store,
                         std::span<const Observation> observations,
                         const grid::Region* mask = nullptr) const;

  /// Reuse per-landmark rasterization plans from `cache` (not owned; may
  /// be null to disable). Results are identical with or without a cache;
  /// CapPlanCache is internally synchronized, so a shared locator stays
  /// usable from several threads.
  void set_plan_cache(grid::CapPlanCache* cache) noexcept override {
    plan_cache_ = cache;
  }

  /// Route both subset solves (stage 1 over the baseline disks, stage 3
  /// over the retained bestline disks) through the multi-resolution
  /// driver, one refined solve each; bit-identical results, flat
  /// fallback when the context does not apply to a call.
  void set_refine(const mlat::RefineContext* ctx) noexcept override {
    refine_ = ctx;
  }

 private:
  /// The one three-stage body behind locate, locate_detailed and
  /// locate_memo. With a non-null `memo` it also captures resumable
  /// state when the solve is memoisable (plan cache, subset filter, flat
  /// solve) and both subset solves took the all-used fast path; `*memo`
  /// stays null otherwise.
  Detail solve(const grid::Grid& g, const calib::CalibrationStore& store,
               std::span<const Observation> observations,
               const grid::Region* mask,
               std::unique_ptr<LocatorMemo>* memo) const;

  CbgPlusPlusOptions options_;
  grid::CapPlanCache* plan_cache_ = nullptr;
  const mlat::RefineContext* refine_ = nullptr;
};

}  // namespace ageo::algos
