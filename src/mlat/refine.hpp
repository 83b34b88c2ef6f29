// Multi-resolution refinement ladder (perf: coarse-to-fine localization).
//
// Every localization engine in this library spends its time rasterizing
// constraints over the full analysis grid, yet the surviving region is
// almost always a tiny patch of it. The ladder exploits that: it runs
// the whole constraint set on a coarse grid first (e.g. 2.0 deg, 64x
// fewer cells than 0.25 deg), takes the bounding window of the coarse
// survivors, grows it by one coarse cell, maps it down one level, and
// repeats until the final resolution. A solve handed a RefineContext
// that applies to its grid and mask (the mlat entries take one as an
// optional argument) then starts from the ladder's seed — the last
// level's survivors upsampled, clipped by the mask — inside that window
// instead of from the whole mask. Without one it is the zero-level
// ladder: the mask and the full window. Both run the same intersect
// kernel from there.
//
// Soundness rests on one conservative-coarsening lemma. Let a fine cell
// be KEPT when its center satisfies a (padded) annulus constraint
// [inner, outer] around landmark L. Its coarse-level parent's center c'
// lies within pad_coarse = conservative_pad_km(coarse) of the fine
// center c (c is a point inside the coarse cell, and pad_coarse bounds
// the center-to-point distance of a coarse cell), so
//   dist(c', L) in [inner - pad_coarse, outer + pad_coarse].
// Hence intersecting each coarse level with the annuli widened by that
// level's own pad keeps the parent of every flat-kept fine cell. By
// induction over levels, the seed contains every cell the flat fine-grid
// solve would keep, and the kernel's keep criterion is per cell and
// independent of the start and window — so running it from the seed
// reproduces the flat result bit for bit. When a coarse level empties,
// the flat fine result is empty too, and the solve returns it without
// touching the fine grid at all.
//
// The largest-consistent-subset engine uses the seed only while the
// whole constraint set is consistent: then the answer is the
// intersection with every constraint used (identical to the flat
// engine's answer). When it is inconsistent, subset search inside a
// window sized for the FULL set would be unsound (the best subset's
// region need not lie inside it), so the engine runs a branch-and-bound
// coverage sweep over the ladder's levels instead, with the same bits as
// the flat sweep.
//
// Spotter posteriors start from the mask intersected with each ring's
// hard support annulus [mu - W, mu + W], W =
// grid::detail::gaussian_support_halfwidth_km (mlat::spotter_start): a
// cell the mask-started posterior leaves nonzero has a < kGaussianCut
// for every ring, i.e. its center strictly inside every support
// annulus. Flat and refined solves build that start with the same
// intersect kernel, the refined one from the ladder's seed (the coarse
// intersection of pad-widened support annuli contains all such cells),
// so the start is the same region either way. The posterior is then the
// fusion on a pooled full-grid Field whose start is that region: every
// cell off it is one the mask-started chain zeroes, so the live lists,
// mass folds and credible cut are that chain's bit for bit — and stay
// so when a streaming memo multiplies in more rings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "grid/region.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"
#include "mlat/multilateration.hpp"

namespace ageo::mlat {

/// The resolution ladder: coarse cell sizes in degrees, coarsest first,
/// each an exact integer multiple of the next (and of the fine grid's
/// cell size — validated when a RefineContext is built). An empty level
/// list means refinement is disabled.
struct RefineSchedule {
  std::vector<double> levels;

  bool enabled() const noexcept { return !levels.empty(); }

  /// Parse "2.0,0.5" (or "2.0:0.5") into a schedule; "", "off" and
  /// "none" give a disabled schedule. Throws InvalidArgument on
  /// malformed input. Ordering and divisibility are checked against the
  /// fine grid by validate().
  static RefineSchedule parse(std::string_view spec);

  /// The schedule rule against a fine cell size, arithmetic only (no
  /// grid is built): every level a valid Grid cell size, strictly
  /// coarser than `fine_cell_deg`, levels strictly descending, every
  /// adjacent ratio (and the last-level-to-fine ratio) an exact integer.
  /// A disabled schedule passes. Throws InvalidArgument naming `refine`.
  void validate(double fine_cell_deg) const;

  /// The canonical ladder for a given fine resolution: every level of
  /// {2.0, 0.5} strictly coarser than `fine_cell_deg` with an exact
  /// integer ratio chain down to it. May be disabled (empty) when the
  /// fine grid is already coarse.
  static RefineSchedule recommended(double fine_cell_deg);

  /// "2,0.5" — parseable round-trip form.
  std::string to_string() const;
};

/// Immutable per-audit refinement state: the coarse grids of a schedule
/// (owned, so scan-plan caches can key on their stable addresses) and,
/// once prepare_mask has run, the OR-downsampled coarse images of the
/// audit's plausibility mask. Built once, then shared read-only by any
/// number of worker threads.
class RefineContext {
 public:
  /// Validates the schedule against `fine` (RefineSchedule::validate);
  /// the schedule must be enabled. `fine` must outlive the context.
  RefineContext(const grid::Grid& fine, RefineSchedule schedule);

  RefineContext(const RefineContext&) = delete;
  RefineContext& operator=(const RefineContext&) = delete;
  RefineContext(RefineContext&&) = default;
  RefineContext& operator=(RefineContext&&) = default;

  const RefineSchedule& schedule() const noexcept { return sched_; }
  const grid::Grid& fine() const noexcept { return *fine_; }
  std::size_t levels() const noexcept { return grids_.size(); }
  const grid::Grid& level(std::size_t i) const { return *grids_[i]; }

  /// Precompute each level's coarse image of `fine_mask`: a coarse cell
  /// is set iff any fine cell under it is set, so masked-out fine cells
  /// stay masked out at every level and kept ones stay kept (the mask
  /// analogue of the coarsening lemma). Call once per audit; the
  /// drivers below require the same Region object (by address) they
  /// were prepared with, or a null mask.
  void prepare_mask(const grid::Region& fine_mask);

  /// The level-i mask for a solve clipped by `fine_mask`: null for a
  /// null mask, the prepared coarse image otherwise. Throws if
  /// `fine_mask` is not the region prepare_mask saw.
  const grid::Region* level_mask(std::size_t i,
                                 const grid::Region* fine_mask) const;

  /// True when this context can serve a solve on `g` clipped by `mask`:
  /// the grid it was built for, and either no mask or the exact region
  /// prepare_mask saw.
  bool applies_to(const grid::Grid& g, const grid::Region* mask) const noexcept {
    return &g == fine_ && (mask == nullptr || mask == prepared_for_);
  }

 private:
  const grid::Grid* fine_;
  RefineSchedule sched_;
  std::vector<std::unique_ptr<grid::Grid>> grids_;
  std::vector<grid::Region> masks_;
  const grid::Region* prepared_for_ = nullptr;
};

/// Per-level survivor counts of a refined solve, for the verdict
/// journal (obs/journal.hpp). Arm a pointer with set_refine_trace on
/// the solving thread before the solve; every coarse-ladder level pass
/// appends one (cell_deg, survivors) entry, so a locator that runs
/// several refined solves (CBG++'s stage 1 and stage 3) records each
/// solve's ladder in turn. Disarm with nullptr. The hook is
/// thread-local and costs one TLS load per level when disarmed; it
/// never affects the solve itself.
struct RefineTrace {
  struct Level {
    double cell_deg = 0.0;        ///< coarse cell size of the level
    std::uint64_t survivors = 0;  ///< surviving coarse cells
  };
  std::vector<Level> levels;
};
void set_refine_trace(RefineTrace* trace) noexcept;

/// The ladder a solve on `g` clipped by `mask` runs under `ctx`: `ctx`
/// itself when it applies, null — the zero-level ladder, a flat solve —
/// when it does not or is null. Every mlat entry resolves its optional
/// context through this one test.
const RefineContext* ladder_for(const RefineContext* ctx, const grid::Grid& g,
                                const grid::Region* mask) noexcept;

}  // namespace ageo::mlat
