// Multi-resolution refinement driver (perf: coarse-to-fine localization).
//
// Every localization engine in this library spends its time rasterizing
// constraints over the full analysis grid, yet the surviving region is
// almost always a tiny patch of it. The driver exploits that: it runs
// the whole constraint set on a coarse grid first (e.g. 2.0 deg, 64x
// fewer cells than 0.25 deg), takes the bounding window of the coarse
// survivors, grows it by a safety margin, maps it down one level, and
// repeats until the final resolution, where the real engines run only
// inside the window.
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
// induction over levels, the final mapped window contains every cell the
// flat fine-grid solve would keep, so re-running the fine intersection
// inside the window — the windowed kernel shares its row loop with the
// flat one — reproduces the flat result bit for bit. When a coarse level
// empties, the flat fine result is empty too, and the driver returns it
// without touching the fine grid at all.
//
// The largest-consistent-subset engine is windowed only on its fast
// path: when the windowed all-constraint intersection is nonempty the
// answer is that intersection with every constraint used (identical to
// the flat engine's answer). When it is empty — the constraint set is
// inconsistent — subset search over a window sized for the FULL set
// would be unsound (the best subset's region need not lie inside it), so
// the driver falls back to the flat solver. Honest workloads are
// overwhelmingly consistent, which is where the speed matters.
//
// Spotter posteriors window on each ring's hard support annulus
// [mu - W, mu + W], W = grid::detail::gaussian_support_halfwidth_km: a
// cell the flat posterior leaves nonzero has a < kGaussianCut for every
// ring, i.e. its center strictly inside every support annulus, so the
// coarse intersection of pad-widened support annuli contains all of
// them. The fine pass is the flat fusion (fuse_gaussian_rings_into) on a
// pooled full-grid Field whose masked start is the upsampled survivors:
// every cell off that seed is one the flat chain zeroes, so the live
// lists, mass folds and credible cut are the flat ones bit for bit.
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
  /// Safety margin, in cells of each coarse level, added around the
  /// surviving region's bounding window before mapping it down. The
  /// lemma above holds with margin 0; the default 1 additionally
  /// absorbs the window bookkeeping itself being off by a cell.
  std::size_t margin_cells = 1;

  bool enabled() const noexcept { return !levels.empty(); }

  /// Parse "2.0,0.5" (or "2.0:0.5") into a schedule; "", "off" and
  /// "none" give a disabled schedule. Throws InvalidArgument on
  /// malformed input. Ordering and divisibility are validated later,
  /// against the fine grid, by the RefineContext constructor.
  static RefineSchedule parse(std::string_view spec);

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
  /// Validates the schedule against `fine`: levels strictly descending,
  /// strictly coarser than the fine grid, every adjacent ratio (and the
  /// last-level-to-fine ratio) an exact integer. The schedule must be
  /// enabled. `fine` must outlive the context.
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
  /// prepare_mask saw. Locators use this to fall back to the flat path
  /// when called with a foreign grid or mask.
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

/// Refined intersect_disks: same arguments past the context, same
/// result bits as mlat::intersect_disks on ctx.fine() — including the
/// empty region when the constraints are inconsistent (detected at the
/// coarse level without ever scanning the fine grid).
grid::Region refine_intersect_disks(const RefineContext& ctx,
                                    std::span<const DiskConstraint> disks,
                                    const grid::Region* mask = nullptr,
                                    grid::CapPlanCache* cache = nullptr,
                                    grid::Scratch* scratch = nullptr);

/// Refined intersect_rings; same contract (and min<=max validation) as
/// the flat engine.
grid::Region refine_intersect_rings(const RefineContext& ctx,
                                    std::span<const RingConstraint> rings,
                                    const grid::Region* mask = nullptr,
                                    grid::CapPlanCache* cache = nullptr,
                                    grid::Scratch* scratch = nullptr);

/// Refined largest_consistent_subset_into over disks: identical region,
/// used vector and cardinality to the flat engine, for consistent AND
/// inconsistent inputs (the latter via the documented flat fallback).
std::size_t refine_largest_consistent_subset_into(
    const RefineContext& ctx, std::span<const DiskConstraint> disks,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used);

/// Ring-constraint variant.
std::size_t refine_largest_consistent_subset_into(
    const RefineContext& ctx, std::span<const RingConstraint> rings,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used);

/// Refined Spotter: the credible region of the fused Gaussian-ring
/// posterior at `credible_mass`, bit-identical to building the flat
/// posterior with fuse_gaussian_rings and cutting it with
/// Field::credible_region. The ring multiplies walk only the coarse
/// survivors' children, not the flat masked start.
grid::Region refine_spotter_credible(const RefineContext& ctx,
                                     std::span<const GaussianConstraint> rings,
                                     double credible_mass,
                                     const grid::Region* mask = nullptr,
                                     grid::CapPlanCache* cache = nullptr,
                                     grid::Scratch* scratch = nullptr);

/// The fine-grid window the driver would refine the disk intersection
/// into (nullopt when a coarse level empties). Exposed so tests can pin
/// the containment property — every flat-kept cell lies inside —
/// independently of the solvers.
std::optional<grid::Window> refine_window(const RefineContext& ctx,
                                          std::span<const DiskConstraint> disks,
                                          const grid::Region* mask = nullptr,
                                          grid::CapPlanCache* cache = nullptr,
                                          grid::Scratch* scratch = nullptr);

/// Ring variant of the window probe.
std::optional<grid::Window> refine_window(const RefineContext& ctx,
                                          std::span<const RingConstraint> rings,
                                          const grid::Region* mask = nullptr,
                                          grid::CapPlanCache* cache = nullptr,
                                          grid::Scratch* scratch = nullptr);

}  // namespace ageo::mlat
