// Multilateration engines (paper Fig. 1, §3, §5.1).
//
// Each landmark measurement becomes a geometric constraint: a disk (CBG),
// a ring (Quasi-Octant, Hybrid) or a Gaussian ring of probability
// (Spotter). The engines combine constraints into a prediction region on
// the analysis grid, optionally clipped by a plausibility mask.
//
// The CBG++ engine finds the LARGEST SUBSET of constraints whose
// intersection is nonempty rather than demanding all of them hold — the
// paper's fix for bestline underestimation (§5.1). On a grid this search
// is exact and linear: a subset of disks has a common point iff some cell
// is covered by all of them, so the maximum subset is read off per-cell
// coverage masks (the paper's suffix-tree DFS optimises the same search).
//
// Each solve has one entry, which takes an optional RefineContext
// (mlat/refine.hpp). A flat solve is the zero-level ladder: it starts
// from the mask (or the full grid) over the full window instead of from
// the ladder's seed inside its window. Either way the hard constraints go
// through one intersect kernel, so the result bits never depend on the
// ladder. Spotter runs the same kernel on its rings' hard supports to
// find the region its posterior starts from (spotter_start).
//
// Every region entry point takes an optional grid::Scratch arena. With
// an arena the intersections AND plan row spans directly into the
// running region (no temporary Region), and coverage planes come from
// thread-local pools; what escapes to the caller, and the per-solve
// constraint list, are heap-allocated. multiply_rings_into uses the
// arena its Field carries. A null arena degrades to plain
// per-call allocations with bit-identical results (pinned by
// mlat_equivalence_test).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/region.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"

namespace ageo::mlat {

class RefineContext;

/// Outward padding applied to hard constraints when rasterizing, km:
/// half a cell diagonal, so grid quantisation can only ever grow a
/// prediction region, never exclude the true location.
double conservative_pad_km(const grid::Grid& g) noexcept;

struct DiskConstraint {
  geo::LatLon center;
  double max_km = 0.0;
};

struct RingConstraint {
  geo::LatLon center;
  double min_km = 0.0;
  double max_km = 0.0;
};

struct GaussianConstraint {
  geo::LatLon center;
  double mu_km = 0.0;
  double sigma_km = 1.0;
};

/// Intersection of all disks, clipped by `mask` when non-null. Empty
/// region when the constraints are inconsistent. Each annulus is
/// intersected in place by a scan plan's fused kernel: `cache`, when
/// non-null, reuses per-landmark plans across calls (the constraint
/// centers of successive proxies repeat); without one each annulus gets
/// a transient plan. Results are identical either way. `scratch` pools
/// the solve's temporaries. `refine`, when it applies to (g, mask), runs
/// the solve inside its ladder's window; same bits.
grid::Region intersect_disks(const grid::Grid& g,
                             std::span<const DiskConstraint> disks,
                             const grid::Region* mask = nullptr,
                             grid::CapPlanCache* cache = nullptr,
                             grid::Scratch* scratch = nullptr,
                             const RefineContext* refine = nullptr);

/// Intersection of all rings, clipped by `mask` when non-null. Throws
/// InvalidArgument unless every ring has min_km <= max_km.
grid::Region intersect_rings(const grid::Grid& g,
                             std::span<const RingConstraint> rings,
                             const grid::Region* mask = nullptr,
                             grid::CapPlanCache* cache = nullptr,
                             grid::Scratch* scratch = nullptr,
                             const RefineContext* refine = nullptr);

/// The one check of a Gaussian ring list, shared by the Spotter entry
/// points (spotter_start and multiply_rings_into): each center valid,
/// each mu finite, each sigma finite and positive with a finite, nonzero
/// 1/(2 sigma^2), and `mask`, when non-null, on `g`. Throws
/// InvalidArgument.
void validate_gaussian_rings(const grid::Grid& g,
                             std::span<const GaussianConstraint> rings,
                             const grid::Region* mask);

/// The Spotter posterior before normalisation. Writes the region it
/// starts from into `seed`, an empty region on `g`: `mask` (null: the
/// whole grid) intersected with
/// every ring's hard support annulus [mu - W, mu + W], W =
/// grid::detail::gaussian_support_halfwidth_km(sigma), by the one
/// intersect kernel — from the mask over the full window, or from
/// `refine`'s ladder seed inside its window when it applies to
/// (g, mask). Same bits either way. Every cell off the start is one the
/// mask-started ring chain zeroes, and stays zero under more rings, so a
/// posterior started from it (multiplied now or extended ring by ring
/// later) has the bits of the mask-started fuse of the same rings.
/// `seed` stays all-zero when the supports share no cell. Then rebinds
/// `posterior` (any field) to `seed` and multiplies every ring into it,
/// in list order, as multiply_rings_into does. The ring list is
/// validated once, before anything is written.
void spotter_start(const grid::Grid& g,
                   std::span<const GaussianConstraint> rings,
                   const grid::Region* mask, grid::CapPlanCache* cache,
                   grid::Scratch* scratch, const RefineContext* refine,
                   grid::Region& seed, grid::Field& posterior);

/// Multiply Gaussian rings, in list order, into `posterior` (a field on
/// `g`), leaving it UNnormalised. The list is validated once
/// (validate_gaussian_rings) and the multiplies then run unchecked.
/// `cache`, when non-null, serves per-landmark distance tables so the
/// multiplies do zero trig; results are bit-identical either way.
///
/// It shares the Spotter solve's one ring loop with spotter_start: a full
/// solve multiplies every ring there, and the streaming service
/// (src/serve) multiplies just the appended rings into a cached product
/// here. Both give the same bits, because each cell's
/// product gets the same factors in the same observation order
/// (floating-point multiplication is deterministic per cell for a fixed
/// factor order); the caller normalises a copy per estimate.
void multiply_rings_into(const grid::Grid& g,
                         std::span<const GaussianConstraint> rings,
                         grid::CapPlanCache* cache, grid::Field& posterior);

// ---- incremental (streaming) entry point ----
//
// The always-on audit service (src/serve) re-localizes a proxy after
// every streamed observation. Re-running the full constraint solve per
// observation costs O(k) plan intersects; this primitive applies exactly
// ONE new disk to cached solver state instead, with bits identical to
// re-running the batch because a region intersect ANDs per-cell
// membership values computed independently of the region's contents.

/// AND one more conservatively-padded disk into `region`, whose set bits
/// all lie in `win`'s row band, with the one intersect kernel: the
/// landmark's cached scan plan while the region is large, the exact
/// per-cell test once it is small (no plan lookup at all). Both compute
/// the same per-cell membership, so `B ∩ disk` here equals rebuilding
/// the intersection from scratch — flat or refined, since a refined
/// solve returns the flat region (the intersections CBG++'s locate_memo
/// keeps). Returns
/// false when the region emptied (the caller must fall back to a full
/// re-solve: the subset engine would enter its coverage sweep).
bool intersect_disk_into(const grid::Grid& g, const DiskConstraint& disk,
                         grid::CapPlanCache& cache, grid::Region& region,
                         const grid::Window& win,
                         grid::Scratch* scratch = nullptr);

struct SubsetResult {
  grid::Region region;
  /// Constraints that participate in (at least one) maximum consistent
  /// subset.
  std::vector<bool> used;
  /// Cardinality of the maximum consistent subset; 0 when no cell is
  /// covered at all (empty region).
  std::size_t n_used = 0;

  /// Byzantine margin: how many constraints had to be discarded to make
  /// the rest consistent (n - best). 0 for a fully consistent set; a
  /// large margin means many landmarks disagree with the winning
  /// coalition — the flagging signal of DESIGN.md §11.
  std::size_t margin() const noexcept { return used.size() - n_used; }
};

/// Largest consistent subset of disks: the region is the union, over all
/// maximum-cardinality subsets with nonempty intersection, of that
/// subset's intersection. `mask` clips candidate cells when non-null.
/// Any number of constraints (coverage is tracked in ceil(n/64) bit
/// planes); the passes walk only the union of the constraints' latitude
/// bands, so sparse constraint sets never pay for the full grid. A
/// consistent set is answered by the intersect kernel alone; an
/// inconsistent one by a coverage sweep — over `refine`'s ladder when it
/// applies to (g, mask), over the touched rows otherwise. Same bits
/// either way.
SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const DiskConstraint> disks,
                                       const grid::Region* mask = nullptr,
                                       grid::CapPlanCache* cache = nullptr,
                                       grid::Scratch* scratch = nullptr,
                                       const RefineContext* refine = nullptr);

/// Pooled core of largest_consistent_subset: the region is written into
/// `region`, which must be an empty region on `g` (typically a pooled
/// one), `used` is assigned in place, and the maximum cardinality is
/// returned. Same bits as the wrapper.
std::size_t largest_consistent_subset_into(
    const grid::Grid& g, std::span<const DiskConstraint> disks,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used,
    const RefineContext* refine = nullptr);

/// Ring-constraint variant of the subset engine (the Byzantine-robust
/// mode of the Hybrid locator): same semantics with each constraint a
/// padded annulus [min - pad, max + pad] instead of a disk. A fully
/// consistent ring set yields exactly intersect_rings' region with
/// every constraint used, so honest inputs are unchanged by routing
/// them through the subset engine.
SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const RingConstraint> rings,
                                       const grid::Region* mask = nullptr,
                                       grid::CapPlanCache* cache = nullptr,
                                       grid::Scratch* scratch = nullptr,
                                       const RefineContext* refine = nullptr);

std::size_t largest_consistent_subset_into(
    const grid::Grid& g, std::span<const RingConstraint> rings,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used,
    const RefineContext* refine = nullptr);

}  // namespace ageo::mlat
