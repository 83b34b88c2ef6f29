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
// Every entry point takes an optional grid::Scratch arena. With an arena
// the engines run allocation-free in steady state: intersections AND
// plan row spans directly into the running region (no temporary Region),
// coverage planes and posterior fields come from thread-local pools, and
// only the result that escapes to the caller is heap-allocated. A null
// arena degrades to plain per-call allocations with bit-identical
// results (pinned by mlat_equivalence_test).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/region.hpp"
#include "grid/scratch.hpp"

namespace ageo::mlat {

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
/// region when the constraints are inconsistent. `cache`, when non-null,
/// reuses per-landmark scan plans across calls (the constraint centers of
/// successive proxies repeat) and intersects each annulus in place with
/// the fused kernel; results are identical either way. `scratch` pools
/// the temporaries of the no-cache path.
grid::Region intersect_disks(const grid::Grid& g,
                             std::span<const DiskConstraint> disks,
                             const grid::Region* mask = nullptr,
                             grid::CapPlanCache* cache = nullptr,
                             grid::Scratch* scratch = nullptr);

/// Intersection of all rings, clipped by `mask` when non-null.
grid::Region intersect_rings(const grid::Grid& g,
                             std::span<const RingConstraint> rings,
                             const grid::Region* mask = nullptr,
                             grid::CapPlanCache* cache = nullptr,
                             grid::Scratch* scratch = nullptr);

/// Bayesian fusion of Gaussian rings (Spotter). The returned field is
/// normalised unless the total mass is zero. Validates the whole
/// constraint list once up front, then runs the per-ring multiplies
/// unchecked on the windowed fast path. `cache`, when non-null, serves
/// per-landmark distance tables so the multiplies do zero trig; results
/// are bit-identical either way. `scratch` pools the support-annulus
/// temporaries (the returned Field itself is a fresh allocation — keep a
/// pooled posterior with fuse_gaussian_rings_into instead).
grid::Field fuse_gaussian_rings(const grid::Grid& g,
                                std::span<const GaussianConstraint> rings,
                                const grid::Region* mask = nullptr,
                                grid::CapPlanCache* cache = nullptr,
                                grid::Scratch* scratch = nullptr);

/// Allocation-free variant: fuse into `posterior`, which must be a fresh
/// uniform (all-ones) field on `g` — typically a pooled one from
/// grid::Scratch::field, which also threads the arena through the
/// field's internal temporaries. Same bits as fuse_gaussian_rings.
void fuse_gaussian_rings_into(const grid::Grid& g,
                              std::span<const GaussianConstraint> rings,
                              grid::Field& posterior,
                              const grid::Region* mask = nullptr,
                              grid::CapPlanCache* cache = nullptr);

// ---- incremental (streaming) entry points ----
//
// The always-on audit service (src/serve) re-localizes a proxy after
// every streamed observation. Re-running the full constraint solve per
// observation costs O(k) plan intersects; these two primitives apply
// exactly ONE new constraint to cached solver state instead, with bits
// identical to re-running the batch because both operations commute
// with the cached prefix: a region intersect ANDs per-cell membership
// values computed independently of the region's contents, and a ring
// multiply appends one factor to each cell's product in observation
// order (floating-point multiplication is deterministic per cell for a
// fixed factor order).

/// AND one more conservatively-padded disk into `region` using the
/// landmark's cached scan plan — the same fused
/// `intersect_annulus_into(0, max_km + pad)` call the subset engine's
/// fast path issues per disk (the intersections CBG++'s locate_memo
/// keeps), so `B ∩ disk` here equals rebuilding the intersection from
/// scratch. Returns false when the region emptied (the caller must fall
/// back to a full re-solve: the scalar path would enter the general
/// coverage sweep).
bool intersect_disk_into(const grid::Grid& g, const DiskConstraint& disk,
                         grid::CapPlanCache& cache, grid::Region& region);

/// Multiply one more Gaussian ring into the running UNnormalised
/// posterior product (validating this ring the same way
/// fuse_gaussian_rings_into vets its whole list). The caller keeps the
/// product unnormalised across updates and normalises a copy per
/// estimate, so the cell-wise factor order — and therefore every bit of
/// the posterior — matches a from-scratch fuse of the full ring list.
void multiply_ring_into(const grid::Grid& g, const GaussianConstraint& ring,
                        grid::CapPlanCache* cache, grid::Field& posterior);

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
/// bands, so sparse constraint sets never pay for the full grid.
SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const DiskConstraint> disks,
                                       const grid::Region* mask = nullptr,
                                       grid::CapPlanCache* cache = nullptr,
                                       grid::Scratch* scratch = nullptr);

/// Allocation-free core of largest_consistent_subset: the region is
/// written into `region`, which must be an empty region on `g`
/// (typically a pooled one), `used` is assigned in place, and the
/// maximum cardinality is returned. Same bits as the wrapper.
std::size_t largest_consistent_subset_into(
    const grid::Grid& g, std::span<const DiskConstraint> disks,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used);

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
                                       grid::Scratch* scratch = nullptr);

std::size_t largest_consistent_subset_into(
    const grid::Grid& g, std::span<const RingConstraint> rings,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used);

namespace reference {
/// The original full-grid, single-word LCS solver (at most 64
/// constraints, three dense passes, owned allocations). This defines the
/// semantics the sparse solver above must reproduce exactly — region,
/// used vector and n_used — and mlat_equivalence_test pins the two
/// against each other. Too slow for production use on fine grids.
SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const DiskConstraint> disks,
                                       const grid::Region* mask = nullptr,
                                       grid::CapPlanCache* cache = nullptr);

/// Dense ring oracle, same contract as the disk one (at most 64
/// constraints); pins the sparse ring engine above.
SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const RingConstraint> rings,
                                       const grid::Region* mask = nullptr,
                                       grid::CapPlanCache* cache = nullptr);
}  // namespace reference

}  // namespace ageo::mlat
