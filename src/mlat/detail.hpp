// Internal to mlat/: the one intersect kernel every solve runs
// (detail.cpp) and the refine ladder hooks the solves call when a
// RefineContext applies (refine.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "geo/latlon.hpp"
#include "grid/annulus_scan.hpp"
#include "grid/cap_cache.hpp"
#include "grid/region.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"
#include "mlat/multilateration.hpp"

namespace ageo::mlat::detail {

/// One constraint as an annulus [inner_km, outer_km] around center. For
/// the hard engines the bounds already carry the fine grid's
/// conservative pad (inner 0 for disks): the fine keep criterion is
/// membership of the padded annulus, and each coarse level widens it by
/// its own pad, so the chained slack is pad_fine + pad_level — exactly
/// what the coarsening lemma (refine.hpp) needs. For Spotter they are
/// the raw hard-support bounds of each Gaussian ring (the fine criterion
/// is on cell centers directly, no fine pad).
struct Annulus {
  geo::LatLon center;
  double inner_km = 0.0;
  double outer_km = 0.0;
};

/// `a` grown outward by `pad_km` on both radii (a coarse level's own
/// pad, chained onto the fine one). A zero pad leaves `a` unchanged.
inline Annulus widened(const Annulus& a, double pad_km) {
  return {a.center, std::max(0.0, a.inner_km - pad_km), a.outer_km + pad_km};
}

/// Disks as annuli padded by the grid's conservative pad: quantisation
/// may only grow a disk.
std::vector<Annulus> disk_annuli(const grid::Grid& g,
                                 std::span<const DiskConstraint> disks);

/// Rings as padded annuli, after checking the whole list (throws
/// InvalidArgument with `msg` unless every min_km <= max_km): a ring
/// list is either valid or rejected, whatever a solve would reach.
std::vector<Annulus> ring_annuli(const grid::Grid& g,
                                 std::span<const RingConstraint> rings,
                                 const char* msg);

/// Below this many survivors, per-cell exact tests beat the row kernels:
/// a kernel pass costs O(window rows) of zone binary searches plus a
/// band-wide survivor count per constraint, the sparse tail one dot
/// product per surviving cell.
inline constexpr std::size_t kSparseTailCells = 4096;

/// The per-cell keep criterion every annulus engine reduces to: row
/// inside the scan's latitude band, clamped center dot within
/// [cos_outer, cos_inner]. The naive scan applies it verbatim, and the
/// plan kernels only shortcut cells whose outcome the kDotMargin safety
/// zones already decide (annulus_scan.hpp), so filtering a cell list
/// with it is bit-identical to running any of the kernels.
inline bool annulus_keeps(const grid::Grid& g,
                          const grid::detail::AnnulusScan& s,
                          std::size_t idx) {
  if (s.empty) return false;
  // Row in [r0, r1), compared on the cell index: no division per cell.
  if (idx < s.r0 * g.cols() || idx >= s.r1 * g.cols()) return false;
  const double d = std::clamp(s.v.dot(g.center_vec(idx)), -1.0, 1.0);
  return d >= s.cos_outer && d <= s.cos_inner;
}

/// The one intersect kernel: AND every annulus, widened by `pad_km`,
/// into `region`, whose set bits all lie inside `win`'s row band.
/// Tightest annuli first, leaving out any that covers the whole sphere
/// (it keeps every cell); row kernels while the region is large, then
/// — once the survivors drop under kSparseTailCells — the exact per-cell
/// test on an explicit cell list. The row kernel is the plan's fused
/// intersect, served by `cache` or, without one, by a transient plan
/// per annulus. Returns false as soon as the intersection empties
/// (leaving `region` all-zero).
bool intersect_window_constraints(const grid::Grid& g,
                                  const grid::Window& win,
                                  std::span<const Annulus> annuli,
                                  double pad_km, grid::CapPlanCache* cache,
                                  grid::Scratch* scratch,
                                  grid::Region& region);

/// The ladder start of a refined solve: run `ctx`'s coarse ladder over
/// `annuli` and write its seed — the last level's survivors upsampled to
/// the fine grid, clipped by `mask` — into `out`, an empty region on
/// ctx.fine(). Returns the fine window holding the seed, or nullopt
/// (with `out` still empty) when a coarse level empties: then no fine
/// cell satisfies every annulus.
std::optional<grid::Window> ladder_seed_into(const RefineContext& ctx,
                                             std::span<const Annulus> annuli,
                                             const grid::Region* mask,
                                             grid::CapPlanCache* cache,
                                             grid::Scratch* scratch,
                                             grid::Region& out);

/// Exact branch-and-bound coverage sweep over `ctx`'s ladder for an
/// inconsistent annulus set: the flat coverage sweep's region, used
/// vector and cardinality, bit for bit. `region` must be all-zero.
std::size_t refine_lcs_sweep(const RefineContext& ctx,
                             std::span<const Annulus> annuli,
                             const grid::Region* mask,
                             grid::CapPlanCache* cache,
                             grid::Scratch* scratch, grid::Region& region,
                             std::vector<bool>& used);

}  // namespace ageo::mlat::detail
