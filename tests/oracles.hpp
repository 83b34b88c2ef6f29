// Oracles: the original, naive implementations that the fast paths in
// the library must reproduce bit for bit. The equivalence suites compare
// against them and bench_micro_core times them as baselines; nothing in
// the library calls them. Each is too slow for production use.
#pragma once

#include <span>

#include "geo/geodesy.hpp"
#include "geo/latlon.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/grid.hpp"
#include "grid/region.hpp"
#include "mlat/multilateration.hpp"

namespace ageo::grid::reference {

/// Naive per-cell rasterizers: one dot product per cell of the latitude
/// band, no longitude pruning. These define the semantics the plan
/// scanner (CapScanPlan, behind grid::rasterize_cap/ring) must reproduce
/// exactly.
Region rasterize_cap(const Grid& g, const geo::Cap& cap);
Region rasterize_ring(const Grid& g, const geo::Ring& ring);

/// The original full-grid ring multiply: one atan2 + exp per nonzero
/// cell. This defines the semantics Field::multiply_gaussian_ring must
/// reproduce exactly.
void multiply_gaussian_ring(Field& f, const geo::LatLon& center, double mu_km,
                            double sigma_km);

}  // namespace ageo::grid::reference

namespace ageo::mlat::reference {

/// The original full-grid, single-word LCS solver (at most 64
/// constraints, three dense passes, owned allocations). This defines the
/// semantics mlat::largest_consistent_subset must reproduce exactly —
/// region, used vector and n_used — and mlat_equivalence_test pins the
/// two against each other.
SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const DiskConstraint> disks,
                                       const grid::Region* mask = nullptr,
                                       grid::CapPlanCache* cache = nullptr);

/// Dense ring oracle, same contract as the disk one (at most 64
/// constraints); pins the sparse ring engine.
SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const RingConstraint> rings,
                                       const grid::Region* mask = nullptr,
                                       grid::CapPlanCache* cache = nullptr);

/// The mask-started Spotter posterior: a uniform field on `g`, clipped
/// to `mask` when non-null, times every ring in list order (each on a
/// transient plan), normalised unless its mass is zero. A Spotter solve
/// starts from the smaller spotter_start region and reads cached
/// distance tables, and must reproduce these bits exactly.
grid::Field fuse_gaussian_rings(const grid::Grid& g,
                                std::span<const GaussianConstraint> rings,
                                const grid::Region* mask = nullptr);

}  // namespace ageo::mlat::reference
