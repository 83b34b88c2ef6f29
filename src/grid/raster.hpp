// Rasterization of geometric constraints onto the grid.
//
// These functions turn the geometric primitives the algorithms produce
// (caps, rings, polygons) into Regions. The cap/ring wrappers build a
// transient CapScanPlan (cap_cache.hpp) for the center and run its scan:
// the one pruned annulus scanner, which prunes to the latitude band the
// shape can touch and, within each row, to the longitude window it can
// reach; cells guaranteed inside are set with whole-word fills and only
// the boundary bands are tested cell by cell. Callers that rasterize
// around the same centers repeatedly should hold a CapPlanCache instead.
// The pruned scan is bit-for-bit identical to the naive per-cell scan
// kept under grid::reference below (pinned by raster_equivalence_test).
#pragma once

#include <utility>

#include "geo/geodesy.hpp"
#include "geo/polygon.hpp"
#include "grid/region.hpp"

namespace ageo::grid {

/// Cells whose centers lie within `cap`.
Region rasterize_cap(const Grid& g, const geo::Cap& cap);

/// Cells whose centers lie within `ring`.
Region rasterize_ring(const Grid& g, const geo::Ring& ring);

/// Allocation-free variants: rasterize into `out`, which must be an
/// empty region on `g` (typically a pooled one from grid/scratch.hpp).
/// Same bits as the returning overloads above.
void rasterize_cap_into(const Grid& g, const geo::Cap& cap, Region& out);
void rasterize_ring_into(const Grid& g, const geo::Ring& ring, Region& out);

/// Rows [first, second) of `g` that an annulus of [inner_km, outer_km]
/// around `center` can touch — the same latitude band every annulus scan
/// prunes to. {0, 0} for an empty annulus (outer < 0 or outer < inner).
/// Lets callers that accumulate many constraints (the LCS coverage
/// planes) clear and walk only the union of the touched row windows.
std::pair<std::size_t, std::size_t> annulus_row_band(const Grid& g,
                                                     const geo::LatLon& center,
                                                     double inner_km,
                                                     double outer_km);

/// Cells whose centers lie inside `poly`.
Region rasterize_polygon(const Grid& g, const geo::Polygon& poly);

/// Cells whose centers lie in the latitude band [lat_lo, lat_hi].
Region rasterize_lat_band(const Grid& g, double lat_lo, double lat_hi);

/// Add to `mask` (by bitwise-or) the cell-coverage of a cap; returns the
/// number of newly covered rows scanned. Used by the multilateration
/// engines to accumulate per-cell coverage masks without allocating one
/// Region per landmark. `bit` selects which bit of each cell's mask word
/// to set; `masks` must have g.size() entries.
void accumulate_cap_mask(const Grid& g, const geo::Cap& cap,
                         std::vector<std::uint64_t>& masks, unsigned bit);

/// Same for a ring constraint.
void accumulate_ring_mask(const Grid& g, const geo::Ring& ring,
                          std::vector<std::uint64_t>& masks, unsigned bit);

/// Raw-plane variants for the multi-plane coverage layout of the
/// >64-constraint LCS solver: `masks` points at a plane of at least
/// g.size() words.
void accumulate_cap_mask(const Grid& g, const geo::Cap& cap,
                         std::uint64_t* masks, unsigned bit);
void accumulate_ring_mask(const Grid& g, const geo::Ring& ring,
                          std::uint64_t* masks, unsigned bit);

/// Naive per-cell reference rasterizers: one dot product per cell of the
/// latitude band, no longitude pruning. These define the semantics the
/// plan scanner (behind the wrappers above) must reproduce exactly; tests
/// compare against them, which is why they stay. Too slow for production
/// use.
namespace reference {
Region rasterize_cap(const Grid& g, const geo::Cap& cap);
Region rasterize_ring(const Grid& g, const geo::Ring& ring);
}  // namespace reference

}  // namespace ageo::grid
