// Rasterization of geometric constraints onto the grid.
//
// These functions turn the geometric primitives the algorithms produce
// (caps, rings, polygons) into Regions. The cap/ring wrappers build a
// transient CapScanPlan (cap_cache.hpp) for the center and run its scan:
// the one pruned annulus scanner, which prunes to the latitude band the
// shape can touch and, within each row, to the longitude window it can
// reach; cells guaranteed inside are set with whole-word fills and only
// the boundary bands are tested cell by cell. Callers that rasterize
// around the same centers repeatedly, into pooled regions or into
// coverage masks, hold a plan (a CapPlanCache, or
// grid::detail::plan_for) and call its methods instead. The pruned scan
// is bit-for-bit identical to the naive per-cell scan the tests keep as
// their oracle (pinned by raster_equivalence_test).
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

}  // namespace ageo::grid
