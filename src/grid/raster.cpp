#include "grid/raster.hpp"

#include "common/error.hpp"
#include "grid/annulus_scan.hpp"
#include "grid/cap_cache.hpp"

namespace ageo::grid {

Region rasterize_cap(const Grid& g, const geo::Cap& cap) {
  ageo::detail::require(geo::is_valid(cap.center), "rasterize_cap: invalid center");
  Region out(g);
  detail::plan_for(nullptr, g, cap.center)
      ->rasterize_annulus(0.0, cap.radius_km, out);
  return out;
}

Region rasterize_ring(const Grid& g, const geo::Ring& ring) {
  ageo::detail::require(geo::is_valid(ring.center),
                  "rasterize_ring: invalid center");
  Region out(g);
  detail::plan_for(nullptr, g, ring.center)
      ->rasterize_annulus(ring.inner_km, ring.outer_km, out);
  return out;
}

std::pair<std::size_t, std::size_t> annulus_row_band(const Grid& g,
                                                     const geo::LatLon& center,
                                                     double inner_km,
                                                     double outer_km) {
  const detail::AnnulusScan s(g, center, inner_km, outer_km);
  if (s.empty) return {0, 0};
  return {s.r0, s.r1};
}

Region rasterize_polygon(const Grid& g, const geo::Polygon& poly) {
  Region out(g);
  if (poly.empty()) return out;
  auto [r0, r1] = g.rows_in_lat_band(poly.min_lat() - g.cell_deg(),
                                     poly.max_lat() + g.cell_deg());
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t base = g.index(r, 0);
    for (std::size_t c = 0; c < g.cols(); ++c) {
      if (poly.contains(g.center(base + c))) out.set(base + c);
    }
  }
  return out;
}

Region rasterize_lat_band(const Grid& g, double lat_lo, double lat_hi) {
  Region out(g);
  auto [r0, r1] = g.rows_in_lat_band(lat_lo, lat_hi);
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t base = g.index(r, 0);
    for (std::size_t c = 0; c < g.cols(); ++c) {
      geo::LatLon p = g.center(base + c);
      if (p.lat_deg >= lat_lo && p.lat_deg <= lat_hi) out.set(base + c);
    }
  }
  return out;
}

}  // namespace ageo::grid
