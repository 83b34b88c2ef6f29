#include "grid/raster.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "geo/vec3.hpp"
#include "grid/annulus_scan.hpp"
#include "grid/cap_cache.hpp"

namespace ageo::grid {

namespace {

using detail::AnnulusScan;

/// Visit every cell whose center is within [inner_km, outer_km] of
/// `center`, one dot product per cell of the latitude band. This is the
/// specification the pruned plan scan (cap_cache.cpp) is tested against
/// bit for bit.
template <typename F>
void scan_annulus_naive(const Grid& g, const geo::LatLon& center,
                        double inner_km, double outer_km, F&& f) {
  const AnnulusScan s(g, center, inner_km, outer_km);
  if (s.empty) return;
  for (std::size_t r = s.r0; r < s.r1; ++r) {
    const std::size_t base = g.index(r, 0);
    for (std::size_t c = 0; c < g.cols(); ++c) {
      // The clamp keeps cells coincident with the center: their dot can
      // round to just above 1, which would fail `d <= cos_inner` when
      // inner_km is 0 and cos_inner is exactly 1.
      double d = std::clamp(s.v.dot(g.center_vec(base + c)), -1.0, 1.0);
      if (d >= s.cos_outer && d <= s.cos_inner) f(base + c);
    }
  }
}

}  // namespace

Region rasterize_cap(const Grid& g, const geo::Cap& cap) {
  Region out(g);
  rasterize_cap_into(g, cap, out);
  return out;
}

Region rasterize_ring(const Grid& g, const geo::Ring& ring) {
  Region out(g);
  rasterize_ring_into(g, ring, out);
  return out;
}

void rasterize_cap_into(const Grid& g, const geo::Cap& cap, Region& out) {
  ageo::detail::require(geo::is_valid(cap.center), "rasterize_cap: invalid center");
  ageo::detail::require(out.grid() == &g,
                        "rasterize_cap_into: region on a different grid");
  detail::plan_for(nullptr, g, cap.center)
      ->rasterize_annulus(0.0, cap.radius_km, out);
}

void rasterize_ring_into(const Grid& g, const geo::Ring& ring, Region& out) {
  ageo::detail::require(geo::is_valid(ring.center),
                  "rasterize_ring: invalid center");
  ageo::detail::require(out.grid() == &g,
                        "rasterize_ring_into: region on a different grid");
  detail::plan_for(nullptr, g, ring.center)
      ->rasterize_annulus(ring.inner_km, ring.outer_km, out);
}

std::pair<std::size_t, std::size_t> annulus_row_band(const Grid& g,
                                                     const geo::LatLon& center,
                                                     double inner_km,
                                                     double outer_km) {
  const AnnulusScan s(g, center, inner_km, outer_km);
  if (s.empty) return {0, 0};
  return {s.r0, s.r1};
}

namespace reference {

Region rasterize_cap(const Grid& g, const geo::Cap& cap) {
  ageo::detail::require(geo::is_valid(cap.center), "rasterize_cap: invalid center");
  Region out(g);
  scan_annulus_naive(g, cap.center, 0.0, cap.radius_km,
                     [&](std::size_t idx) { out.set(idx); });
  return out;
}

Region rasterize_ring(const Grid& g, const geo::Ring& ring) {
  ageo::detail::require(geo::is_valid(ring.center),
                  "rasterize_ring: invalid center");
  Region out(g);
  scan_annulus_naive(g, ring.center, ring.inner_km, ring.outer_km,
                     [&](std::size_t idx) { out.set(idx); });
  return out;
}

}  // namespace reference

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

void accumulate_cap_mask(const Grid& g, const geo::Cap& cap,
                         std::vector<std::uint64_t>& masks, unsigned bit) {
  ageo::detail::require(masks.size() == g.size(),
                  "accumulate_cap_mask: mask size mismatch");
  accumulate_cap_mask(g, cap, masks.data(), bit);
}

void accumulate_ring_mask(const Grid& g, const geo::Ring& ring,
                          std::vector<std::uint64_t>& masks, unsigned bit) {
  ageo::detail::require(masks.size() == g.size(),
                  "accumulate_ring_mask: mask size mismatch");
  accumulate_ring_mask(g, ring, masks.data(), bit);
}

void accumulate_cap_mask(const Grid& g, const geo::Cap& cap,
                         std::uint64_t* masks, unsigned bit) {
  ageo::detail::require(bit < 64, "accumulate_cap_mask: bit must be < 64");
  detail::plan_for(nullptr, g, cap.center)
      ->accumulate_annulus(0.0, cap.radius_km, masks, bit);
}

void accumulate_ring_mask(const Grid& g, const geo::Ring& ring,
                          std::uint64_t* masks, unsigned bit) {
  ageo::detail::require(bit < 64, "accumulate_ring_mask: bit must be < 64");
  detail::plan_for(nullptr, g, ring.center)
      ->accumulate_annulus(ring.inner_km, ring.outer_km, masks, bit);
}

}  // namespace ageo::grid
