#include "grid/raster.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <tuple>

#include "common/error.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "grid/annulus_scan.hpp"

namespace ageo::grid {

namespace {

using detail::AnnulusScan;

/// Visit every cell whose center is within [inner_km, outer_km] of
/// `center`, one dot product per cell of the latitude band. This is the
/// specification the pruned scan below is tested against bit for bit.
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

/// Pruned scan: per row, the annulus intersects a longitude window that is
/// computed analytically from d(c) = P + Q*cos(dlon_c) with
/// P = sin(lat0)sin(lat_c) and Q = cos(lat0)cos(lat_c) >= 0. Guaranteed
/// cells are emitted as spans via `fs(begin, end)` (word fills downstream);
/// boundary-band cells are emitted as contiguous half-open index runs via
/// `fr(begin, end, s)` — each run cell still needs the exact per-cell test
/// (annulus_fold evaluates it, four lanes at a time on AVX2). The cells visited
/// are the same as the per-cell scan_annulus below, which is bit-for-bit
/// identical to scan_annulus_naive; see annulus_scan.hpp for the error
/// budget.
template <typename RunF, typename SpanF>
void scan_annulus_runs(const Grid& g, const geo::LatLon& center,
                       double inner_km, double outer_km, RunF&& fr,
                       SpanF&& fs) {
  const AnnulusScan s(g, center, inner_km, outer_km);
  if (s.empty) return;
  const long ncols = static_cast<long>(g.cols());
  const double cell = g.cell_deg();
  const double inv_cell = 1.0 / cell;
  const double lat0 = geo::deg_to_rad(center.lat_deg);
  const double sin0 = std::sin(lat0), cos0 = std::cos(lat0);
  // Real-valued column coordinate of the center longitude.
  const double t0 = (geo::wrap_longitude(center.lon_deg) + 180.0) * inv_cell - 0.5;
  const long c_round = static_cast<long>(std::llround(t0));
  const double frac = t0 - static_cast<double>(c_round);
  // inner_km == 0 makes cos_inner exactly 1, which every clamped dot
  // satisfies: the inner constraint is vacuous and rows get no hole.
  const bool inner_vacuous = s.inner_clamped == 0.0;

  // Angular half-width, in columns, of cos(dlon) >= u.
  const auto cols_of = [&](double u) {
    return geo::rad_to_deg(std::acos(std::clamp(u, -1.0, 1.0))) * inv_cell;
  };

  for (std::size_t r = s.r0; r < s.r1; ++r) {
    const std::size_t base = g.index(r, 0);
    const double latc = geo::deg_to_rad(g.row_lat_south(r) + cell / 2.0);
    const double P = sin0 * std::sin(latc);
    const double Q = cos0 * std::cos(latc);
    if (Q < detail::kMinQ) {  // ill-conditioned window: test the whole row
      fr(base, base + g.cols(), s);
      continue;
    }
    // Pass requires cos(dlon) in [u_out, u_in]; widen by the margin for
    // the candidate band, narrow for the guaranteed band.
    const double u_out_wide = (s.cos_outer - detail::kDotMargin - P) / Q;
    if (u_out_wide > 1.0) continue;  // row beyond the outer radius
    const double u_in_wide = (s.cos_inner + detail::kDotMargin - P) / Q;
    if (!inner_vacuous && u_in_wide < -1.0) continue;  // row inside the hole
    const double u_out_safe = (s.cos_outer + detail::kDotMargin - P) / Q;
    const double u_in_safe = (s.cos_inner - detail::kDotMargin - P) / Q;

    detail::RadialBounds b;
    b.cand = cols_of(u_out_wide) + 1.0;
    b.fill = u_out_safe > 1.0 ? -1.0 : cols_of(u_out_safe) - 1.0;
    if (!inner_vacuous && u_in_safe < 1.0) {
      b.hole = cols_of(u_in_safe) + 1.0;
      b.core = u_in_wide >= 1.0 ? -1.0 : cols_of(u_in_wide) - 1.0;
    }
    detail::emit_zone_runs(
        detail::zones_from_radii(frac, b, ncols),
        [&](long o_lo, long o_hi) {
          detail::for_col_spans(c_round, o_lo, o_hi, ncols,
                                [&](long b0, long b1) {
                                  fr(base + static_cast<std::size_t>(b0),
                                     base + static_cast<std::size_t>(b1), s);
                                });
        },
        [&](long o_lo, long o_hi) {
          detail::for_col_spans(c_round, o_lo, o_hi, ncols,
                                [&](long b0, long b1) {
                                  fs(base + static_cast<std::size_t>(b0),
                                     base + static_cast<std::size_t>(b1));
                                });
        });
  }
}

/// Per-cell flavor of the pruned scan, expressed over the run scan so the
/// two cannot drift: each boundary-run cell gets the exact clamped-dot
/// test and `f(idx)` on pass.
template <typename CellF, typename SpanF>
void scan_annulus(const Grid& g, const geo::LatLon& center, double inner_km,
                  double outer_km, CellF&& f, SpanF&& fs) {
  scan_annulus_runs(
      g, center, inner_km, outer_km,
      [&](std::size_t b, std::size_t e, const AnnulusScan& s) {
        for (std::size_t idx = b; idx < e; ++idx) {
          double d = std::clamp(s.v.dot(g.center_vec(idx)), -1.0, 1.0);
          if (d >= s.cos_outer && d <= s.cos_inner) f(idx);
        }
      },
      static_cast<SpanF&&>(fs));
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
  const geo::Vec3* centers = &g.center_vec(0);
  std::uint64_t* words = out.words().data();
  scan_annulus_runs(
      g, cap.center, 0.0, cap.radius_km,
      [&](std::size_t b, std::size_t e, const AnnulusScan& s) {
        detail::annulus_fold<detail::AnnulusOp::kSet>(
            centers, b, e, s.v, s.cos_outer, s.cos_inner, words);
      },
      [&](std::size_t b, std::size_t e) { out.set_span(b, e); });
}

void rasterize_ring_into(const Grid& g, const geo::Ring& ring, Region& out) {
  ageo::detail::require(geo::is_valid(ring.center),
                  "rasterize_ring: invalid center");
  ageo::detail::require(out.grid() == &g,
                        "rasterize_ring_into: region on a different grid");
  const geo::Vec3* centers = &g.center_vec(0);
  std::uint64_t* words = out.words().data();
  scan_annulus_runs(
      g, ring.center, ring.inner_km, ring.outer_km,
      [&](std::size_t b, std::size_t e, const AnnulusScan& s) {
        detail::annulus_fold<detail::AnnulusOp::kSet>(
            centers, b, e, s.v, s.cos_outer, s.cos_inner, words);
      },
      [&](std::size_t b, std::size_t e) { out.set_span(b, e); });
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
  const std::uint64_t m = 1ULL << bit;
  scan_annulus(
      g, cap.center, 0.0, cap.radius_km,
      [&](std::size_t idx) { masks[idx] |= m; },
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) masks[i] |= m;
      });
}

void accumulate_ring_mask(const Grid& g, const geo::Ring& ring,
                          std::uint64_t* masks, unsigned bit) {
  ageo::detail::require(bit < 64, "accumulate_ring_mask: bit must be < 64");
  const std::uint64_t m = 1ULL << bit;
  scan_annulus(
      g, ring.center, ring.inner_km, ring.outer_km,
      [&](std::size_t idx) { masks[idx] |= m; },
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) masks[i] |= m;
      });
}

}  // namespace ageo::grid
