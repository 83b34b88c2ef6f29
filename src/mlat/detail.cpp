#include "mlat/detail.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ageo::mlat {

std::vector<detail::Annulus> detail::disk_annuli(
    const grid::Grid& g, std::span<const DiskConstraint> disks) {
  const double pad = conservative_pad_km(g);
  std::vector<Annulus> out;
  out.reserve(disks.size());
  for (const auto& d : disks) out.push_back({d.center, 0.0, d.max_km + pad});
  return out;
}

std::vector<detail::Annulus> detail::ring_annuli(
    const grid::Grid& g, std::span<const RingConstraint> rings,
    const char* msg) {
  for (const auto& r : rings) ageo::detail::require(r.min_km <= r.max_km, msg);
  const double pad = conservative_pad_km(g);
  std::vector<Annulus> out;
  out.reserve(rings.size());
  for (const auto& r : rings)
    out.push_back({r.center, std::max(0.0, r.min_km - pad), r.max_km + pad});
  return out;
}

bool detail::intersect_window_constraints(
    const grid::Grid& g, const grid::Window& win,
    std::span<const Annulus> annuli, double pad_km, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region) {
  const std::size_t n = annuli.size();
  const std::size_t band_b = win.r0 * g.cols();
  const std::size_t band_e = win.r1 * g.cols();
  std::size_t survivors = region.count_in(band_b, band_e);
  if (survivors == 0) return false;
  // Tightest annuli first: intersection is commutative, so any order
  // yields the same final region, but leading with the smallest-area
  // constraint collapses the survivor count immediately and the rest of
  // the pass runs in the cheap sparse tail. Key = spherical annulus
  // area up to a constant, cos(inner) - cos(outer) on capped radii.
  // An annulus over the whole sphere (inner 0, outer capped at the
  // antipode) keeps every cell — its scan has cos_outer = -1,
  // cos_inner = 1 and every row in its band — so it is left out: wide
  // Spotter supports are often that, and a pass over them costs as
  // much as any other.
  grid::Scratch::IndexLease order_lease = grid::Scratch::indices(scratch);
  std::vector<std::uint32_t>& order = order_lease.get();
  order.clear();
  {
    auto area_lease = grid::Scratch::doubles(scratch);
    std::vector<double>& area = area_lease.get();
    area.resize(n);
    constexpr double kAntipodeKm =
        geo::kEarthRadiusKm * 3.14159265358979323846;
    for (std::size_t i = 0; i < n; ++i) {
      const Annulus a = widened(annuli[i], pad_km);
      const double ri = std::min(std::max(a.inner_km, 0.0), kAntipodeKm);
      const double ro = std::min(std::max(a.outer_km, 0.0), kAntipodeKm);
      if (ri == 0.0 && ro == kAntipodeKm) continue;
      area[i] = std::cos(ri / geo::kEarthRadiusKm) -
                std::cos(ro / geo::kEarthRadiusKm);
      order.push_back(static_cast<std::uint32_t>(i));
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return area[x] < area[y] || (area[x] == area[y] && x < y);
              });
  }
  grid::Scratch::IndexLease cells_lease = grid::Scratch::indices(scratch);
  std::vector<std::uint32_t>& cells = cells_lease.get();
  bool sparse = false;
  for (const std::uint32_t i : order) {
    if (!sparse && survivors <= kSparseTailCells) {
      cells.clear();
      region.for_each_set_in(band_b, band_e, [&](std::size_t idx) {
        cells.push_back(static_cast<std::uint32_t>(idx));
      });
      sparse = true;
    }
    const Annulus a = widened(annuli[i], pad_km);
    if (sparse) {
      // Sparse tail: no more plan lookups, zone walks or band sweeps,
      // just one exact per-cell test per surviving cell.
      const grid::detail::AnnulusScan s(g, a.center, a.inner_km, a.outer_km);
      std::size_t kept = 0;
      for (const std::uint32_t idx : cells) {
        if (annulus_keeps(g, s, idx))
          cells[kept++] = idx;
        else
          region.reset(idx);
      }
      cells.resize(kept);
      if (kept == 0) return false;
      continue;
    }
    grid::detail::plan_for(cache, g, a.center)
        ->intersect_annulus_into(a.inner_km, a.outer_km, region, win);
    survivors = region.count_in(band_b, band_e);
    if (survivors == 0) return false;
  }
  return true;
}

}  // namespace ageo::mlat
