#include "oracles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "geo/vec3.hpp"
#include "grid/annulus_scan.hpp"

namespace ageo::grid::reference {

namespace {

/// Visit every cell whose center is within [inner_km, outer_km] of
/// `center`, one dot product per cell of the latitude band. This is the
/// specification the pruned plan scan (cap_cache.cpp) is tested against
/// bit for bit.
template <typename F>
void scan_annulus_naive(const Grid& g, const geo::LatLon& center,
                        double inner_km, double outer_km, F&& f) {
  const detail::AnnulusScan s(g, center, inner_km, outer_km);
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

void multiply_gaussian_ring(Field& f, const geo::LatLon& center, double mu_km,
                            double sigma_km) {
  ageo::detail::require(f.grid() != nullptr, "Field: not attached to a grid");
  ageo::detail::require(sigma_km > 0.0, "Field: sigma must be positive");
  ageo::detail::require(geo::is_valid(center), "Field: invalid ring center");
  // Reads go through the const at(); the mutable one drops the field's
  // cached mass and live list, and only a cell this loop writes needs
  // that.
  const Field& density = f;
  const Grid& grid = *f.grid();
  const geo::Vec3 v = geo::to_vec3(center);
  const double inv_2s2 = 1.0 / (2.0 * sigma_km * sigma_km);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (density.at(i) == 0.0) continue;
    const geo::Vec3& u = grid.center_vec(i);
    double ang = std::atan2(v.cross(u).norm(), v.dot(u));
    double d = geo::kEarthRadiusKm * ang;
    double r = d - mu_km;
    f.at(i) *= std::exp(-r * r * inv_2s2);
  }
}

}  // namespace ageo::grid::reference

namespace ageo::mlat::reference {

namespace {

/// The three dense passes shared by the disk and ring oracles, applied
/// to a fully built per-cell coverage vector of `n` constraints.
SubsetResult dense_passes(const grid::Grid& g, std::size_t n,
                          const std::vector<std::uint64_t>& cover,
                          const grid::Region* mask);

}  // namespace

SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const DiskConstraint> disks,
                                       const grid::Region* mask,
                                       grid::CapPlanCache* cache) {
  ageo::detail::require(disks.size() <= 64,
                  "largest_consistent_subset: at most 64 constraints");
  if (mask)
    ageo::detail::require(mask->grid() == &g,
                    "largest_consistent_subset: mask grid mismatch");

  if (disks.empty()) {
    SubsetResult result;
    result.region = grid::Region(g);
    if (mask)
      result.region = *mask;
    else
      result.region.fill();
    return result;
  }

  // Per-cell coverage bitmask (conservatively padded, like
  // intersect_disks).
  const double pad = conservative_pad_km(g);
  std::vector<std::uint64_t> cover(g.size(), 0);
  for (std::size_t i = 0; i < disks.size(); ++i) {
    grid::detail::plan_for(cache, g, disks[i].center)
        ->accumulate_annulus(0.0, disks[i].max_km + pad, cover,
                             static_cast<unsigned>(i));
  }
  return dense_passes(g, disks.size(), cover, mask);
}

SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const RingConstraint> rings,
                                       const grid::Region* mask,
                                       grid::CapPlanCache* cache) {
  ageo::detail::require(rings.size() <= 64,
                  "largest_consistent_subset: at most 64 constraints");
  if (mask)
    ageo::detail::require(mask->grid() == &g,
                    "largest_consistent_subset: mask grid mismatch");

  if (rings.empty()) {
    SubsetResult result;
    result.region = grid::Region(g);
    if (mask)
      result.region = *mask;
    else
      result.region.fill();
    return result;
  }

  const double pad = conservative_pad_km(g);
  std::vector<std::uint64_t> cover(g.size(), 0);
  for (std::size_t i = 0; i < rings.size(); ++i) {
    ageo::detail::require(rings[i].min_km <= rings[i].max_km,
                    "largest_consistent_subset: min_km must be <= max_km");
    const double inner = std::max(0.0, rings[i].min_km - pad);
    const double outer = rings[i].max_km + pad;
    grid::detail::plan_for(cache, g, rings[i].center)
        ->accumulate_annulus(inner, outer, cover, static_cast<unsigned>(i));
  }
  return dense_passes(g, rings.size(), cover, mask);
}

namespace {

SubsetResult dense_passes(const grid::Grid& g, std::size_t n,
                          const std::vector<std::uint64_t>& cover,
                          const grid::Region* mask) {
  SubsetResult result;
  result.region = grid::Region(g);
  result.used.assign(n, false);

  // Pass 1: the maximum coverage cardinality among candidate cells.
  std::size_t best = 0;
  auto candidate = [&](std::size_t idx) {
    return mask == nullptr || mask->test(idx);
  };
  for (std::size_t idx = 0; idx < cover.size(); ++idx) {
    if (cover[idx] == 0 || !candidate(idx)) continue;
    best = std::max(best,
                    static_cast<std::size_t>(std::popcount(cover[idx])));
  }
  result.n_used = best;
  if (best == 0) return result;

  // Pass 2: distinct maximum-cardinality coverage sets. Collect first and
  // sort-unique afterwards: near-concentric constraint stacks produce
  // thousands of winning cells over a handful of distinct sets, and a
  // linear find per cell made this pass quadratic.
  std::vector<std::uint64_t> best_masks;
  for (std::size_t idx = 0; idx < cover.size(); ++idx) {
    if (!candidate(idx)) continue;
    if (static_cast<std::size_t>(std::popcount(cover[idx])) != best) continue;
    best_masks.push_back(cover[idx]);
  }
  std::sort(best_masks.begin(), best_masks.end());
  best_masks.erase(std::unique(best_masks.begin(), best_masks.end()),
                   best_masks.end());

  // Pass 3: the region is every candidate cell whose coverage contains
  // some maximum subset; record which constraints participate.
  for (std::size_t idx = 0; idx < cover.size(); ++idx) {
    if (!candidate(idx)) continue;
    for (std::uint64_t m : best_masks) {
      if ((cover[idx] & m) == m) {
        result.region.set(idx);
        break;
      }
    }
  }
  for (std::uint64_t m : best_masks) {
    for (std::size_t i = 0; i < n; ++i)
      if (m & (1ULL << i)) result.used[i] = true;
  }
  return result;
}

}  // namespace

grid::Field fuse_gaussian_rings(const grid::Grid& g,
                                std::span<const GaussianConstraint> rings,
                                const grid::Region* mask) {
  grid::Field field(g);
  if (mask) field.apply_mask(*mask);
  for (const auto& r : rings)
    field.multiply_gaussian_ring(r.center, r.mu_km, r.sigma_km);
  field.normalize();  // a zero-mass field stays unnormalised (empty)
  return field;
}

}  // namespace ageo::mlat::reference
