#include "mlat/multilateration.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "grid/raster.hpp"
#include "mlat/detail.hpp"
#include "mlat/refine.hpp"
#include "obs/obs.hpp"

namespace ageo::mlat {

double conservative_pad_km(const grid::Grid& g) noexcept {
  // Half the diagonal of an equatorial cell: a point strictly inside a
  // constraint is never more than this far from the center of some cell
  // that should be kept, so padding outward by it makes rasterized
  // regions over-cover rather than under-cover (predictions must contain
  // the truth; see paper §5, "our priority").
  return 0.7072 * g.cell_deg() * 111.2;
}

namespace {

// Row-bitmap helpers (row index -> bit in a raw word buffer): the
// coverage sweep walks only rows some constraint's latitude band touches.
void set_row_range(std::uint64_t* bits, std::size_t r0, std::size_t r1) {
  if (r0 >= r1) return;
  const std::size_t w0 = r0 >> 6, w1 = (r1 - 1) >> 6;
  const std::uint64_t first = ~0ULL << (r0 & 63);
  const std::uint64_t last = ~0ULL >> (63 - ((r1 - 1) & 63));
  if (w0 == w1) {
    bits[w0] |= first & last;
    return;
  }
  bits[w0] |= first;
  for (std::size_t w = w0 + 1; w < w1; ++w) bits[w] = ~0ULL;
  bits[w1] |= last;
}

template <typename F>
void for_each_row_run(const std::uint64_t* bits, std::size_t rows, F&& f) {
  const auto is_set = [&](std::size_t r) {
    return ((bits[r >> 6] >> (r & 63)) & 1) != 0;
  };
  std::size_t r = 0;
  while (r < rows) {
    if (!is_set(r)) {
      ++r;
      continue;
    }
    const std::size_t start = r;
    while (r < rows && is_set(r)) ++r;
    f(start, r);
  }
}

void require_mask_on(const grid::Grid& g, const grid::Region* mask,
                     const char* msg) {
  if (mask) ageo::detail::require(mask->grid() == &g, msg);
}

/// out := mask ∩ every annulus, on the ladder's seed and window or — the
/// zero-level ladder — on the mask (or full grid) and the full window.
/// `out` must be an empty region on `g`. Returns false, with `out`
/// all-zero, when the intersection is empty.
bool intersect_all_into(const grid::Grid& g, const RefineContext* ladder,
                        std::span<const detail::Annulus> annuli,
                        const grid::Region* mask, grid::CapPlanCache* cache,
                        grid::Scratch* scratch, grid::Region& out) {
  std::optional<grid::Window> win;
  if (ladder) {
    win = detail::ladder_seed_into(*ladder, annuli, mask, cache, scratch, out);
    if (!win) return false;  // a coarse level emptied: so does the flat solve
  } else {
    if (mask)
      out = *mask;
    else
      out.fill();
    win = grid::full_window(g);
  }
  return detail::intersect_window_constraints(g, *win, annuli, 0.0, cache,
                                              scratch, out);
}

grid::Region intersect_annuli(const grid::Grid& g,
                              std::span<const detail::Annulus> annuli,
                              const grid::Region* mask,
                              grid::CapPlanCache* cache,
                              grid::Scratch* scratch,
                              const RefineContext* refine) {
  const RefineContext* ladder = ladder_for(refine, g, mask);
  if (ladder) AGEO_COUNT("mlat.refine.solves");
  grid::Region out(g);  // escapes to the caller
  intersect_all_into(g, ladder, annuli, mask, cache, scratch, out);
  return out;
}

/// Flat coverage sweep for an inconsistent annulus set. `region` must be
/// all-zero. Semantics, scratch discipline and bit-exactness are those
/// documented on largest_consistent_subset.
std::size_t coverage_sweep(const grid::Grid& g,
                           std::span<const detail::Annulus> annuli,
                           const grid::Region* mask,
                           grid::CapPlanCache* cache, grid::Scratch* scratch,
                           grid::Region& region, std::vector<bool>& used) {
  const std::size_t n = annuli.size();
  const std::size_t planes = (n + 63) / 64;
  const std::size_t size = g.size();
  const std::size_t cols = g.cols();
  const std::size_t rows = g.rows();
  const std::size_t row_words = (rows + 63) / 64;

  // Coverage planes (conservatively padded, like intersect_disks):
  // plane w holds bit (i & 63) of constraint i = 64 w + (i & 63) for
  // every cell, at cover[w * size + idx]. Dirty ranges are declared per
  // constraint so the pooled buffer's next clear costs O(touched rows).
  auto cover_lease = grid::Scratch::words(scratch, planes * size);
  std::uint64_t* cover = cover_lease.get().data();
  auto rowmap_lease = grid::Scratch::words(scratch, row_words);
  std::uint64_t* rowmap = rowmap_lease.get().data();
  rowmap_lease.mark_dirty(0, row_words);

  for (std::size_t i = 0; i < n; ++i) {
    const detail::Annulus& a = annuli[i];
    const auto [r0, r1] =
        grid::annulus_row_band(g, a.center, a.inner_km, a.outer_km);
    if (r0 >= r1) continue;
    set_row_range(rowmap, r0, r1);
    const std::size_t plane = (i >> 6) * size;
    cover_lease.mark_dirty(plane + r0 * cols, plane + r1 * cols);
    const unsigned bit = static_cast<unsigned>(i & 63);
    grid::detail::plan_for(cache, g, a.center)
        ->accumulate_annulus(a.inner_km, a.outer_km, cover + plane, bit);
  }

  const auto candidate = [&](std::size_t idx) {
    return mask == nullptr || mask->test(idx);
  };

  // Single fused sweep replacing the reference's passes 1–3. The region
  // is exactly the candidate cells at maximum coverage: a cell whose
  // coverage contains some maximum-cardinality set has popcount >= best,
  // and best is the maximum, so == best; conversely a maximum cell's own
  // coverage is such a set. Likewise used[i] ("i participates in some
  // maximum set") is simply the OR of the tying cells' coverage words —
  // deduplication is irrelevant under OR. So one walk suffices: track
  // the running maximum, collect tying cell indices, and fold their
  // coverage into `ormask`; a new maximum resets both. Cells outside
  // every constraint's latitude band have zero coverage and cannot win,
  // which is why walking only the touched row runs is exact.
  auto ormask_lease = grid::Scratch::words(scratch, planes);
  std::uint64_t* ormask = ormask_lease.get().data();
  ormask_lease.mark_dirty(0, planes);
  auto ties_lease = grid::Scratch::indices(scratch);
  std::vector<std::uint32_t>& ties = ties_lease.get();
  std::size_t best = 0;
  const auto consider = [&](std::size_t idx, std::size_t pc) {
    if (pc == 0 || pc < best) return;
    if (pc > best) {
      best = pc;
      ties.clear();
      std::fill(ormask, ormask + planes, 0);
    }
    ties.push_back(static_cast<std::uint32_t>(idx));
    for (std::size_t w = 0; w < planes; ++w)
      ormask[w] |= cover[w * size + idx];
  };
  for_each_row_run(rowmap, rows, [&](std::size_t ra, std::size_t rb) {
    for (std::size_t idx = ra * cols; idx < rb * cols; ++idx) {
      if (!candidate(idx)) continue;
      std::size_t pc = 0;
      for (std::size_t w = 0; w < planes; ++w)
        pc += static_cast<std::size_t>(std::popcount(cover[w * size + idx]));
      consider(idx, pc);
    }
  });
  if (best == 0) return 0;

  for (const std::uint32_t idx : ties) region.set(idx);
  for (std::size_t w = 0; w < planes; ++w) {
    std::uint64_t bits = ormask[w];
    while (bits) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
      used[w * 64 + b] = true;
      bits &= bits - 1;
    }
  }
  return best;
}

/// The one subset solve behind both constraint types. When every
/// constraint admits a common cell — the normal case for honest proxies
/// and for the baseline physical bounds — the answer is the full set: a
/// cell lies in the intersection iff its coverage count is n, which is
/// then the maximum, so the region is exactly the plain intersection and
/// every used[i] is true. The intersect kernel computes that at word/span
/// cost (inside the ladder's window when one applies). Otherwise the
/// failed intersection left `region` all-zero and a coverage sweep runs:
/// the ladder's branch-and-bound sweep under a ladder, the flat sweep
/// over the touched rows without one — the faster one on each side.
std::size_t lcs_into(const grid::Grid& g,
                     std::span<const detail::Annulus> annuli,
                     const grid::Region* mask, grid::CapPlanCache* cache,
                     grid::Scratch* scratch, grid::Region& region,
                     std::vector<bool>& used, const RefineContext* refine) {
  AGEO_SPAN("mlat", "largest_consistent_subset");
  AGEO_COUNT("mlat.lcs.solves");
  const std::size_t n = annuli.size();
  AGEO_COUNTER_ADD("mlat.lcs.constraints", n);
  require_mask_on(g, mask, "largest_consistent_subset: mask grid mismatch");
  ageo::detail::require(region.grid() == &g,
                        "largest_consistent_subset: region grid mismatch");

  // No constraints need no special case: their intersection is the
  // mask, with no constraint used.
  used.assign(n, false);
  const RefineContext* ladder = ladder_for(refine, g, mask);
  if (ladder) AGEO_COUNT("mlat.refine.solves");
  if (intersect_all_into(g, ladder, annuli, mask, cache, scratch, region)) {
    used.assign(n, true);
    AGEO_COUNT("mlat.lcs.fast_path_hits");
    if (ladder) AGEO_COUNT("mlat.refine.fast_path_hits");
    return n;
  }
  std::size_t best = 0;
  if (ladder) {
    AGEO_COUNT("mlat.refine.lcs_fallbacks");
    best = detail::refine_lcs_sweep(*ladder, annuli, mask, cache, scratch,
                                    region, used);
  } else {
    best = coverage_sweep(g, annuli, mask, cache, scratch, region, used);
  }
  AGEO_COUNTER_ADD("mlat.lcs.excluded", n - best);
  return best;
}

}  // namespace

grid::Region intersect_disks(const grid::Grid& g,
                             std::span<const DiskConstraint> disks,
                             const grid::Region* mask,
                             grid::CapPlanCache* cache,
                             grid::Scratch* scratch,
                             const RefineContext* refine) {
  AGEO_SPAN("mlat", "intersect_disks");
  AGEO_COUNTER_ADD("mlat.disk_constraints", disks.size());
  require_mask_on(g, mask, "intersect_disks: mask grid mismatch");
  return intersect_annuli(g, detail::disk_annuli(g, disks), mask, cache,
                          scratch, refine);
}

grid::Region intersect_rings(const grid::Grid& g,
                             std::span<const RingConstraint> rings,
                             const grid::Region* mask,
                             grid::CapPlanCache* cache,
                             grid::Scratch* scratch,
                             const RefineContext* refine) {
  AGEO_SPAN("mlat", "intersect_rings");
  AGEO_COUNTER_ADD("mlat.ring_constraints", rings.size());
  require_mask_on(g, mask, "intersect_rings: mask grid mismatch");
  return intersect_annuli(
      g,
      detail::ring_annuli(g, rings,
                          "intersect_rings: min_km must be <= max_km"),
      mask, cache, scratch, refine);
}

void validate_gaussian_rings(const grid::Grid& g,
                             std::span<const GaussianConstraint> rings,
                             const grid::Region* mask) {
  require_mask_on(g, mask, "Gaussian rings: mask grid mismatch");
  for (const auto& r : rings) {
    ageo::detail::require(geo::is_valid(r.center),
                          "Gaussian rings: invalid ring center");
    ageo::detail::require(grid::detail::gaussian_sigma_valid(r.sigma_km),
                          "Gaussian rings: sigma must be finite and positive, "
                          "with a finite nonzero 1/(2 sigma^2)");
    ageo::detail::require(std::isfinite(r.mu_km),
                          "Gaussian rings: mu must be finite");
  }
}

namespace {

/// The one ring loop, over a list its caller has validated.
void multiply_valid_rings(const grid::Grid& g,
                          std::span<const GaussianConstraint> rings,
                          grid::CapPlanCache* cache, grid::Field& posterior) {
  AGEO_SPAN("mlat", "multiply_rings");
  AGEO_COUNTER_ADD("mlat.gaussian_constraints", rings.size());
  for (const auto& r : rings) {
    posterior.multiply_gaussian_ring_unchecked(
        *grid::detail::plan_for(cache, g, r.center), r.mu_km, r.sigma_km);
  }
}

}  // namespace

void spotter_start(const grid::Grid& g,
                   std::span<const GaussianConstraint> rings,
                   const grid::Region* mask, grid::CapPlanCache* cache,
                   grid::Scratch* scratch, const RefineContext* refine,
                   grid::Region& seed, grid::Field& posterior) {
  // The kernel reads every ring's support, so vet the list before it;
  // the multiplies below then run unchecked.
  validate_gaussian_rings(g, rings, mask);
  const RefineContext* ladder = ladder_for(refine, g, mask);
  if (ladder) AGEO_COUNT("mlat.refine.solves");
  // Hard support of each ring: any cell the mask-started posterior
  // leaves nonzero has a < kGaussianCut for every ring, i.e. a center
  // strictly inside [mu - W, mu + W] (W carries kSupportSlackKm). These
  // are raw (unpadded) annuli; a coarse ladder adds each level's own pad.
  std::vector<detail::Annulus> support;
  support.reserve(rings.size());
  for (const auto& r : rings) {
    const double w = grid::detail::gaussian_support_halfwidth_km(r.sigma_km);
    support.push_back({r.center, std::max(0.0, r.mu_km - w), r.mu_km + w});
  }
  // An empty intersection leaves the seed empty: the mask-started
  // posterior is identically zero then, and so is the one started here.
  intersect_all_into(g, ladder, support, mask, cache, scratch, seed);
  AGEO_COUNTER_ADD("mlat.spotter.start_cells", seed.count());
  // Per solve too: does start size explain the Spotter locate tail?
  AGEO_HIST("mlat.spotter.start_cells_per_solve",
            static_cast<double>(seed.count()), 1.0, 1e7);
  posterior.rebind(g, &seed);
  multiply_valid_rings(g, rings, cache, posterior);
}

bool intersect_disk_into(const grid::Grid& g, const DiskConstraint& disk,
                         grid::CapPlanCache& cache, grid::Region& region,
                         const grid::Window& win, grid::Scratch* scratch) {
  AGEO_COUNT("mlat.incremental.disk_intersects");
  ageo::detail::require(region.grid() == &g,
                        "intersect_disk_into: region grid mismatch");
  const detail::Annulus a{disk.center, 0.0,
                          disk.max_km + conservative_pad_km(g)};
  return detail::intersect_window_constraints(g, win, {&a, 1}, 0.0, &cache,
                                              scratch, region);
}

void multiply_rings_into(const grid::Grid& g,
                         std::span<const GaussianConstraint> rings,
                         grid::CapPlanCache* cache, grid::Field& posterior) {
  ageo::detail::require(posterior.grid() == &g,
                        "multiply_rings_into: field grid mismatch");
  // Validate the list once; the per-ring multiplies run unchecked so the
  // hot path does no per-call argument vetting.
  validate_gaussian_rings(g, rings, nullptr);
  multiply_valid_rings(g, rings, cache, posterior);
}

std::size_t largest_consistent_subset_into(
    const grid::Grid& g, std::span<const DiskConstraint> disks,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used,
    const RefineContext* refine) {
  return lcs_into(g, detail::disk_annuli(g, disks), mask, cache, scratch,
                  region, used, refine);
}

std::size_t largest_consistent_subset_into(
    const grid::Grid& g, std::span<const RingConstraint> rings,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used,
    const RefineContext* refine) {
  return lcs_into(
      g,
      detail::ring_annuli(
          g, rings, "largest_consistent_subset: min_km must be <= max_km"),
      mask, cache, scratch, region, used, refine);
}

SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const DiskConstraint> disks,
                                       const grid::Region* mask,
                                       grid::CapPlanCache* cache,
                                       grid::Scratch* scratch,
                                       const RefineContext* refine) {
  SubsetResult result;
  result.region = grid::Region(g);  // escapes to the caller
  result.n_used = largest_consistent_subset_into(
      g, disks, mask, cache, scratch, result.region, result.used, refine);
  return result;
}

SubsetResult largest_consistent_subset(const grid::Grid& g,
                                       std::span<const RingConstraint> rings,
                                       const grid::Region* mask,
                                       grid::CapPlanCache* cache,
                                       grid::Scratch* scratch,
                                       const RefineContext* refine) {
  SubsetResult result;
  result.region = grid::Region(g);  // escapes to the caller
  result.n_used = largest_consistent_subset_into(
      g, rings, mask, cache, scratch, result.region, result.used, refine);
  return result;
}

}  // namespace ageo::mlat
