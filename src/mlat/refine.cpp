#include "mlat/refine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "grid/annulus_scan.hpp"
#include "grid/field.hpp"
#include "grid/raster.hpp"
#include "obs/obs.hpp"

namespace ageo::mlat {

namespace {

/// One constraint as an annulus for the window computation. For the
/// hard engines inner/outer already carry the FINE grid's conservative
/// pad (the fine-level keep criterion is membership of the padded
/// annulus); each coarse level widens them further by its own pad, so
/// the chained slack is pad_fine + pad_level — exactly what the
/// coarsening lemma needs. For Spotter they are the raw hard-support
/// bounds (the fine criterion is on cell centers directly, no fine pad).
struct Annulus {
  geo::LatLon center;
  double inner_km = 0.0;
  double outer_km = 0.0;
};

void rasterize_annulus_coarse(const grid::Grid& g, const geo::LatLon& center,
                              double inner_km, double outer_km,
                              grid::Region& out) {
  if (inner_km <= 0.0)
    grid::rasterize_cap_into(g, geo::Cap{center, outer_km}, out);
  else
    grid::rasterize_ring_into(g, geo::Ring{center, inner_km, outer_km}, out);
}

/// Below this many survivors, per-cell exact tests beat the row kernels:
/// a kernel pass costs O(window rows) of zone binary searches plus a
/// band-wide survivor count per constraint, the sparse tail one dot
/// product per surviving cell.
constexpr std::size_t kSparseTailCells = 4096;

/// The per-cell keep criterion every annulus engine reduces to: row
/// inside the scan's latitude band, clamped center dot within
/// [cos_outer, cos_inner]. The naive scan applies it verbatim, and the
/// pruned/plan kernels only shortcut cells whose outcome the kDotMargin
/// safety zones already decide (annulus_scan.hpp), so filtering a cell
/// list with it is bit-identical to running any of the kernels.
bool annulus_keeps(const grid::Grid& g, const grid::detail::AnnulusScan& s,
                   std::size_t idx) {
  if (s.empty) return false;
  const std::size_t r = g.row_of(idx);
  if (r < s.r0 || r >= s.r1) return false;
  const double d = std::clamp(s.v.dot(g.center_vec(idx)), -1.0, 1.0);
  return d >= s.cos_outer && d <= s.cos_inner;
}

/// AND the annuli `at(0..n)` into `region`, whose set bits all lie
/// inside `win`'s row band. Runs the row kernels while the region is
/// large; once the survivor count drops under kSparseTailCells, the
/// remaining constraints filter an explicit cell list with the exact
/// per-cell test instead — no more plan lookups, zone walks or band
/// sweeps, just (#cells x #constraints) dot products. Returns false as
/// soon as the intersection empties.
template <typename AnnulusAt>
bool intersect_window_constraints(const grid::Grid& g,
                                  const grid::Window& win, std::size_t n,
                                  AnnulusAt&& at, grid::CapPlanCache* cache,
                                  grid::Scratch* scratch,
                                  grid::Region& region) {
  const std::size_t band_b = win.r0 * g.cols();
  const std::size_t band_e = win.r1 * g.cols();
  grid::Scratch::IndexLease cells_lease = grid::Scratch::indices(scratch);
  std::vector<std::uint32_t>& cells = cells_lease.vec();
  std::size_t survivors = region.count_in(band_b, band_e);
  if (survivors == 0) return false;
  // Tightest annuli first: intersection is commutative, so any order
  // yields the same final region, but leading with the smallest-area
  // constraint collapses the survivor count immediately and the rest of
  // the pass runs in the cheap sparse tail. Key = spherical annulus
  // area up to a constant, cos(inner) - cos(outer) on capped radii.
  grid::Scratch::IndexLease order_lease = grid::Scratch::indices(scratch);
  std::vector<std::uint32_t>& order = order_lease.vec();
  order.resize(n);
  {
    auto area_lease = grid::Scratch::doubles(scratch);
    std::vector<double>& area = area_lease.vec();
    area.resize(n);
    constexpr double kAntipodeKm =
        geo::kEarthRadiusKm * 3.14159265358979323846;
    for (std::size_t i = 0; i < n; ++i) {
      const Annulus a = at(i);
      const double ri = std::min(std::max(a.inner_km, 0.0), kAntipodeKm);
      const double ro = std::min(std::max(a.outer_km, 0.0), kAntipodeKm);
      area[i] = std::cos(ri / geo::kEarthRadiusKm) -
                std::cos(ro / geo::kEarthRadiusKm);
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return area[x] < area[y] || (area[x] == area[y] && x < y);
              });
  }
  bool sparse = false;
  for (std::size_t oi = 0; oi < n; ++oi) {
    if (!sparse && survivors <= kSparseTailCells) {
      cells.clear();
      region.for_each_set_in(band_b, band_e, [&](std::size_t idx) {
        cells.push_back(static_cast<std::uint32_t>(idx));
      });
      sparse = true;
    }
    const Annulus a = at(order[oi]);
    if (sparse) {
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
    if (cache) {
      cache->plan(g, a.center)
          ->intersect_annulus_into(a.inner_km, a.outer_km, region, win);
    } else {
      auto tmp = grid::Scratch::region(scratch, g);
      rasterize_annulus_coarse(g, a.center, a.inner_km, a.outer_km, tmp.ref());
      region.intersect_with_in(tmp.ref(), band_b, band_e);
    }
    survivors = region.count_in(band_b, band_e);
    if (survivors == 0) return false;
  }
  return true;
}

/// Set every child cell of each set `coarse` cell into `out` (attached
/// to the finer grid `fg`). The exact integer cell-size ratio is
/// validated by the RefineContext constructor.
void upsample_into(const grid::Region& coarse, const grid::Grid& cg,
                   const grid::Grid& fg, grid::Region& out) {
  const std::size_t k = static_cast<std::size_t>(
      std::llround(cg.cell_deg() / fg.cell_deg()));
  const std::size_t ccols = cg.cols();
  const std::size_t fcols = fg.cols();
  coarse.for_each_cell([&](std::size_t idx) {
    const std::size_t r = idx / ccols;
    const std::size_t c = idx % ccols;
    for (std::size_t rr = r * k; rr < (r + 1) * k; ++rr)
      out.set_span(rr * fcols + c * k, rr * fcols + (c + 1) * k);
  });
}

thread_local RefineTrace* t_refine_trace = nullptr;

/// Result of the coarse ladder: the fine-grid window plus the last
/// level's surviving region (and its grid), which seeds the fine pass.
struct LadderResult {
  grid::Window win;
  grid::Scratch::RegionLease survivors;
  const grid::Grid* survivor_grid;
};

/// Run the coarse ladder for constraints `at(0..n)` and return the
/// fine-grid window guaranteed (by the coarsening lemma) to contain
/// every fine cell satisfying all of them, plus the last level's
/// survivors. nullopt when some coarse level empties — then no fine
/// cell satisfies them all.
///
/// Each level past the coarsest starts from the previous level's
/// survivors upsampled (children of surviving parents), not from the
/// full mapped window: by the lemma, any fine cell satisfying every
/// constraint has its ancestor at every level in that level's survivor
/// set, so the shrunken start still contains every fine candidate's
/// ancestor and the chain stays conservative.
template <typename AnnulusAt>
std::optional<LadderResult> coarse_window(const RefineContext& ctx,
                                          std::size_t n, AnnulusAt&& at,
                                          const grid::Region* fine_mask,
                                          grid::CapPlanCache* cache,
                                          grid::Scratch* scratch) {
  AGEO_SPAN("mlat", "refine_window");
  AGEO_TIMED_US("mlat.refine.window_us", 1.0, 1e7);
  grid::Window win = grid::full_window(ctx.level(0));
  std::optional<grid::Scratch::RegionLease> prev;
  const grid::Grid* prev_grid = nullptr;
  for (std::size_t lvl = 0; lvl < ctx.levels(); ++lvl) {
    const grid::Grid& cg = ctx.level(lvl);
    const double pad = conservative_pad_km(cg);
    auto lease = grid::Scratch::region(scratch, cg);
    grid::Region& region = lease.ref();
    const grid::Region* lmask = ctx.level_mask(lvl, fine_mask);
    if (!prev) {
      grid::window_region_into(cg, win, lmask, region);
    } else {
      upsample_into(prev->ref(), *prev_grid, cg, region);
      if (lmask)
        region.intersect_with_in(*lmask, win.r0 * cg.cols(),
                                 win.r1 * cg.cols());
    }
    const auto padded = [&](std::size_t i) {
      const Annulus a = at(i);
      return Annulus{a.center, std::max(0.0, a.inner_km - pad),
                     a.outer_km + pad};
    };
    if (!intersect_window_constraints(cg, win, n, padded, cache, scratch,
                                      region)) {
      AGEO_COUNT("mlat.refine.coarse_empty");
      if (t_refine_trace)
        t_refine_trace->levels.push_back({cg.cell_deg(), 0});
      return std::nullopt;
    }
    if (t_refine_trace)
      t_refine_trace->levels.push_back({cg.cell_deg(), region.count()});
    const std::optional<grid::Window> bw =
        grid::bounding_window(region, scratch);
    const grid::Window grown =
        grid::expand_window(*bw, cg, ctx.schedule().margin_cells);
    const grid::Grid& next =
        lvl + 1 < ctx.levels() ? ctx.level(lvl + 1) : ctx.fine();
    win = grid::map_window(grown, cg, next);
    AGEO_COUNTER_ADD("mlat.refine.window_cells", win.cells());
    prev.emplace(std::move(lease));
    prev_grid = &cg;
  }
  return LadderResult{win, std::move(*prev), prev_grid};
}

/// The fine-grid seed: out := the last level's survivors upsampled to
/// `g`, clipped by `mask` over the window's row band (every seed cell
/// lies in it). By the coarsening lemma the seed holds every fine cell
/// that satisfies all of the ladder's constraints.
void seed_into(const grid::Grid& g, LadderResult& lad,
               const grid::Region* mask, grid::Region& out) {
  upsample_into(lad.survivors.ref(), *lad.survivor_grid, g, out);
  if (mask)
    out.intersect_with_in(*mask, lad.win.r0 * g.cols(),
                          lad.win.r1 * g.cols());
}

/// Fine-grid pass: out := the seed, then AND in every fine-padded
/// annulus. The seed contains the whole flat result, so the
/// per-cell/kernel criterion — bit-compatible with the flat engines —
/// leaves exactly the flat mask-and-intersect. Seeding from survivors
/// instead of the full window usually drops the start count below the
/// sparse-tail threshold, skipping the fine kernels entirely.
template <typename AnnulusAt>
bool windowed_intersect(const grid::Grid& g, LadderResult& lad, std::size_t n,
                        AnnulusAt&& at, const grid::Region* mask,
                        grid::CapPlanCache* cache, grid::Scratch* scratch,
                        grid::Region& out) {
  seed_into(g, lad, mask, out);
  return intersect_window_constraints(g, lad.win, n, at, cache, scratch, out);
}

template <typename AnnulusAt>
grid::Region refined_intersect(const RefineContext& ctx, std::size_t n,
                               AnnulusAt&& at, const grid::Region* mask,
                               grid::CapPlanCache* cache,
                               grid::Scratch* scratch) {
  AGEO_COUNT("mlat.refine.solves");
  const grid::Grid& g = ctx.fine();
  grid::Region out(g);  // escapes to the caller
  std::optional<LadderResult> lad =
      coarse_window(ctx, n, at, mask, cache, scratch);
  if (!lad) return out;  // inconsistent: the flat result is empty too
  windowed_intersect(g, *lad, n, at, mask, cache, scratch, out);
  return out;
}

}  // namespace

void set_refine_trace(RefineTrace* trace) noexcept { t_refine_trace = trace; }

RefineSchedule RefineSchedule::parse(std::string_view spec) {
  RefineSchedule s;
  if (spec.empty() || spec == "off" || spec == "none") return s;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t sep = spec.find_first_of(",:", pos);
    const std::string_view tok =
        spec.substr(pos, sep == std::string_view::npos ? sep : sep - pos);
    const std::string str(tok);
    char* end = nullptr;
    const double v = std::strtod(str.c_str(), &end);
    ageo::detail::require(
        !str.empty() && end == str.c_str() + str.size() && std::isfinite(v) &&
            v > 0.0,
        "RefineSchedule: levels must be positive cell sizes in degrees "
        "(e.g. \"2.0,0.5\")");
    s.levels.push_back(v);
    if (sep == std::string_view::npos) break;
    pos = sep + 1;
  }
  return s;
}

RefineSchedule RefineSchedule::recommended(double fine_cell_deg) {
  RefineSchedule s;
  double prev = fine_cell_deg;
  for (const double lvl : {0.5, 2.0}) {
    if (lvl <= fine_cell_deg) continue;
    const double ratio = lvl / prev;
    if (std::abs(ratio - std::round(ratio)) > 1e-9) continue;
    s.levels.insert(s.levels.begin(), lvl);
    prev = lvl;
  }
  return s;
}

std::string RefineSchedule::to_string() const {
  std::string out;
  for (const double lvl : levels) {
    if (!out.empty()) out += ',';
    // Trim trailing zeros so the form round-trips compactly.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", lvl);
    out += buf;
  }
  return out;
}

RefineContext::RefineContext(const grid::Grid& fine, RefineSchedule schedule)
    : fine_(&fine), sched_(std::move(schedule)) {
  ageo::detail::require(sched_.enabled(),
                        "RefineContext: schedule has no levels");
  double prev = 0.0;
  for (const double lvl : sched_.levels) {
    ageo::detail::require(std::isfinite(lvl) && lvl > fine.cell_deg(),
                          "RefineContext: every level must be coarser than "
                          "the analysis grid");
    if (prev > 0.0) {
      ageo::detail::require(lvl < prev,
                            "RefineContext: levels must be strictly "
                            "descending (coarsest first)");
      const double ratio = prev / lvl;
      ageo::detail::require(std::abs(ratio - std::round(ratio)) < 1e-9,
                            "RefineContext: adjacent levels must have an "
                            "exact integer cell-size ratio");
    }
    prev = lvl;
  }
  const double last = sched_.levels.back() / fine.cell_deg();
  ageo::detail::require(std::abs(last - std::round(last)) < 1e-9,
                        "RefineContext: the finest level must be an exact "
                        "integer multiple of the analysis cell size");
  grids_.reserve(sched_.levels.size());
  for (const double lvl : sched_.levels)
    grids_.push_back(std::make_unique<grid::Grid>(lvl));  // validates divisor
}

void RefineContext::prepare_mask(const grid::Region& fine_mask) {
  ageo::detail::require(fine_mask.grid() == fine_,
                        "RefineContext: mask grid mismatch");
  masks_.clear();
  masks_.reserve(grids_.size());
  for (const auto& cg : grids_) {
    grid::Region coarse(*cg);
    // k is exact by construction (validated integer ratio).
    const std::size_t k = static_cast<std::size_t>(
        std::llround(cg->cell_deg() / fine_->cell_deg()));
    const std::size_t ccols = cg->cols();
    fine_mask.for_each_cell([&](std::size_t idx) {
      const std::size_t r = fine_->row_of(idx) / k;
      const std::size_t c = fine_->col_of(idx) / k;
      coarse.set(r * ccols + c);
    });
    masks_.push_back(std::move(coarse));
  }
  prepared_for_ = &fine_mask;
}

const grid::Region* RefineContext::level_mask(
    std::size_t i, const grid::Region* fine_mask) const {
  if (fine_mask == nullptr) return nullptr;
  ageo::detail::require(fine_mask == prepared_for_,
                        "RefineContext: mask was not prepared (call "
                        "prepare_mask with this region first)");
  return &masks_[i];
}

grid::Region refine_intersect_disks(const RefineContext& ctx,
                                    std::span<const DiskConstraint> disks,
                                    const grid::Region* mask,
                                    grid::CapPlanCache* cache,
                                    grid::Scratch* scratch) {
  AGEO_SPAN("mlat", "refine_intersect_disks");
  if (mask)
    ageo::detail::require(mask->grid() == &ctx.fine(),
                          "intersect_disks: mask grid mismatch");
  const double pad = conservative_pad_km(ctx.fine());
  return refined_intersect(
      ctx, disks.size(),
      [&](std::size_t i) {
        return Annulus{disks[i].center, 0.0, disks[i].max_km + pad};
      },
      mask, cache, scratch);
}

grid::Region refine_intersect_rings(const RefineContext& ctx,
                                    std::span<const RingConstraint> rings,
                                    const grid::Region* mask,
                                    grid::CapPlanCache* cache,
                                    grid::Scratch* scratch) {
  AGEO_SPAN("mlat", "refine_intersect_rings");
  if (mask)
    ageo::detail::require(mask->grid() == &ctx.fine(),
                          "intersect_rings: mask grid mismatch");
  // Same eager validation as the flat engine (which checks every ring it
  // reaches before intersecting; checking all up front only strengthens
  // the contract — a constraint list is either valid or rejected).
  for (const auto& r : rings)
    ageo::detail::require(r.min_km <= r.max_km,
                          "intersect_rings: min_km must be <= max_km");
  const double pad = conservative_pad_km(ctx.fine());
  return refined_intersect(
      ctx, rings.size(),
      [&](std::size_t i) {
        return Annulus{rings[i].center, std::max(0.0, rings[i].min_km - pad),
                       rings[i].max_km + pad};
      },
      mask, cache, scratch);
}

namespace {

/// Exact branch-and-bound coverage sweep for an inconsistent constraint
/// set — the refined replacement for the flat engine's full-grid sweep.
///
/// The flat answer is determined by per-cell coverage: the region is
/// the candidate cells of maximum coverage, `used` the OR of their
/// coverage sets. Both are order-independent folds (max, set union), so
/// any traversal that provably visits every cell tying the maximum
/// reproduces them bit for bit. The coarsening lemma supplies the
/// pruning: a coarse cell's count of level-padded annuli bounds the
/// coverage of every fine cell below it, so subtrees whose bound falls
/// short of the running maximum cannot contain a tying cell and are
/// skipped. Level-0 bounds come from the zone-pruned rasterizers (cheap
/// at the coarsest grid); deeper bounds and the fine visits use the
/// per-cell dot test the kernels are bit-compatible with.
template <typename AnnulusAt>
std::size_t refine_lcs_sweep(const RefineContext& ctx, std::size_t n,
                             AnnulusAt&& at, const grid::Region* fine_mask,
                             grid::CapPlanCache* cache,
                             grid::Scratch* scratch, grid::Region& region,
                             std::vector<bool>& used) {
  AGEO_SPAN("mlat", "refine_lcs_sweep");
  const grid::Grid& g = ctx.fine();
  const std::size_t L = ctx.levels();
  used.assign(n, false);

  // Scans per level below the coarsest: level l < L gets that level's
  // pad chained onto the fine pad already in at(i) (as in the window
  // ladder); level L is the fine grid with at(i) verbatim — exactly the
  // annuli the flat engine accumulates.
  std::vector<std::vector<grid::detail::AnnulusScan>> scans(L + 1);
  for (std::size_t l = 1; l <= L; ++l) {
    const grid::Grid& lg = l < L ? ctx.level(l) : g;
    const double pad = l < L ? conservative_pad_km(lg) : 0.0;
    scans[l].reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Annulus a = at(i);
      scans[l].emplace_back(lg, a.center, std::max(0.0, a.inner_km - pad),
                            a.outer_km + pad);
    }
  }

  // Level-0 bounds: per-cell counts of the level-padded annuli.
  const grid::Grid& cg = ctx.level(0);
  const double pad0 = conservative_pad_km(cg);
  const std::size_t csize = cg.size();
  auto counts_lease = grid::Scratch::words(scratch, csize);
  std::uint64_t* counts = counts_lease.vec().data();
  counts_lease.mark_dirty(0, csize);
  {
    auto tmp = grid::Scratch::region(scratch, cg);
    for (std::size_t i = 0; i < n; ++i) {
      const Annulus a = at(i);
      const double inner = std::max(0.0, a.inner_km - pad0);
      const double outer = a.outer_km + pad0;
      tmp.ref().clear();
      if (cache)
        cache->plan(cg, a.center)->rasterize_annulus(inner, outer, tmp.ref());
      else
        rasterize_annulus_coarse(cg, a.center, inner, outer, tmp.ref());
      tmp.ref().for_each_cell([&](std::size_t idx) { ++counts[idx]; });
    }
  }

  // Candidate roots, best bound first, so the maximum is found early
  // and the cutoff prunes the tail. A skipped root (bound < best) has
  // no fine descendant reaching best, hence no tying cell.
  const grid::Region* cmask = ctx.level_mask(0, fine_mask);
  auto cand_lease = grid::Scratch::word_buf(scratch);
  std::vector<std::uint64_t>& cands = cand_lease.vec();
  cands.clear();
  for (std::size_t idx = 0; idx < csize; ++idx)
    if (counts[idx] != 0 && (!cmask || cmask->test(idx)))
      cands.push_back(counts[idx] << 32 | idx);
  std::sort(cands.begin(), cands.end(),
            [](std::uint64_t a, std::uint64_t b) { return a > b; });

  // Cell-size ratio from level l to the next finer level.
  std::vector<std::size_t> ratio(L);
  for (std::size_t l = 0; l < L; ++l) {
    const grid::Grid& next = l + 1 < L ? ctx.level(l + 1) : g;
    ratio[l] = static_cast<std::size_t>(
        std::llround(ctx.level(l).cell_deg() / next.cell_deg()));
  }

  const std::size_t planes = (n + 63) / 64;
  auto orm_lease = grid::Scratch::words(scratch, planes);
  std::uint64_t* ormask = orm_lease.vec().data();
  orm_lease.mark_dirty(0, planes);
  auto ties_lease = grid::Scratch::indices(scratch);
  std::vector<std::uint32_t>& ties = ties_lease.vec();
  ties.clear();
  std::vector<std::uint64_t> cellmask(planes);
  std::size_t best = 0;

  const auto fine_visit = [&](std::size_t idx) {
    if (fine_mask && !fine_mask->test(idx)) return;
    std::fill(cellmask.begin(), cellmask.end(), 0);
    std::size_t pc = 0;
    const auto& fs = scans[L];
    for (std::size_t i = 0; i < n; ++i) {
      if (pc + (n - i) < best) return;  // cannot tie anymore
      if (annulus_keeps(g, fs[i], idx)) {
        ++pc;
        cellmask[i >> 6] |= 1ULL << (i & 63);
      }
    }
    if (pc == 0 || pc < best) return;
    if (pc > best) {
      best = pc;
      ties.clear();
      std::fill(ormask, ormask + planes, 0);
    }
    ties.push_back(static_cast<std::uint32_t>(idx));
    for (std::size_t w = 0; w < planes; ++w) ormask[w] |= cellmask[w];
  };

  const auto expand = [&](auto&& self, std::size_t l, std::size_t r,
                          std::size_t c) -> void {
    const grid::Grid& next = l + 1 < L ? ctx.level(l + 1) : g;
    const bool next_is_fine = l + 1 >= L;
    const grid::Region* nmask =
        next_is_fine ? fine_mask : ctx.level_mask(l + 1, fine_mask);
    const std::size_t k = ratio[l];
    const auto& ls = scans[l + 1];
    for (std::size_t rr = r * k; rr < (r + 1) * k; ++rr) {
      for (std::size_t cc = c * k; cc < (c + 1) * k; ++cc) {
        const std::size_t idx = rr * next.cols() + cc;
        if (next_is_fine) {
          fine_visit(idx);
          continue;
        }
        if (nmask && !nmask->test(idx)) continue;
        std::size_t bound = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (bound + (n - i) < best) break;  // subtree cannot tie
          if (annulus_keeps(next, ls[i], idx)) ++bound;
        }
        if (bound == 0 || bound < best) continue;
        self(self, l + 1, rr, cc);
      }
    }
  };

  for (const std::uint64_t packed : cands) {
    const std::size_t bound = packed >> 32;
    if (bound < best) break;  // sorted: nothing further can tie
    const std::size_t idx = packed & 0xffffffffULL;
    expand(expand, 0, idx / cg.cols(), idx % cg.cols());
  }

  if (best == 0) return 0;
  for (const std::uint32_t idx : ties) region.set(idx);
  for (std::size_t w = 0; w < planes; ++w) {
    std::uint64_t bits = ormask[w];
    while (bits) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
      used[w * 64 + b] = true;
      bits &= bits - 1;
    }
  }
  return best;
}

/// Shared refined-LCS core: windowed fast path when the coarse ladder
/// survives and the full intersection holds, branch-and-bound coverage
/// sweep otherwise; the flat engine answers the trivial empty list.
template <typename AnnulusAt, typename Fallback>
std::size_t refine_lcs(const RefineContext& ctx, std::size_t n, AnnulusAt&& at,
                       Fallback&& flat, const grid::Region* mask,
                       grid::CapPlanCache* cache, grid::Scratch* scratch,
                       grid::Region& region, std::vector<bool>& used) {
  AGEO_SPAN("mlat", "refine_lcs");
  AGEO_COUNT("mlat.refine.solves");
  const grid::Grid& g = ctx.fine();
  if (mask)
    ageo::detail::require(mask->grid() == &g,
                          "largest_consistent_subset: mask grid mismatch");
  ageo::detail::require(region.grid() == &g,
                        "largest_consistent_subset: region grid mismatch");
  if (n == 0) return flat();  // trivial: flat engine handles it directly

  std::optional<LadderResult> lad =
      coarse_window(ctx, n, at, mask, cache, scratch);
  if (lad && windowed_intersect(g, *lad, n, at, mask, cache, scratch, region)) {
    // All constraints admit a common cell: the maximum subset is the
    // full set and the region is the plain intersection — the same
    // answer (bit for bit) the flat engine returns, via either its own
    // fast path or the coverage sweep.
    used.assign(n, true);
    AGEO_COUNT("mlat.refine.fast_path_hits");
    return n;
  }
  // Inconsistent constraint set (or coarse-empty, which implies it): a
  // window sized for the full set would be unsound for subset search,
  // so run the branch-and-bound sweep over the coarse ladder instead.
  // The failed windowed intersection left `region` all-zero — the same
  // empty-region precondition the flat engine's sweep starts from.
  AGEO_COUNT("mlat.refine.lcs_fallbacks");
  return refine_lcs_sweep(ctx, n, at, mask, cache, scratch, region, used);
}

}  // namespace

std::size_t refine_largest_consistent_subset_into(
    const RefineContext& ctx, std::span<const DiskConstraint> disks,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used) {
  const double pad = conservative_pad_km(ctx.fine());
  return refine_lcs(
      ctx, disks.size(),
      [&](std::size_t i) {
        return Annulus{disks[i].center, 0.0, disks[i].max_km + pad};
      },
      [&] {
        return largest_consistent_subset_into(ctx.fine(), disks, mask, cache,
                                              scratch, region, used);
      },
      mask, cache, scratch, region, used);
}

std::size_t refine_largest_consistent_subset_into(
    const RefineContext& ctx, std::span<const RingConstraint> rings,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& region, std::vector<bool>& used) {
  for (const auto& r : rings)
    ageo::detail::require(r.min_km <= r.max_km,
                          "largest_consistent_subset: min_km must be <= max_km");
  const double pad = conservative_pad_km(ctx.fine());
  return refine_lcs(
      ctx, rings.size(),
      [&](std::size_t i) {
        return Annulus{rings[i].center, std::max(0.0, rings[i].min_km - pad),
                       rings[i].max_km + pad};
      },
      [&] {
        return largest_consistent_subset_into(ctx.fine(), rings, mask, cache,
                                              scratch, region, used);
      },
      mask, cache, scratch, region, used);
}

grid::Region refine_spotter_credible(const RefineContext& ctx,
                                     std::span<const GaussianConstraint> rings,
                                     double credible_mass,
                                     const grid::Region* mask,
                                     grid::CapPlanCache* cache,
                                     grid::Scratch* scratch) {
  AGEO_SPAN("mlat", "refine_spotter");
  AGEO_COUNT("mlat.refine.solves");
  const grid::Grid& g = ctx.fine();
  // The ladder reads every ring's support, so vet the list before it.
  validate_gaussian_rings(g, rings, mask);
  ageo::detail::require(credible_mass > 0.0 && credible_mass <= 1.0,
                        "credible mass must be in (0, 1]");

  // Hard support of each ring: any cell the flat posterior leaves
  // nonzero has a < kGaussianCut for every ring, i.e. a center strictly
  // inside [mu - W, mu + W]. These are raw (unpadded) annuli; the
  // coarse ladder adds each level's own pad.
  const auto at = [&](std::size_t i) {
    const double w = grid::detail::gaussian_support_halfwidth_km(
        rings[i].sigma_km);
    return Annulus{rings[i].center, std::max(0.0, rings[i].mu_km - w),
                   rings[i].mu_km + w};
  };
  std::optional<LadderResult> lad =
      coarse_window(ctx, rings.size(), at, mask, cache, scratch);
  if (!lad) {
    // No cell survives every support annulus: the flat posterior is
    // identically zero, normalize refuses, and the flat credible region
    // is empty.
    return grid::Region(g);
  }

  // The flat solve from a smaller masked start: a fine cell off the seed
  // fails some ring's support annulus (coarsening lemma), so the flat
  // chain multiplies it to +0.0 and drops it from the live list, while
  // the seeded start holds it at that +0.0 from the outset. Every seed
  // cell sees the flat factor sequence, and the mass folds and the
  // credible cut walk the same ascending live list, so the region is the
  // flat one bit for bit.
  auto seed = grid::Scratch::region(scratch, g);
  seed_into(g, *lad, mask, seed.ref());
  auto posterior = grid::Scratch::field(scratch, g, &seed.ref());
  fuse_gaussian_rings_into(g, rings, posterior.ref(), nullptr, cache);
  return posterior.ref().credible_region(credible_mass);
}

std::optional<grid::Window> refine_window(const RefineContext& ctx,
                                          std::span<const DiskConstraint> disks,
                                          const grid::Region* mask,
                                          grid::CapPlanCache* cache,
                                          grid::Scratch* scratch) {
  const double pad = conservative_pad_km(ctx.fine());
  const std::optional<LadderResult> lad = coarse_window(
      ctx, disks.size(),
      [&](std::size_t i) {
        return Annulus{disks[i].center, 0.0, disks[i].max_km + pad};
      },
      mask, cache, scratch);
  if (!lad) return std::nullopt;
  return lad->win;
}

std::optional<grid::Window> refine_window(const RefineContext& ctx,
                                          std::span<const RingConstraint> rings,
                                          const grid::Region* mask,
                                          grid::CapPlanCache* cache,
                                          grid::Scratch* scratch) {
  const double pad = conservative_pad_km(ctx.fine());
  const std::optional<LadderResult> lad = coarse_window(
      ctx, rings.size(),
      [&](std::size_t i) {
        return Annulus{rings[i].center, std::max(0.0, rings[i].min_km - pad),
                       rings[i].max_km + pad};
      },
      mask, cache, scratch);
  if (!lad) return std::nullopt;
  return lad->win;
}

}  // namespace ageo::mlat
