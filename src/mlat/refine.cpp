#include "mlat/refine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "mlat/detail.hpp"
#include "obs/obs.hpp"

namespace ageo::mlat {

namespace {

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

/// Safety margin, in cells of each coarse level, added around the
/// surviving region's bounding window before mapping it down. The
/// coarsening lemma holds with margin 0; one cell additionally absorbs
/// the window bookkeeping itself being off by a cell.
constexpr std::size_t kMarginCells = 1;

/// Run the coarse ladder for `annuli` and return the fine-grid window
/// guaranteed (by the coarsening lemma) to contain every fine cell
/// satisfying all of them, plus the last level's survivors. nullopt
/// when some coarse level empties — then no fine cell satisfies them
/// all.
///
/// Each level past the coarsest starts from the previous level's
/// survivors upsampled (children of surviving parents), not from the
/// full mapped window: by the lemma, any fine cell satisfying every
/// constraint has its ancestor at every level in that level's survivor
/// set, so the shrunken start still contains every fine candidate's
/// ancestor and the chain stays conservative.
std::optional<LadderResult> coarse_window(
    const RefineContext& ctx, std::span<const detail::Annulus> annuli,
    const grid::Region* fine_mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch) {
  AGEO_SPAN("mlat", "refine_window");
  AGEO_TIMED_US("mlat.refine.window_us", 1.0, 1e7);
  grid::Window win = grid::full_window(ctx.level(0));
  std::optional<grid::Scratch::RegionLease> prev;
  const grid::Grid* prev_grid = nullptr;
  for (std::size_t lvl = 0; lvl < ctx.levels(); ++lvl) {
    const grid::Grid& cg = ctx.level(lvl);
    auto lease = grid::Scratch::region(scratch, cg);
    grid::Region& region = lease.get();
    const grid::Region* lmask = ctx.level_mask(lvl, fine_mask);
    if (!prev) {
      grid::window_region_into(cg, win, lmask, region);
    } else {
      upsample_into(prev->get(), *prev_grid, cg, region);
      if (lmask)
        region.intersect_with_in(*lmask, win.r0 * cg.cols(),
                                 win.r1 * cg.cols());
    }
    if (!detail::intersect_window_constraints(cg, win, annuli,
                                              conservative_pad_km(cg), cache,
                                              scratch, region)) {
      AGEO_COUNT("mlat.refine.coarse_empty");
      if (t_refine_trace)
        t_refine_trace->levels.push_back({cg.cell_deg(), 0});
      return std::nullopt;
    }
    if (t_refine_trace)
      t_refine_trace->levels.push_back({cg.cell_deg(), region.count()});
    const std::optional<grid::Window> bw =
        grid::bounding_window(region, scratch);
    const grid::Window grown = grid::expand_window(*bw, cg, kMarginCells);
    const grid::Grid& next =
        lvl + 1 < ctx.levels() ? ctx.level(lvl + 1) : ctx.fine();
    win = grid::map_window(grown, cg, next);
    AGEO_COUNTER_ADD("mlat.refine.window_cells", win.cells());
    prev.emplace(std::move(lease));
    prev_grid = &cg;
  }
  return LadderResult{win, std::move(*prev), prev_grid};
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
        "refine: levels must be positive cell sizes in degrees "
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

void RefineSchedule::validate(double fine_cell_deg) const {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double lvl = levels[i];
    grid::Grid::validate_cell_deg(lvl, "refine level");
    ageo::detail::require(lvl > fine_cell_deg,
                          "refine: every level must be coarser than the "
                          "analysis grid (grid_cell_deg)");
    if (i > 0) {
      ageo::detail::require(lvl < levels[i - 1],
                            "refine: levels must be strictly descending "
                            "(coarsest first)");
      const double ratio = levels[i - 1] / lvl;
      ageo::detail::require(std::abs(ratio - std::round(ratio)) < 1e-9,
                            "refine: adjacent levels must have an exact "
                            "integer cell-size ratio");
    }
  }
  if (!enabled()) return;
  const double last = levels.back() / fine_cell_deg;
  ageo::detail::require(std::abs(last - std::round(last)) < 1e-9,
                        "refine: the finest level must be an exact integer "
                        "multiple of the analysis cell size (grid_cell_deg)");
}

RefineContext::RefineContext(const grid::Grid& fine, RefineSchedule schedule)
    : fine_(&fine), sched_(std::move(schedule)) {
  ageo::detail::require(sched_.enabled(),
                        "RefineContext: schedule has no levels");
  sched_.validate(fine.cell_deg());
  grids_.reserve(sched_.levels.size());
  for (const double lvl : sched_.levels)
    grids_.push_back(std::make_unique<grid::Grid>(lvl));
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

const RefineContext* ladder_for(const RefineContext* ctx, const grid::Grid& g,
                                const grid::Region* mask) noexcept {
  return ctx && ctx->applies_to(g, mask) ? ctx : nullptr;
}

std::optional<grid::Window> detail::ladder_seed_into(
    const RefineContext& ctx, std::span<const Annulus> annuli,
    const grid::Region* mask, grid::CapPlanCache* cache,
    grid::Scratch* scratch, grid::Region& out) {
  std::optional<LadderResult> lad =
      coarse_window(ctx, annuli, mask, cache, scratch);
  if (!lad) return std::nullopt;
  // The seed: the last level's survivors upsampled to the fine grid,
  // clipped by `mask` over the window's row band (every seed cell lies
  // in it). By the coarsening lemma it holds every fine cell that
  // satisfies all the annuli, so the fine pass — the same intersect
  // kernel the flat solve runs — leaves exactly the flat region. Seeding
  // from survivors instead of the full window usually drops the start
  // count below the sparse-tail threshold, skipping the fine row kernels
  // entirely.
  const grid::Grid& g = ctx.fine();
  upsample_into(lad->survivors.get(), *lad->survivor_grid, g, out);
  if (mask)
    out.intersect_with_in(*mask, lad->win.r0 * g.cols(),
                          lad->win.r1 * g.cols());
  return lad->win;
}

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
/// skipped. Level-0 bounds come from the plan rasterizer (cheap at the
/// coarsest grid); deeper bounds and the fine visits use the
/// per-cell dot test the kernels are bit-compatible with.
std::size_t detail::refine_lcs_sweep(const RefineContext& ctx,
                                     std::span<const Annulus> annuli,
                                     const grid::Region* fine_mask,
                                     grid::CapPlanCache* cache,
                                     grid::Scratch* scratch,
                                     grid::Region& region,
                                     std::vector<bool>& used) {
  AGEO_SPAN("mlat", "refine_lcs_sweep");
  const grid::Grid& g = ctx.fine();
  const std::size_t L = ctx.levels();
  const std::size_t n = annuli.size();
  used.assign(n, false);

  // Scans per level below the coarsest: level l < L gets that level's
  // pad chained onto the fine pad already in annuli[i] (as in the window
  // ladder); level L is the fine grid with annuli[i] verbatim — exactly
  // the annuli the flat engine accumulates.
  std::vector<std::vector<grid::detail::AnnulusScan>> scans(L + 1);
  for (std::size_t l = 1; l <= L; ++l) {
    const grid::Grid& lg = l < L ? ctx.level(l) : g;
    const double pad = l < L ? conservative_pad_km(lg) : 0.0;
    scans[l].reserve(n);
    for (const Annulus& a0 : annuli) {
      const Annulus a = widened(a0, pad);
      scans[l].emplace_back(lg, a.center, a.inner_km, a.outer_km);
    }
  }

  // Level-0 bounds: per-cell counts of the level-padded annuli.
  const grid::Grid& cg = ctx.level(0);
  const double pad0 = conservative_pad_km(cg);
  const std::size_t csize = cg.size();
  auto counts_lease = grid::Scratch::words(scratch, csize);
  std::uint64_t* counts = counts_lease.get().data();
  counts_lease.mark_dirty(0, csize);
  {
    auto tmp = grid::Scratch::region(scratch, cg);
    for (const Annulus& a0 : annuli) {
      const Annulus a = widened(a0, pad0);
      tmp.get().clear();
      grid::detail::plan_for(cache, cg, a.center)
          ->rasterize_annulus(a.inner_km, a.outer_km, tmp.get());
      tmp.get().for_each_cell([&](std::size_t idx) { ++counts[idx]; });
    }
  }

  // Candidate roots, best bound first, so the maximum is found early
  // and the cutoff prunes the tail. A skipped root (bound < best) has
  // no fine descendant reaching best, hence no tying cell.
  const grid::Region* cmask = ctx.level_mask(0, fine_mask);
  auto cand_lease = grid::Scratch::word_buf(scratch);
  std::vector<std::uint64_t>& cands = cand_lease.get();
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
  std::uint64_t* ormask = orm_lease.get().data();
  orm_lease.mark_dirty(0, planes);
  auto ties_lease = grid::Scratch::indices(scratch);
  std::vector<std::uint32_t>& ties = ties_lease.get();
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

}  // namespace ageo::mlat
