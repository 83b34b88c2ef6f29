#include "algos/cbg_pp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "grid/raster.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"
#include "mlat/multilateration.hpp"
#include "obs/obs.hpp"

namespace ageo::algos {

namespace {

/// Resumable solver state for the streaming service (locate_memo /
/// locate_update): the two stage regions plus every bestline disk and
/// its stage-2 verdict. Valid only while the solve stays on the
/// consistent fast path — both regions nonempty, coalition membership
/// monotone — which locate_update re-checks on every absorption.
struct CbgMemo final : LocatorMemo {
  const grid::Grid* grid = nullptr;    ///< the capture's grid
  const grid::Region* mask = nullptr;  ///< the capture's mask (may be null)
  grid::Region baseline;   ///< ∩ of all (padded) baseline disks ∩ mask
  grid::Region bestline;   ///< ∩ of retained (padded) bestline disks ∩ mask
  /// Bounding windows of the two regions at capture. The regions only
  /// shrink, so every set bit stays inside their row bands, and each
  /// update scans those bands instead of the whole grid.
  grid::Window base_win, best_win;
  std::vector<mlat::DiskConstraint> best_disks;  ///< per observation
  std::vector<std::uint8_t> retained;            ///< stage-2 verdicts
  std::size_t n_retained = 0;
  std::size_t discarded = 0;
};

/// Stage-2 distance of one bestline disk from the baseline region,
/// given the max center-dot folded over the region's cells — the same
/// arithmetic as Region::distance_from_km, so every stage-2 verdict
/// (full solve or incremental update) comes from this one expression.
double stage2_distance_km(const grid::Grid& g, const grid::Region& base,
                          const mlat::DiskConstraint& d, double max_dot) {
  if (base.test(g.cell_at(d.center))) return 0.0;
  const double b = std::min(1.0, std::max(-1.0, max_dot));
  return geo::kEarthRadiusKm * std::acos(b);
}

/// The bounding window of `r`, or the whole grid when `r` is empty.
grid::Window window_of(const grid::Grid& g, const grid::Region& r) {
  const std::optional<grid::Window> w = grid::bounding_window(r);
  return w ? *w : grid::full_window(g);
}

std::size_t count_in(const grid::Grid& g, const grid::Region& r,
                     const grid::Window& w) {
  return r.count_in(w.r0 * g.cols(), w.r1 * g.cols());
}

/// One region pass folding, for each listed observation index, the max
/// dot of that disk's center against the region's cell centers (every
/// set cell lies in `win`'s row band). The max is order-independent, so
/// folding a subset of centers yields the same per-center values as
/// folding the full list, at one region traversal instead of one per
/// disk.
void fold_max_dots(const grid::Grid& g, const grid::Region& base,
                   const grid::Window& win,
                   std::span<const mlat::DiskConstraint> disks,
                   std::span<const std::size_t> which,
                   std::vector<double>& dots) {
  std::vector<geo::Vec3> vecs;
  vecs.reserve(which.size());
  for (std::size_t i : which) vecs.push_back(geo::to_vec3(disks[i].center));
  dots.assign(which.size(), -2.0);
  const std::size_t begin = win.r0 * g.cols(), end = win.r1 * g.cols();
  base.for_each_set_in(begin, end, [&](std::size_t idx) {
    const geo::Vec3& c = g.center_vec(idx);
    for (std::size_t j = 0; j < vecs.size(); ++j) {
      const double d = vecs[j].dot(c);
      if (d > dots[j]) dots[j] = d;
    }
  });
}

}  // namespace

CbgPlusPlusGeolocator::CbgPlusPlusGeolocator(CbgPlusPlusOptions options)
    : options_(options) {}

GeoEstimate CbgPlusPlusGeolocator::solve(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    std::unique_ptr<LocatorMemo>* memo) const {
  AGEO_SPAN("algos", "cbg_pp.locate");
  AGEO_COUNT("algos.cbg_pp.locates");
  validate(store, observations);
  GeoEstimate est;
  grid::Scratch* scratch = &grid::Scratch::tls();
  // The memo resumes fused plan intersections, so it needs the cache
  // and subset semantics. A refined solve returns the flat regions bit
  // for bit, so it captures the same memo.
  const bool capture = memo != nullptr && plan_cache_ != nullptr &&
                       options_.use_subset_filter;
  if (capture) AGEO_COUNT("algos.cbg_pp.memo_captures");

  // Ladder provenance for the journal: both refined subset solves
  // record their levels in turn.
  const LadderRecorder ladder(refine_, g, mask);

  const std::size_t n = observations.size();
  std::vector<mlat::DiskConstraint> bestline, baseline;
  bestline.reserve(n);
  baseline.reserve(n);
  const calib::CbgModel physics = calib::cbg_baseline();
  for (const auto& ob : observations) {
    const auto& model = options_.use_slowline
                            ? store.cbg_slowline(ob.landmark_id)
                            : store.cbg(ob.landmark_id);
    bestline.push_back(
        {ob.landmark, model.max_distance_km(ob.one_way_delay_ms)});
    baseline.push_back(
        {ob.landmark, physics.max_distance_km(ob.one_way_delay_ms)});
  }

  const auto subset = [&](std::span<const mlat::DiskConstraint> disks,
                          grid::Region& region, std::vector<bool>& used) {
    return mlat::largest_consistent_subset_into(
        g, disks, mask, plan_cache_, scratch, region, used, refine_);
  };

  if (!options_.use_subset_filter) {
    est.region = mlat::intersect_disks(g, bestline, mask, plan_cache_,
                                       scratch, refine_);
    // Plain-CBG mode has no subset semantics: every constraint is
    // demanded, none is ever excluded.
    est.constraints_total = n;
    est.constraints_used = n;
    est.used.assign(n, true);
    est.prov.baseline_subset = n;
    ladder.stamp(est);
    return est;
  }

  // Stage 1: baseline region — largest consistent subset of the
  // physics-only disks. The region is a pooled temporary: it feeds the
  // stage-2 distance queries and escapes only as a memo copy.
  auto base_lease = grid::Scratch::region(scratch, g);
  grid::Region& base_region = base_lease.get();
  std::vector<bool> base_used;
  est.prov.baseline_subset = subset(baseline, base_region, base_used);

  // Stage 2: drop bestline disks that do not overlap the baseline region
  // (an empty baseline region filters nothing).
  const bool base_empty = base_region.empty();
  std::vector<double> dots;
  if (!base_empty) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    fold_max_dots(g, base_region, grid::full_window(g), bestline, all, dots);
  }
  std::vector<mlat::DiskConstraint> retained;
  std::vector<std::size_t> retained_idx;  // retained -> observation index
  retained.reserve(n);
  retained_idx.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& d = bestline[i];
    if (base_empty ||
        stage2_distance_km(g, base_region, d, dots[i]) <= d.max_km) {
      retained.push_back(d);
      retained_idx.push_back(i);
    } else {
      ++est.prov.discarded_by_baseline;
    }
  }

  // Stage 3: bestline region — largest consistent subset of the rest.
  // The subset engine takes any number of constraints (multi-word
  // coverage masks), so a full 250-anchor scan runs through it directly.
  est.region = grid::Region(g);
  std::vector<bool> best_used;
  est.constraints_used = subset(retained, est.region, best_used);
  // Byzantine diagnostics: a landmark participates iff its disk survived
  // the baseline filter AND joined the winning coalition; the margin is
  // therefore baseline discards plus subset exclusions.
  est.constraints_total = n;
  est.used.assign(n, false);
  for (std::size_t j = 0; j < retained_idx.size(); ++j)
    if (best_used[j]) est.used[retained_idx[j]] = true;
  ladder.stamp(est);

  if (!capture) return est;
  // Resumable only on the all-used fast path of both subset solves
  // (zero retained disks included): then each region is the plain
  // intersection of its disks, which locate_update can extend one disk
  // at a time. Otherwise the general coverage sweep ran — no resumable
  // shape.
  if (est.prov.baseline_subset != n ||
      est.constraints_used != retained.size()) {
    AGEO_COUNT("algos.cbg_pp.memo_fallbacks");
    return est;
  }
  auto m = std::make_unique<CbgMemo>();
  m->grid = &g;
  m->mask = mask;
  m->baseline = base_region;
  m->bestline = est.region;
  m->base_win = window_of(g, m->baseline);
  m->best_win = window_of(g, m->bestline);
  m->retained.assign(n, 0);
  for (std::size_t i : retained_idx) m->retained[i] = 1;
  m->n_retained = retained.size();
  m->discarded = est.prov.discarded_by_baseline;
  m->best_disks = std::move(bestline);
  *memo = std::move(m);
  return est;
}

bool CbgPlusPlusGeolocator::locate_update(
    LocatorMemo& memo_base, const grid::Grid& g,
    const calib::CalibrationStore& store,
    std::span<const Observation> observations, std::size_t n_prev,
    const grid::Region* mask, GeoEstimate& out) const {
  auto* memo = dynamic_cast<CbgMemo*>(&memo_base);
  if (memo == nullptr || plan_cache_ == nullptr ||
      !options_.use_subset_filter)
    return false;
  detail::require(&g == memo->grid && mask == memo->mask,
                  "CBG++ locate_update: grid or mask differs from the memo's");
  detail::require(n_prev == memo->best_disks.size(),
                  "CBG++ locate_update: memo does not match n_prev");
  detail::require(observations.size() > n_prev,
                  "CBG++ locate_update: no new observations");
  AGEO_COUNT("algos.cbg_pp.memo_updates");
  validate(store, observations);

  const std::size_t n = observations.size();
  const calib::CbgModel physics = calib::cbg_baseline();
  grid::Scratch* scratch = &grid::Scratch::tls();

  // Absorb every new baseline disk BEFORE any stage-2 verdict: the
  // scalar oracle judges retention against the FINAL baseline region,
  // so intermediate regions must never decide anything.
  const std::size_t count_before = count_in(g, memo->baseline, memo->base_win);
  for (std::size_t j = n_prev; j < n; ++j) {
    const Observation& ob = observations[j];
    const auto& model = options_.use_slowline
                            ? store.cbg_slowline(ob.landmark_id)
                            : store.cbg(ob.landmark_id);
    memo->best_disks.push_back(
        {ob.landmark, model.max_distance_km(ob.one_way_delay_ms)});
    const mlat::DiskConstraint base_disk{
        ob.landmark, physics.max_distance_km(ob.one_way_delay_ms)};
    if (!mlat::intersect_disk_into(g, base_disk, *plan_cache_,
                                   memo->baseline, memo->base_win, scratch)) {
      AGEO_COUNT("algos.cbg_pp.memo_fallbacks");
      return false;  // stage 1 left the fast path
    }
  }
  const bool base_changed =
      count_in(g, memo->baseline, memo->base_win) != count_before;

  // Stage-2 verdicts. A shrinking baseline region can only grow each
  // disk's distance, so previously-discarded disks stay discarded; a
  // previously-RETAINED disk dropping out changes the coalition (and
  // invalidates the cached bestline intersection) — full re-solve.
  // When the region did not change, previous verdicts stand verbatim
  // and only the new disks need judging.
  std::vector<std::size_t> recheck;
  if (base_changed)
    for (std::size_t j = 0; j < n_prev; ++j)
      if (memo->retained[j]) recheck.push_back(j);
  for (std::size_t j = n_prev; j < n; ++j) recheck.push_back(j);
  std::vector<double> dots;
  fold_max_dots(g, memo->baseline, memo->base_win, memo->best_disks, recheck,
                dots);
  memo->retained.resize(n, 0);
  std::vector<std::size_t> newly_retained;
  for (std::size_t k = 0; k < recheck.size(); ++k) {
    const std::size_t j = recheck[k];
    const auto& d = memo->best_disks[j];
    const bool keep =
        stage2_distance_km(g, memo->baseline, d, dots[k]) <= d.max_km;
    if (j < n_prev) {
      if (!keep) {
        AGEO_COUNT("algos.cbg_pp.memo_fallbacks");
        return false;  // coalition membership changed
      }
    } else if (keep) {
      memo->retained[j] = 1;
      ++memo->n_retained;
      newly_retained.push_back(j);
    } else {
      ++memo->discarded;
    }
  }

  // Stage 3: AND the newly-retained disks into the cached bestline
  // intersection (commuting per-cell predicates: the result equals
  // re-intersecting the full retained list from scratch).
  for (std::size_t j : newly_retained) {
    if (!mlat::intersect_disk_into(g, memo->best_disks[j], *plan_cache_,
                                   memo->bestline, memo->best_win, scratch) &&
        memo->n_retained > 0) {
      AGEO_COUNT("algos.cbg_pp.memo_fallbacks");
      return false;  // retained disks no longer mutually consistent
    }
  }

  out = GeoEstimate{};
  out.region = memo->bestline;
  out.constraints_total = n;
  out.constraints_used = memo->n_retained;
  out.used.assign(n, false);
  for (std::size_t j = 0; j < n; ++j)
    if (memo->retained[j]) out.used[j] = true;
  out.prov.baseline_subset = n;
  out.prov.discarded_by_baseline = memo->discarded;
  out.prov.incremental = true;
  return true;
}

}  // namespace ageo::algos
