#include "algos/cbg_pp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "grid/raster.hpp"
#include "grid/scratch.hpp"
#include "mlat/multilateration.hpp"
#include "mlat/refine.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"

namespace ageo::algos {

namespace {

/// Copy a solve's ladder trace into the estimate's provenance (journal
/// recording only — the trace is empty when the TLS hook was disarmed).
void fill_ladder(GeoEstimate& est, const mlat::RefineTrace& rtrace) {
  est.prov.ladder.reserve(rtrace.levels.size());
  for (const auto& l : rtrace.levels)
    est.prov.ladder.push_back({l.cell_deg, l.survivors});
}

/// Resumable solver state for the streaming service (locate_memo /
/// locate_update): the two stage regions plus every bestline disk and
/// its stage-2 verdict. Valid only while the solve stays on the
/// consistent fast path — both regions nonempty, coalition membership
/// monotone — which locate_update re-checks on every absorption.
struct CbgMemo final : LocatorMemo {
  grid::Region baseline;   ///< ∩ of all (padded) baseline disks ∩ mask
  grid::Region bestline;   ///< ∩ of retained (padded) bestline disks ∩ mask
  std::vector<mlat::DiskConstraint> best_disks;  ///< per observation
  std::vector<std::uint8_t> retained;            ///< stage-2 verdicts
  std::size_t n_retained = 0;
  std::size_t discarded = 0;
};

}  // namespace

CbgPlusPlusGeolocator::CbgPlusPlusGeolocator(CbgPlusPlusOptions options)
    : options_(options) {}

GeoEstimate CbgPlusPlusGeolocator::locate(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations,
    const grid::Region* mask) const {
  return locate_detailed(g, store, observations, mask).estimate;
}

CbgPlusPlusGeolocator::Detail CbgPlusPlusGeolocator::locate_detailed(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations,
    const grid::Region* mask) const {
  AGEO_SPAN("algos", "cbg_pp.locate");
  AGEO_COUNT("algos.cbg_pp.locates");
  validate(store, observations);
  Detail detail;
  grid::Scratch* scratch = &grid::Scratch::tls();
  // Coarse-to-fine driver, when configured for this grid and mask; the
  // refined solves are pinned bit-identical to the flat ones.
  const mlat::RefineContext* rc =
      refine_ && refine_->applies_to(g, mask) ? refine_ : nullptr;

  // Ladder provenance for the journal: per-level survivor counts,
  // recorded only while a journal is live (a disarmed hook is one TLS
  // load per level).
  mlat::RefineTrace rtrace;
  mlat::ScopedRefineTrace trace_guard(
      obs::journal_runtime_on() && rc ? &rtrace : nullptr);

  std::vector<mlat::DiskConstraint> bestline, baseline;
  bestline.reserve(observations.size());
  baseline.reserve(observations.size());
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

  if (!options_.use_subset_filter) {
    detail.estimate = GeoEstimate{
        rc ? mlat::refine_intersect_disks(*rc, bestline, mask, plan_cache_,
                                          scratch)
           : mlat::intersect_disks(g, bestline, mask, plan_cache_, scratch)};
    detail.bestline_subset_size = observations.size();
    detail.baseline_subset_size = observations.size();
    // Plain-CBG mode has no subset semantics: every constraint is
    // demanded, none is ever excluded.
    detail.estimate.constraints_total = observations.size();
    detail.estimate.constraints_used = observations.size();
    detail.estimate.used.assign(observations.size(), true);
    detail.estimate.prov.baseline_subset = observations.size();
    detail.estimate.prov.refined = rc != nullptr;
    fill_ladder(detail.estimate, rtrace);
    return detail;
  }

  // Stage 1: baseline region — largest consistent subset of the
  // physics-only disks. The region is a pooled temporary: it only feeds
  // the stage-2 distance queries and never escapes. Under refinement the
  // paired driver also walks the bestline ladder alongside the baseline
  // one (the disk lists share landmark centers, so each level's plans
  // are fetched once for both) and parks it for stage 3.
  auto base_lease = grid::Scratch::region(scratch, g);
  grid::Region& base_region = base_lease.ref();
  std::vector<bool> base_used;
  mlat::PairLadder pair;
  detail.baseline_subset_size =
      rc ? mlat::refine_pair_primary(*rc, baseline, bestline, mask,
                                     plan_cache_, scratch, base_region,
                                     base_used, pair)
         : mlat::largest_consistent_subset_into(
               g, baseline, mask, plan_cache_, scratch, base_region, base_used);

  // Stage 2: drop bestline disks that do not overlap the baseline region.
  // One pass over the region computes, per disk center, the same max-dot
  // fold Region::distance_from_km performs — max is order-independent,
  // so the distances (and the filter) are bit-identical to the per-disk
  // scans at one region traversal instead of one per disk.
  const bool base_empty = base_region.empty();
  std::vector<geo::Vec3> disk_vecs;
  std::vector<double> disk_dots;
  if (!base_empty) {
    disk_vecs.reserve(bestline.size());
    for (const auto& d : bestline) disk_vecs.push_back(geo::to_vec3(d.center));
    disk_dots.assign(bestline.size(), -2.0);
    base_region.for_each_cell([&](std::size_t idx) {
      const geo::Vec3& c = g.center_vec(idx);
      for (std::size_t j = 0; j < disk_vecs.size(); ++j) {
        const double d = disk_vecs[j].dot(c);
        if (d > disk_dots[j]) disk_dots[j] = d;
      }
    });
  }
  std::vector<mlat::DiskConstraint> retained;
  std::vector<std::size_t> retained_idx;  // retained -> observation index
  retained.reserve(bestline.size());
  retained_idx.reserve(bestline.size());
  for (std::size_t i = 0; i < bestline.size(); ++i) {
    const auto& d = bestline[i];
    double dist_km = 0.0;
    if (!base_empty && !base_region.test(g.cell_at(d.center))) {
      const double b = std::min(1.0, std::max(-1.0, disk_dots[i]));
      dist_km = geo::kEarthRadiusKm * std::acos(b);
    }
    if (base_empty || dist_km <= d.max_km) {
      retained.push_back(d);
      retained_idx.push_back(i);
    } else {
      ++detail.disks_discarded_by_baseline;
    }
  }

  // Stage 3: bestline region — largest consistent subset of the rest.
  // The subset engine now takes any number of constraints (multi-word
  // coverage masks), so a full 250-anchor scan runs through it directly —
  // no tightest-64 truncation, no lossy fold of the loose tail.
  // When the baseline filter discarded nothing, `retained` is exactly
  // the bestline list the paired driver already laddered — reuse parks
  // the whole coarse recompute. Any discard invalidates the parked
  // ladder (different constraint set), so those solves run fresh.
  mlat::SubsetResult bestr{grid::Region(g), {}, 0};
  bestr.n_used =
      rc ? (retained.size() == bestline.size()
                ? mlat::refine_pair_secondary(*rc, pair, retained, mask,
                                              plan_cache_, scratch,
                                              bestr.region, bestr.used)
                : mlat::refine_largest_consistent_subset_into(
                      *rc, retained, mask, plan_cache_, scratch, bestr.region,
                      bestr.used))
         : mlat::largest_consistent_subset_into(g, retained, mask, plan_cache_,
                                                scratch, bestr.region,
                                                bestr.used);
  detail.bestline_subset_size = bestr.n_used;
  detail.estimate = GeoEstimate{std::move(bestr.region)};
  // Byzantine diagnostics: a landmark participates iff its disk survived
  // the baseline filter AND joined the winning coalition; the margin is
  // therefore baseline discards plus subset exclusions.
  detail.estimate.constraints_total = observations.size();
  detail.estimate.constraints_used = bestr.n_used;
  detail.estimate.used.assign(observations.size(), false);
  for (std::size_t j = 0; j < retained_idx.size(); ++j)
    if (bestr.used[j]) detail.estimate.used[retained_idx[j]] = true;
  detail.estimate.prov.baseline_subset = detail.baseline_subset_size;
  detail.estimate.prov.discarded_by_baseline =
      detail.disks_discarded_by_baseline;
  detail.estimate.prov.refined = rc != nullptr;
  fill_ladder(detail.estimate, rtrace);
  return detail;
}

namespace {

/// Stage-2 distance of one bestline disk from the baseline region,
/// given the max center-dot folded over the region's cells — exactly
/// the arithmetic of the scalar stage-2 pass, so the retention verdicts
/// derived from it are bit-identical to its.
double stage2_distance_km(const grid::Grid& g, const grid::Region& base,
                          const mlat::DiskConstraint& d, double max_dot) {
  if (base.test(g.cell_at(d.center))) return 0.0;
  const double b = std::min(1.0, std::max(-1.0, max_dot));
  return geo::kEarthRadiusKm * std::acos(b);
}

/// One region pass folding, for each listed observation index, the max
/// dot of that disk's center against the region's cell centers. The max
/// is order-independent, so folding a subset of centers yields the same
/// per-center values as the full-list folds elsewhere.
void fold_max_dots(const grid::Grid& g, const grid::Region& base,
                   std::span<const mlat::DiskConstraint> disks,
                   std::span<const std::size_t> which,
                   std::vector<double>& dots) {
  std::vector<geo::Vec3> vecs;
  vecs.reserve(which.size());
  for (std::size_t i : which) vecs.push_back(geo::to_vec3(disks[i].center));
  dots.assign(which.size(), -2.0);
  base.for_each_cell([&](std::size_t idx) {
    const geo::Vec3& c = g.center_vec(idx);
    for (std::size_t j = 0; j < vecs.size(); ++j) {
      const double d = vecs[j].dot(c);
      if (d > dots[j]) dots[j] = d;
    }
  });
}

}  // namespace

std::unique_ptr<LocatorMemo> CbgPlusPlusGeolocator::locate_memo(
    const grid::Grid& g, const calib::CalibrationStore& store,
    std::span<const Observation> observations, const grid::Region* mask,
    GeoEstimate& out) const {
  // The memo caches fused plan intersections, so it needs the cache,
  // subset semantics, and flat solves. Everything else answers through the plain scalar path.
  const bool refined = refine_ && refine_->applies_to(g, mask);
  if (plan_cache_ == nullptr || !options_.use_subset_filter || refined) {
    out = locate(g, store, observations, mask);
    return nullptr;
  }
  AGEO_COUNT("algos.cbg_pp.memo_captures");
  validate(store, observations);
  if (mask)
    detail::require(mask->grid() == &g,
                    "CBG++ locate_memo: mask grid mismatch");

  const double pad = mlat::conservative_pad_km(g);
  const calib::CbgModel physics = calib::cbg_baseline();
  auto memo = std::make_unique<CbgMemo>();
  memo->best_disks.reserve(observations.size());
  std::vector<mlat::DiskConstraint> baseline;
  baseline.reserve(observations.size());
  for (const auto& ob : observations) {
    const auto& model = options_.use_slowline
                            ? store.cbg_slowline(ob.landmark_id)
                            : store.cbg(ob.landmark_id);
    memo->best_disks.push_back(
        {ob.landmark, model.max_distance_km(ob.one_way_delay_ms)});
    baseline.push_back(
        {ob.landmark, physics.max_distance_km(ob.one_way_delay_ms)});
  }

  // Stage 1, intersect-first: a nonempty global intersection is exactly
  // the scalar LCS fast path (every baseline disk in the coalition). An
  // empty one means the scalar solve runs the general coverage sweep —
  // no resumable shape, answer via locate().
  memo->baseline = grid::Region(g);
  if (mask)
    memo->baseline = *mask;
  else
    memo->baseline.fill();
  for (const auto& d : baseline) {
    plan_cache_->plan(g, d.center)
        ->intersect_annulus_into(0.0, d.max_km + pad, memo->baseline);
    if (memo->baseline.empty()) break;
  }
  if (memo->baseline.empty()) {
    AGEO_COUNT("algos.cbg_pp.memo_fallbacks");
    out = locate(g, store, observations, mask);
    return nullptr;
  }

  // Stage 2: retention verdicts against the baseline region.
  std::vector<std::size_t> all(observations.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<double> dots;
  fold_max_dots(g, memo->baseline, memo->best_disks, all, dots);
  memo->retained.assign(observations.size(), 0);
  for (std::size_t j = 0; j < observations.size(); ++j) {
    const auto& d = memo->best_disks[j];
    if (stage2_distance_km(g, memo->baseline, d, dots[j]) <= d.max_km) {
      memo->retained[j] = 1;
      ++memo->n_retained;
    } else {
      ++memo->discarded;
    }
  }

  // Stage 3, intersect-first over the retained disks. Zero retained
  // disks leave the region at the clipped mask — the LCS of an empty
  // constraint list.
  memo->bestline = grid::Region(g);
  if (mask)
    memo->bestline = *mask;
  else
    memo->bestline.fill();
  for (std::size_t j = 0; j < memo->best_disks.size(); ++j) {
    if (!memo->retained[j]) continue;
    const auto& d = memo->best_disks[j];
    plan_cache_->plan(g, d.center)
        ->intersect_annulus_into(0.0, d.max_km + pad, memo->bestline);
    if (memo->bestline.empty()) break;
  }
  if (memo->n_retained > 0 && memo->bestline.empty()) {
    AGEO_COUNT("algos.cbg_pp.memo_fallbacks");
    out = locate(g, store, observations, mask);
    return nullptr;
  }

  out = GeoEstimate{};
  out.region = memo->bestline;
  out.constraints_total = observations.size();
  out.constraints_used = memo->n_retained;
  out.used.assign(observations.size(), false);
  for (std::size_t j = 0; j < observations.size(); ++j)
    if (memo->retained[j]) out.used[j] = true;
  out.prov.baseline_subset = observations.size();
  out.prov.discarded_by_baseline = memo->discarded;
  return memo;
}

bool CbgPlusPlusGeolocator::locate_update(
    LocatorMemo& memo_base, const grid::Grid& g,
    const calib::CalibrationStore& store,
    std::span<const Observation> observations, std::size_t n_prev,
    const grid::Region* mask, GeoEstimate& out) const {
  auto* memo = dynamic_cast<CbgMemo*>(&memo_base);
  const bool refined = refine_ && refine_->applies_to(g, mask);
  if (memo == nullptr || plan_cache_ == nullptr ||
      !options_.use_subset_filter || refined)
    return false;
  detail::require(n_prev == memo->best_disks.size(),
                  "CBG++ locate_update: memo does not match n_prev");
  detail::require(observations.size() > n_prev,
                  "CBG++ locate_update: no new observations");
  AGEO_COUNT("algos.cbg_pp.memo_updates");
  validate(store, observations);

  const std::size_t n = observations.size();
  const calib::CbgModel physics = calib::cbg_baseline();

  // Absorb every new baseline disk BEFORE any stage-2 verdict: the
  // scalar oracle judges retention against the FINAL baseline region,
  // so intermediate regions must never decide anything.
  const std::uint64_t count_before = memo->baseline.count();
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
                                   memo->baseline)) {
      AGEO_COUNT("algos.cbg_pp.memo_fallbacks");
      return false;  // stage 1 left the fast path
    }
  }
  const bool base_changed = memo->baseline.count() != count_before;

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
  fold_max_dots(g, memo->baseline, memo->best_disks, recheck, dots);
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
                                   memo->bestline) &&
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
