// Internal machinery of the pruned annulus scanner.
//
// CapScanPlan (cap_cache.cpp) is the one pruned scanner; callers without
// a plan cache build a transient plan. It reduces one grid row to four
// concentric zones around the column nearest the annulus center,
// measured as integer column offsets:
//
//   |offset|  <  core : guaranteed inside the inner exclusion — skipped
//   ...      in hole  : near the inner boundary — tested cell by cell
//   ...      in fill  : guaranteed inside the annulus — set via word fills
//   ...      in cand  : near the outer boundary — tested cell by cell
//   |offset| out cand : guaranteed outside — never visited
//
// "Guaranteed" is backed by a safety margin of kDotMargin in dot-product
// space plus one cell of slack in column space, both of which dwarf every
// floating-point error in the zone computation; tested cells evaluate the
// exact same clamped-dot expression as the naive scan (raster.cpp's
// grid::reference), so the pruned scan is bit-for-bit identical to it
// (pinned by raster_equivalence_test).
//
// Boundary-band cells are tested in contiguous runs by annulus_fold,
// which folds the pass bits straight into a Region's words. It has two
// implementations, a scalar loop and an AVX2 loop that performs the same
// floating-point operations in the same order; one cached CPUID check
// picks between them.
#pragma once

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <tuple>

#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "grid/grid.hpp"

namespace ageo::grid::detail {

/// Shared setup of an annulus scan: distance bounds converted to
/// dot-product bounds, plus the latitude band the annulus can touch.
/// d <= r  <=>  angle <= r/R  <=>  dot >= cos(r/R), for r/R in [0, pi].
/// The naive reference scan and the plan scanner both build thresholds
/// from this one struct so their pass/fail tests are the same expressions.
struct AnnulusScan {
  bool empty = true;
  std::size_t r0 = 0, r1 = 0;
  geo::Vec3 v;
  double cos_outer = 1.0, cos_inner = 1.0;
  double inner_clamped = 0.0;

  AnnulusScan(const Grid& g, const geo::LatLon& center, double inner_km,
              double outer_km) {
    if (outer_km < 0 || outer_km < inner_km) return;
    empty = false;
    const double outer_capped =
        std::min(outer_km, geo::kEarthRadiusKm * std::numbers::pi);
    const double dlat = geo::rad_to_deg(outer_capped / geo::kEarthRadiusKm);
    // Half a cell of slack so cell centers right at the band edge are kept.
    std::tie(r0, r1) = g.rows_in_lat_band(center.lat_deg - dlat - g.cell_deg(),
                                          center.lat_deg + dlat + g.cell_deg());
    v = geo::to_vec3(center);
    cos_outer = std::cos(outer_capped / geo::kEarthRadiusKm);
    inner_clamped =
        std::clamp(inner_km, 0.0, geo::kEarthRadiusKm * std::numbers::pi);
    cos_inner = std::cos(inner_clamped / geo::kEarthRadiusKm);
  }
};

/// Safety margin in dot-product space between "guaranteed" zone boundaries
/// and the exact thresholds. Rounding differences between the analytic
/// per-row expression P + Q*cos(dlon) and the naive dot product are a few
/// ulps (~1e-15); 1e-9 leaves six orders of magnitude of headroom.
inline constexpr double kDotMargin = 1e-9;

/// Rows where Q = cos(center_lat)*cos(row_lat) falls below this fall back
/// to the naive per-cell scan: dividing by a tiny Q makes the longitude
/// window ill-conditioned. Only hits polar rows and pole-centered caps,
/// both of which are short or rare.
inline constexpr double kMinQ = 1e-3;

/// Sentinel start for an empty interval: lo > hi for every reachable
/// offset, and `lo - 1` cannot overflow.
inline constexpr long kEmptyLo = LONG_MAX / 2;

/// One row's zones, as inclusive ranges of column offsets relative to the
/// column nearest the annulus center. Empty ranges have lo > hi.
struct RowZones {
  long cand_lo, cand_hi;  ///< candidates; width <= cols, everything else fails
  long fill_lo, fill_hi;  ///< guaranteed pass (modulo the hole)
  long hole_lo, hole_hi;  ///< inner-boundary band inside fill; re-test
  long core_lo, core_hi;  ///< guaranteed fail inside the hole; skip
};

/// Walk one row's zones in ascending offset order: every maximal run of
/// guaranteed-pass offsets goes to `fill(o_lo, o_hi)`, and every maximal
/// inclusive run of boundary-band offsets (cells that need the exact
/// test) to `run(o_lo, o_hi)` — the shape annulus_fold consumes. The core
/// and everything outside cand are never visited.
template <typename RunO, typename FillO>
inline void emit_zone_runs(const RowZones& z, RunO&& run, FillO&& fill) {
  long run_lo = kEmptyLo;
  long run_hi = kEmptyLo - 1;
  auto flush = [&] {
    if (run_lo <= run_hi) run(run_lo, run_hi);
    run_lo = kEmptyLo;
    run_hi = kEmptyLo - 1;
  };
  for (long o = z.cand_lo; o <= z.cand_hi;) {
    if (o >= z.core_lo && o <= z.core_hi) {
      flush();
      o = z.core_hi + 1;
      continue;
    }
    const bool in_hole = o >= z.hole_lo && o <= z.hole_hi;
    if (!in_hole && o >= z.fill_lo && o <= z.fill_hi) {
      flush();
      long end = z.fill_hi;
      if (o < z.hole_lo) end = std::min(end, z.hole_lo - 1);
      fill(o, end);
      o = end + 1;
      continue;
    }
    if (run_hi + 1 == o) {
      run_hi = o;
    } else {
      flush();
      run_lo = run_hi = o;
    }
    ++o;
  }
  flush();
}

/// Map an inclusive offset run to at most two ascending half-open column
/// ranges [begin, end) — two when the run crosses the antimeridian.
template <typename SpanF>
inline void for_col_spans(long c_round, long o_lo, long o_hi, long ncols,
                          SpanF&& fn) {
  long c0 = (c_round + o_lo) % ncols;
  if (c0 < 0) c0 += ncols;
  const long len = o_hi - o_lo + 1;
  if (c0 + len <= ncols) {
    fn(c0, c0 + len);
  } else {
    fn(c0, ncols);
    fn(long{0}, c0 + len - ncols);
  }
}

// ---- boundary-run dot tests ---------------------------------------------

/// The exact per-cell membership test: clamp the dot product of unit
/// vectors (guards the acos domain at the callers that derive cos bounds)
/// and compare against the closed [cos_outer, cos_inner] band.
inline bool annulus_pass(const geo::Vec3& c, const geo::Vec3& v,
                         double cos_outer, double cos_inner) noexcept {
  double d = v.dot(c);
  if (d > 1.0) d = 1.0;
  if (d < -1.0) d = -1.0;
  return d >= cos_outer && d <= cos_inner;
}

/// Pass bits (at positions idx & 63) for cells [lo, hi) within one
/// 64-cell word.
inline std::uint64_t annulus_pass_bits(const geo::Vec3* centers,
                                       std::size_t lo, std::size_t hi,
                                       const geo::Vec3& v, double cos_outer,
                                       double cos_inner) noexcept {
  std::uint64_t pass = 0;
  for (std::size_t idx = lo; idx < hi; ++idx) {
    pass |= static_cast<std::uint64_t>(
                annulus_pass(centers[idx], v, cos_outer, cos_inner))
            << (idx & 63);
  }
  return pass;
}

/// Bit mask for positions [lo, hi) of a 64-bit word (lo < hi <= 64).
inline std::uint64_t word_run_mask(unsigned lo, unsigned hi) noexcept {
  const std::uint64_t upper = (hi == 64) ? ~0ull : ((1ull << hi) - 1ull);
  return upper & ~((1ull << lo) - 1ull);
}

/// How a run's pass bits combine with the region word:
///   set:       bit |= pass
///   intersect: bit &= pass   (bits outside the run untouched)
enum class AnnulusOp { kSet, kIntersect };

/// Fold one word's pass bits into the region word. `rm` masks the
/// positions actually covered by the run; pass bits are zero outside it
/// by construction, so only intersect needs the mask explicitly.
template <AnnulusOp Op>
inline void fold_word(std::uint64_t& w, std::uint64_t pass,
                      std::uint64_t rm) noexcept {
  if constexpr (Op == AnnulusOp::kSet) {
    w |= pass;
  } else {
    w &= pass | ~rm;
  }
}

/// Test cells [begin, end) (contiguous global indices) against the band
/// and fold the pass bits into `words` by Op, one word at a time.
template <AnnulusOp Op>
inline void annulus_fold_scalar(const geo::Vec3* centers, std::size_t begin,
                                std::size_t end, const geo::Vec3& v,
                                double cos_outer, double cos_inner,
                                std::uint64_t* words) noexcept {
  if (begin >= end) return;
  for (std::size_t wi = begin >> 6; wi <= (end - 1) >> 6; ++wi) {
    const std::size_t lo = std::max(begin, wi << 6);
    const std::size_t hi = std::min(end, (wi << 6) + 64);
    const std::uint64_t pass =
        annulus_pass_bits(centers, lo, hi, v, cos_outer, cos_inner);
    fold_word<Op>(words[wi], pass,
                  word_run_mask(static_cast<unsigned>(lo - (wi << 6)),
                                static_cast<unsigned>(hi - (wi << 6))));
  }
}

/// The same fold four cells at a time (annulus_avx2.cpp, the only file
/// built with -mavx2). Bit-for-bit equal to annulus_fold_scalar; call it
/// only when cpu_has_avx2().
template <AnnulusOp Op>
void annulus_fold_avx2(const geo::Vec3* centers, std::size_t begin,
                       std::size_t end, const geo::Vec3& v, double cos_outer,
                       double cos_inner, std::uint64_t* words) noexcept;

/// True when the running CPU supports AVX2 (always false off x86-64).
/// Resolved once per process.
inline bool cpu_has_avx2() noexcept {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

/// The fold every boundary run of CapScanPlan's rasterize and intersect
/// kernels goes through (cap_cache.cpp is its one caller): the AVX2 loop
/// when the CPU has it, the scalar loop otherwise.
template <AnnulusOp Op>
inline void annulus_fold(const geo::Vec3* centers, std::size_t begin,
                         std::size_t end, const geo::Vec3& v,
                         double cos_outer, double cos_inner,
                         std::uint64_t* words) noexcept {
  if (cpu_has_avx2()) {
    annulus_fold_avx2<Op>(centers, begin, end, v, cos_outer, cos_inner, words);
  } else {
    annulus_fold_scalar<Op>(centers, begin, end, v, cos_outer, cos_inner,
                            words);
  }
}

}  // namespace ageo::grid::detail
