#include "grid/cap_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "geo/units.hpp"
#include "grid/annulus_scan.hpp"
#include "grid/window.hpp"
#include "obs/obs.hpp"

namespace ageo::grid {

TableDomain::TableDomain(const Region& domain) : g_(domain.grid()) {
  ageo::detail::require(g_ != nullptr, "TableDomain: region has no grid");
  rank_.assign(g_->size(), kOffDomain);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < rank_.size(); ++i)
    if (domain.test(i)) rank_[i] = next++;
  cells_ = next;
}

CapScanPlan::CapScanPlan(const Grid& g, const geo::LatLon& center,
                         std::shared_ptr<const TableDomain> domain)
    : g_(&g), center_(center), v_(geo::to_vec3(center)),
      domain_(std::move(domain)) {
  ageo::detail::require(geo::is_valid(center), "CapScanPlan: invalid center");
  ageo::detail::require(!domain_ || &domain_->grid() == &g,
                        "CapScanPlan: table domain on a different grid");
  const double cell = g.cell_deg();
  const double lat0 = geo::deg_to_rad(center.lat_deg);
  const double sin0 = std::sin(lat0), cos0 = std::cos(lat0);
  row_p_.resize(g.rows());
  row_q_.resize(g.rows());
  for (std::size_t r = 0; r < g.rows(); ++r) {
    row_p_[r] = sin0 * g.row_sin(r);
    row_q_[r] = cos0 * g.row_cos(r);
  }
  const double t0 =
      (geo::wrap_longitude(center.lon_deg) + 180.0) / cell - 0.5;
  c_round_ = static_cast<long>(std::llround(t0));
  frac_ = t0 - static_cast<double>(c_round_);
  const long half = static_cast<long>(g.cols()) / 2;
  const double cell_rad = geo::deg_to_rad(cell);
  cos_right_.resize(static_cast<std::size_t>(half) + 1);
  cos_left_.resize(static_cast<std::size_t>(half) + 1);
  for (long j = 0; j <= half; ++j) {
    // cos is even and 2pi-periodic, so these are the true cosines of the
    // wrapped longitude offsets even past the antipode, and both arrays
    // are monotone nonincreasing in j (|j -/+ frac| grows with j).
    cos_right_[j] = std::cos((static_cast<double>(j) - frac_) * cell_rad);
    cos_left_[j] = std::cos((static_cast<double>(j) + frac_) * cell_rad);
  }
}

CapScanPlan::CapScanPlan(const Grid& g, const geo::LatLon& center, Transient)
    : CapScanPlan(g, center) {
  transient_ = true;
}

namespace {

/// Leading elements of a nonincreasing array that are >= u / > u.
long count_ge(const std::vector<double>& a, double u) {
  return std::upper_bound(a.begin(), a.end(), u, std::greater<double>()) -
         a.begin();
}
long count_gt(const std::vector<double>& a, double u) {
  return std::lower_bound(a.begin(), a.end(), u, std::greater<double>()) -
         a.begin();
}

}  // namespace

CapScanPlan::RowClass CapScanPlan::classify_row(const detail::AnnulusScan& s,
                                                std::size_t r,
                                                detail::RowZones& z) const {
  const long ncols = static_cast<long>(g_->cols());
  const double P = row_p_[r], Q = row_q_[r];
  if (Q < detail::kMinQ) return RowClass::kNaive;
  const double u_out_wide = (s.cos_outer - detail::kDotMargin - P) / Q;
  const long cand_r = count_ge(cos_right_, u_out_wide);
  if (cand_r == 0) return RowClass::kOutside;  // beyond the outer radius
  const long cand_l = count_ge(cos_left_, u_out_wide);

  z.cand_lo = -(cand_l - 1);
  z.cand_hi = cand_r - 1;
  if (z.cand_hi - z.cand_lo + 1 > ncols) {  // annulus wraps the whole row
    z.cand_lo = -(ncols / 2);
    z.cand_hi = z.cand_lo + ncols - 1;
  }
  const double u_out_safe = (s.cos_outer + detail::kDotMargin - P) / Q;
  const long fill_r = count_ge(cos_right_, u_out_safe);
  if (fill_r == 0) {
    z.fill_lo = detail::kEmptyLo;
    z.fill_hi = detail::kEmptyLo - 1;
  } else {
    z.fill_lo = std::max(z.cand_lo, -(count_ge(cos_left_, u_out_safe) - 1));
    z.fill_hi = std::min(z.cand_hi, fill_r - 1);
  }
  z.hole_lo = z.core_lo = detail::kEmptyLo;
  z.hole_hi = z.core_hi = detail::kEmptyLo - 1;
  if (s.inner_clamped != 0.0) {
    const double u_in_safe = (s.cos_inner - detail::kDotMargin - P) / Q;
    const long hole_r = count_gt(cos_right_, u_in_safe);
    if (hole_r > 0) {
      z.hole_lo = -(count_gt(cos_left_, u_in_safe) - 1);
      z.hole_hi = hole_r - 1;
      const double u_in_wide = (s.cos_inner + detail::kDotMargin - P) / Q;
      const long core_r = count_gt(cos_right_, u_in_wide);
      if (core_r > 0) {
        z.core_lo = -(count_gt(cos_left_, u_in_wide) - 1);
        z.core_hi = core_r - 1;
      }
    }
  }
  return RowClass::kZones;
}

template <typename RunF, typename FillF>
void CapScanPlan::for_each_run(const detail::AnnulusScan& s, RunF&& run,
                               FillF&& fill) const {
  const Grid& g = *g_;
  const long ncols = static_cast<long>(g.cols());
  detail::RowZones z;
  for (std::size_t r = s.r0; r < s.r1; ++r) {
    const std::size_t base = g.index(r, 0);
    switch (classify_row(s, r, z)) {
      case RowClass::kNaive:  // ill-conditioned window: test the whole row
        run(base, base + g.cols());
        continue;
      case RowClass::kOutside:
        continue;
      case RowClass::kZones:
        break;
    }
    // Offset runs to ascending global index spans (two across the
    // antimeridian).
    detail::emit_zone_runs(
        z,
        [&](long o_lo, long o_hi) {
          detail::for_col_spans(c_round_, o_lo, o_hi, ncols,
                                [&](long b0, long b1) {
                                  run(base + static_cast<std::size_t>(b0),
                                      base + static_cast<std::size_t>(b1));
                                });
        },
        [&](long o_lo, long o_hi) {
          detail::for_col_spans(c_round_, o_lo, o_hi, ncols,
                                [&](long b0, long b1) {
                                  fill(base + static_cast<std::size_t>(b0),
                                       base + static_cast<std::size_t>(b1));
                                });
        });
  }
}

void CapScanPlan::rasterize_annulus(double inner_km, double outer_km,
                                    Region& out) const {
  ageo::detail::require(out.grid() == g_, "CapScanPlan: region on a different grid");
  const detail::AnnulusScan s(*g_, center_, inner_km, outer_km);
  if (s.empty) return;
  const geo::Vec3* centers = &g_->center_vec(0);
  std::uint64_t* words = out.words().data();
  for_each_run(
      s,
      [&](std::size_t b, std::size_t e) {
        detail::annulus_fold<detail::AnnulusOp::kSet>(
            centers, b, e, s.v, s.cos_outer, s.cos_inner, words);
      },
      [&](std::size_t b, std::size_t e) { out.set_span(b, e); });
}

void CapScanPlan::accumulate_annulus(double inner_km, double outer_km,
                                     std::vector<std::uint64_t>& masks,
                                     unsigned bit) const {
  ageo::detail::require(masks.size() == g_->size(),
                  "CapScanPlan: mask size mismatch");
  accumulate_annulus(inner_km, outer_km, masks.data(), bit);
}

void CapScanPlan::accumulate_annulus(double inner_km, double outer_km,
                                     std::uint64_t* masks,
                                     unsigned bit) const {
  ageo::detail::require(bit < 64, "CapScanPlan: bit must be < 64");
  const detail::AnnulusScan s(*g_, center_, inner_km, outer_km);
  if (s.empty) return;
  const std::uint64_t m = 1ULL << bit;
  const geo::Vec3* centers = &g_->center_vec(0);
  for_each_run(
      s,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          if (detail::annulus_pass(centers[i], s.v, s.cos_outer, s.cos_inner))
            masks[i] |= m;
      },
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) masks[i] |= m;
      });
}

void CapScanPlan::intersect_annulus_into(double inner_km, double outer_km,
                                         Region& out,
                                         const Window& win) const {
  ageo::detail::require(out.grid() == g_,
                        "CapScanPlan: region on a different grid");
  const Grid& g = *g_;
  const long ncols = static_cast<long>(g.cols());
  const std::size_t cols = g.cols();
  const detail::AnnulusScan s(g, center_, inner_km, outer_km);
  if (s.empty) {  // nothing survives anywhere in the window
    out.clear_span(win.r0 * cols, win.r1 * cols);
    return;
  }
  const std::size_t lo = std::max(s.r0, win.r0);
  const std::size_t hi = std::min(s.r1, win.r1);
  // Window rows outside the latitude band cannot survive; rows outside
  // the window hold no set bits by the precondition and stay untouched.
  out.clear_span(win.r0 * cols, std::min(lo, win.r1) * cols);
  out.clear_span(std::max(hi, win.r0) * cols, win.r1 * cols);
  const auto in_annulus = [&](std::size_t idx) {
    double d = std::clamp(s.v.dot(g.center_vec(idx)), -1.0, 1.0);
    return d >= s.cos_outer && d <= s.cos_inner;
  };
  const geo::Vec3* centers = &g.center_vec(0);
  std::uint64_t* words = out.words().data();

  detail::RowZones z;
  for (std::size_t r = lo; r < hi; ++r) {
    const std::size_t base = g.index(r, 0);
    switch (classify_row(s, r, z)) {
      case RowClass::kNaive:
        // Only surviving cells need the exact test (AND with a zero bit
        // is a no-op either way).
        out.for_each_set_in(base, base + cols, [&](std::size_t idx) {
          if (!in_annulus(idx)) out.reset(idx);
        });
        continue;
      case RowClass::kOutside:
        out.clear_span(base, base + cols);
        continue;
      case RowClass::kZones:
        break;
    }
    // Columns outside the candidate range are guaranteed outside the
    // annulus: clear the complement of the (possibly wrapped) cand span.
    const long width = z.cand_hi - z.cand_lo + 1;
    if (width < ncols) {
      long c0 = (c_round_ + z.cand_lo) % ncols;
      if (c0 < 0) c0 += ncols;
      if (c0 + width <= ncols) {
        out.clear_span(base, base + static_cast<std::size_t>(c0));
        out.clear_span(base + static_cast<std::size_t>(c0 + width),
                       base + cols);
      } else {
        const long wrap = c0 + width - ncols;
        out.clear_span(base + static_cast<std::size_t>(wrap),
                       base + static_cast<std::size_t>(c0));
      }
    }
    // The core is guaranteed inside the inner exclusion; emit_zone_runs
    // skips it, so clear it here (clamped to cand — everything beyond
    // cand is already gone, and an unclamped core can span > ncols).
    const long core_lo = std::max(z.core_lo, z.cand_lo);
    const long core_hi = std::min(z.core_hi, z.cand_hi);
    if (core_lo <= core_hi) {
      detail::for_col_spans(c_round_, core_lo, core_hi, ncols,
                            [&](long b0, long b1) {
                              out.clear_span(base + static_cast<std::size_t>(b0),
                                             base + static_cast<std::size_t>(b1));
                            });
    }
    // Boundary runs AND pass bits into the surviving words (the fold
    // tests every run cell; a clear bit stays clear either way, so this
    // matches the old test-surviving-bits-only walk exactly).
    detail::emit_zone_runs(
        z,
        [&](long o_lo, long o_hi) {
          detail::for_col_spans(
              c_round_, o_lo, o_hi, ncols, [&](long b0, long b1) {
                detail::annulus_fold<detail::AnnulusOp::kIntersect>(
                    centers, base + static_cast<std::size_t>(b0),
                    base + static_cast<std::size_t>(b1), s.v, s.cos_outer,
                    s.cos_inner, words);
              });
        },
        // Guaranteed-inside fill spans: AND with 1 — leave untouched.
        [](long, long) {});
  }
}

const std::vector<double>& CapScanPlan::cell_distances_km() const {
  std::call_once(dist_once_, [this] {
    AGEO_SPAN("grid", "plan.distance_table");
    AGEO_COUNT("grid.plan_cache.distance_tables_built");
    AGEO_TIMED_US("grid.plan_cache.distance_table_us", 1.0, 1e6);
    // Exactly the reference multiply's expression, so serving distances
    // from this table cannot perturb a single bit of the posterior. A
    // domain table holds the domain's cells in ascending order, which is
    // the order their ranks count.
    const Grid& g = *g_;
    const std::uint32_t* rank = domain_ ? domain_->ranks() : nullptr;
    std::vector<double> table;
    table.reserve(domain_ ? domain_->cells() : g.size());
    for (std::size_t i = 0; i < g.size(); ++i)
      if (!rank || rank[i] != TableDomain::kOffDomain)
        table.push_back(geo::arc_distance_km(v_, g.center_vec(i)));
    dist_km_ = std::move(table);
    dist_bytes_.store(dist_km_.capacity() * sizeof(double),
                      std::memory_order_release);
  });
  return dist_km_;
}

CellDistances CapScanPlan::distances() const {
  if (transient_) return CellDistances(nullptr, nullptr, g_, v_);
  const double* table = cell_distances_km().data();
  return CellDistances(table, domain_ ? domain_->ranks() : nullptr, g_, v_);
}

// ---- CapPlanCache ----

CapPlanCache::CapPlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

CapPlanCache::CapPlanCache(std::size_t capacity, const Region& table_domain)
    : CapPlanCache(capacity) {
  domain_ = std::make_shared<const TableDomain>(table_domain);
}

std::size_t CapPlanCache::KeyHash::operator()(const Key& k) const noexcept {
  auto mix = [](std::size_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::size_t h = std::hash<const void*>{}(k.grid);
  h = mix(h, k.cell);
  h = mix(h, k.lat);
  h = mix(h, k.lon);
  return h;
}

std::shared_ptr<const CapScanPlan> CapPlanCache::plan(
    const Grid& g, const geo::LatLon& center) {
  const Key key{&g, std::bit_cast<std::uint64_t>(g.cell_deg()),
                std::bit_cast<std::uint64_t>(center.lat_deg),
                std::bit_cast<std::uint64_t>(center.lon_deg)};
  std::lock_guard lock(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    ++stats_.hits;
    AGEO_COUNT("grid.plan_cache.hits");
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  ++stats_.misses;
  AGEO_COUNT("grid.plan_cache.misses");
  // Building while holding the lock keeps concurrent lookups of the same
  // landmark from duplicating the (microseconds of) construction work.
  AGEO_TIMED_US("grid.plan_cache.build_us", 1.0, 1e6);
  auto built = std::make_shared<const CapScanPlan>(
      g, center, domain_ && &domain_->grid() == &g ? domain_ : nullptr);
  lru_.emplace_front(key, built);
  map_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    ++stats_.evictions;
    AGEO_COUNT("grid.plan_cache.evictions");
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return built;
}

std::shared_ptr<const CapScanPlan> detail::plan_for(
    CapPlanCache* cache, const Grid& g, const geo::LatLon& center) {
  if (!cache) {
    AGEO_COUNT("grid.plan.uncached_builds");
    return std::shared_ptr<const CapScanPlan>(
        new CapScanPlan(g, center, CapScanPlan::Transient{}));
  }
  return cache->plan(g, center);
}

CapPlanCache::Stats CapPlanCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t CapPlanCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::size_t CapPlanCache::table_bytes() const {
  std::lock_guard lock(mu_);
  std::size_t bytes = 0;
  for (const Entry& e : lru_) bytes += e.second->distance_table_bytes();
  return bytes;
}

}  // namespace ageo::grid
