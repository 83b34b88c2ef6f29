// Per-landmark rasterization plans.
//
// The audit rasterizes disks around the same few hundred landmarks once
// per proxy, at radii that change with every measurement. A CapScanPlan
// front-loads all the trigonometry that depends only on (grid, center):
// per-row dot-product components P = sin(lat0)sin(lat_r) and
// Q = cos(lat0)cos(lat_r) (products of the grid's cached row sines and
// cosines), and the cosine of the longitude offset of every column
// relative to the center. Rasterizing at a given radius is then
// threshold comparisons and binary searches over those cached cosines —
// no trig at all — and stays bit-for-bit identical to the naive per-cell
// scan the tests keep as their oracle (pinned by
// raster_equivalence_test). A plan is also the one way a Gaussian ring
// reads its per-cell distances (CapScanPlan::distances, used by
// Field's ring multiply).
//
// It is the only pruned annulus scanner: callers without a cache (the
// raster.hpp wrappers, Field's center overload, uncached mlat solves)
// get a transient plan from detail::plan_for and call the same methods.
// A transient plan keeps no distance table: its distances() evaluates
// every cell on the spot with the table's own expression.
//
// CapPlanCache is a small thread-safe LRU of plans keyed by
// (grid, center), sized for one audit's landmark set; an Auditor owns one
// for its lifetime and shares it across its worker threads. A cache may
// carry a table domain (the Auditor passes its plausibility mask): plans
// on that grid then keep distances only for the domain's cells.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/geodesy.hpp"
#include "grid/annulus_scan.hpp"
#include "grid/region.hpp"

namespace ageo::grid {

struct Window;
class CapScanPlan;
class CapPlanCache;

namespace detail {

/// The plan for annuli centered at `center` on `g`: `cache`'s when there
/// is one, otherwise a transient plan built for this caller alone and
/// counted by the deterministic `grid.plan.uncached_builds` counter (the
/// audit always passes its cache, so that counter stays 0 there). A
/// transient plan keeps no distance table (see CapScanPlan::distances).
std::shared_ptr<const CapScanPlan> plan_for(CapPlanCache* cache,
                                            const Grid& g,
                                            const geo::LatLon& center);

}  // namespace detail

/// The cells a distance table covers: one Region's cells on one grid,
/// ranked in ascending cell order. Immutable after construction and
/// shared by every plan a CapPlanCache builds on that grid.
class TableDomain {
 public:
  /// rank(i) of a cell outside the domain.
  static constexpr std::uint32_t kOffDomain = 0xffffffffu;

  explicit TableDomain(const Region& domain);

  const Grid& grid() const noexcept { return *g_; }
  /// Number of domain cells (the length of a domain table).
  std::size_t cells() const noexcept { return cells_; }
  /// Per grid cell: its position among the domain cells, or kOffDomain.
  const std::uint32_t* ranks() const noexcept { return rank_.data(); }
  /// Bytes held by the rank map.
  std::size_t bytes() const noexcept {
    return rank_.capacity() * sizeof(std::uint32_t);
  }

 private:
  const Grid* g_;
  std::size_t cells_ = 0;
  std::vector<std::uint32_t> rank_;
};

/// Distance lookup over one plan's table: operator()(i) is the
/// great-circle distance (km) from the plan's center to cell i, by the
/// exact geo::arc_distance_km expression the reference ring multiply
/// uses. A cell the table covers is served from it; any other cell (off
/// a domain table's domain, or every cell of a transient plan, which has
/// no table) is evaluated on the spot with that same expression, so the
/// value is bit-identical either way.
class CellDistances {
 public:
  double operator()(std::size_t i) const noexcept {
    if (rank_ != nullptr) {
      const std::uint32_t r = rank_[i];
      if (r != TableDomain::kOffDomain) return table_[r];
    } else if (table_ != nullptr) {
      return table_[i];
    }
    return geo::arc_distance_km(v_, g_->center_vec(i));
  }

 private:
  friend class CapScanPlan;
  CellDistances(const double* table, const std::uint32_t* rank,
                const Grid* g, const geo::Vec3& v) noexcept
      : table_(table), rank_(rank), g_(g), v_(v) {}

  const double* table_;        ///< null for a transient plan
  const std::uint32_t* rank_;  ///< null unless a domain table
  const Grid* g_;
  geo::Vec3 v_;
};

/// Precomputed scan geometry for annuli centered at one point on one
/// grid. Immutable after construction; safe to share across threads.
class CapScanPlan {
 public:
  /// With a `domain` (which must be on `g`), the distance table covers
  /// only the domain's cells; without one, every cell of `g`.
  CapScanPlan(const Grid& g, const geo::LatLon& center,
              std::shared_ptr<const TableDomain> domain = nullptr);

  const Grid& grid() const noexcept { return *g_; }
  const geo::LatLon& center() const noexcept { return center_; }

  /// Set every cell within [inner_km, outer_km] of the center into `out`
  /// (bitwise-or). Bit-identical to the naive per-cell scan on the same
  /// annulus. `out` must be attached to this plan's grid.
  void rasterize_annulus(double inner_km, double outer_km, Region& out) const;

  /// Add to `masks` (by bitwise-or) bit `bit` (< 64) of every cell within
  /// [inner_km, outer_km] of the center; `masks` has grid().size()
  /// entries. The same cells rasterize_annulus sets.
  void accumulate_annulus(double inner_km, double outer_km,
                          std::vector<std::uint64_t>& masks,
                          unsigned bit) const;

  /// Same, into a raw per-cell mask plane of at least grid().size()
  /// words (the multi-plane coverage layout of the >64-constraint LCS
  /// solver; mlat::largest_consistent_subset).
  void accumulate_annulus(double inner_km, double outer_km,
                          std::uint64_t* masks, unsigned bit) const;

  /// Fused intersect: out &= { cells within [inner_km, outer_km] } over
  /// `win`'s row range, without materialising the annulus. Window rows
  /// outside the latitude band and row segments the zone analysis proves
  /// outside the annulus are cleared with whole-word stores; boundary
  /// cells are re-tested with the exact clamped-dot expression only
  /// where `out` still has a bit set; guaranteed-inside fills are left
  /// untouched (AND with 1). Precondition: `out` has no set bit outside
  /// the window (a full_window(g) call has none), so the rows the clipped
  /// scan never visits are already zero. Bit-identical to `out &= tmp`
  /// after rasterize_annulus into an empty tmp — the per-cell membership
  /// values are computed by the same expressions, only the order of the
  /// AND changes. This is the one plan intersect kernel: the mlat solves
  /// run it inside a refine ladder's window or over the full grid.
  void intersect_annulus_into(double inner_km, double outer_km, Region& out,
                              const Window& win) const;

  /// Great-circle distance (km) from the plan's center to each table
  /// cell, by the exact geo::arc_distance_km expression Field's reference
  /// ring multiply uses — plan-served multiplies are therefore
  /// bit-identical to it while doing no trig per table cell. Without a
  /// domain the table is indexed by grid cell; with one it holds the
  /// domain's cells in ascending order (index them through distances()).
  /// Built lazily on first use and kept for the plan's lifetime: 8 bytes
  /// per table cell. Without a domain that is ~0.5 MB on a 1-degree grid
  /// and ~8.3 MB at 0.25 degrees; the audit's plausibility mask keeps
  /// about a third of the cells, so its domain tables are ~165 KB at 1
  /// degree. Only the probability-field path pays for it; pure
  /// rasterization users never trigger the build. Thread-safe
  /// (call_once).
  const std::vector<double>& cell_distances_km() const;

  /// Per-cell distance lookup, indexed by grid cell whether or not the
  /// plan has a domain. It reads cell_distances_km() (built here if it
  /// is not yet), except on a transient plan from detail::plan_for,
  /// which never builds a table: its lookup evaluates every cell on the
  /// spot with the table's expression, so uncached callers do the same
  /// trig a table build would, without the table.
  CellDistances distances() const;

  /// Bytes held by the distance table: 0 until it is built.
  std::size_t distance_table_bytes() const noexcept {
    return dist_bytes_.load(std::memory_order_acquire);
  }

 private:
  friend std::shared_ptr<const CapScanPlan> detail::plan_for(
      CapPlanCache*, const Grid&, const geo::LatLon&);
  struct Transient {};
  /// A plan whose distances() keeps no table (detail::plan_for only).
  CapScanPlan(const Grid& g, const geo::LatLon& center, Transient);

  /// How one grid row relates to an annulus being scanned.
  enum class RowClass {
    kOutside,  ///< entirely beyond the outer radius — no cell can pass
    kNaive,    ///< ill-conditioned longitude window — test every cell
    kZones,    ///< zone ranges in `z` are valid
  };
  /// Zone analysis shared by every kernel: classify row `r` against `s`
  /// and, for kZones, fill `z` with the cand/fill/hole/core offset
  /// ranges. Identical arithmetic on every path keeps the fused intersect
  /// and the mask accumulator bit-compatible with rasterize_annulus.
  RowClass classify_row(const detail::AnnulusScan& s, std::size_t r,
                        detail::RowZones& z) const;

  /// The zone walk of rasterize_annulus and accumulate_annulus over
  /// `s`'s latitude band, in ascending cell order: each boundary run
  /// (including a whole ill-conditioned row) goes to `run(begin, end)`
  /// for the exact per-cell test, each guaranteed-inside span to
  /// `fill(begin, end)`; both are half-open global cell-index ranges.
  template <typename RunF, typename FillF>
  void for_each_run(const detail::AnnulusScan& s, RunF&& run,
                    FillF&& fill) const;

  const Grid* g_;
  geo::LatLon center_;
  geo::Vec3 v_;
  long c_round_ = 0;   ///< column index nearest the center longitude
  double frac_ = 0.0;  ///< center's sub-column offset, in [-0.5, 0.5]
  std::vector<double> row_p_, row_q_;  ///< per row: P, Q of d = P + Q cos
  /// cos of the longitude offset at integer column offsets to the right
  /// (o = +j) and left (o = -j) of c_round_; both monotone nonincreasing,
  /// which is what turns a radius query into two binary searches.
  std::vector<double> cos_right_, cos_left_;
  std::shared_ptr<const TableDomain> domain_;
  bool transient_ = false;  ///< distances() evaluates every cell
  /// Lazily-built distance table (cell_distances_km).
  mutable std::once_flag dist_once_;
  mutable std::vector<double> dist_km_;
  mutable std::atomic<std::size_t> dist_bytes_{0};
};

/// Thread-safe LRU cache of CapScanPlans keyed by (grid, center).
class CapPlanCache {
 public:
  /// `capacity` bounds resident plans; at the audit's default 1-degree
  /// grid a plan is ~7 KB, so the default is ~4 MB worst case. A plan's
  /// lazy distance table (built on the Spotter path) adds 8 bytes per
  /// table cell (see CapScanPlan::cell_distances_km), and an
  /// evicted+refetched plan must rebuild it — size the cache to the
  /// landmark count when auditing with Spotter (the Auditor always
  /// sizes it to landmarks x grids, min 512).
  explicit CapPlanCache(std::size_t capacity = 512);

  /// Same, with a table domain: plans on `table_domain`'s grid build
  /// their distance tables over its cells only, sharing one rank map
  /// (4 bytes per grid cell). Plans on any other grid keep full-grid
  /// tables. The domain's grid must outlive the cache.
  CapPlanCache(std::size_t capacity, const Region& table_domain);

  /// Plan for annuli centered at `center` on `g`, built on first use.
  /// The returned plan stays valid after eviction (shared ownership);
  /// `g` must outlive it.
  std::shared_ptr<const CapScanPlan> plan(const Grid& g,
                                          const geo::LatLon& center);

  struct Stats {
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };
  Stats stats() const;
  std::size_t size() const;
  /// Bytes of distance tables held by the resident plans.
  std::size_t table_bytes() const;
  /// Bytes of the table domain's rank map (0 without a domain).
  std::size_t domain_bytes() const noexcept {
    return domain_ ? domain_->bytes() : 0;
  }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Key {
    const Grid* grid;
    /// Cell size rides along with the pointer: refinement contexts own
    /// short-lived coarse grids, and if a freed grid's address is reused
    /// by a new Grid the stale entry must at least be for the same
    /// geometry (plans depend only on the cell size, so an
    /// address+cell_deg match serves identical values).
    /// The doubles are kept as their bit patterns, so equality and the
    /// hash agree: -0.0 and 0.0 are two keys (and two plans).
    std::uint64_t cell;
    std::uint64_t lat, lon;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  using Entry = std::pair<Key, std::shared_ptr<const CapScanPlan>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::shared_ptr<const TableDomain> domain_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  Stats stats_;
};

}  // namespace ageo::grid
