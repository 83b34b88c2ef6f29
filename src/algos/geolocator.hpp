// The Geolocator interface.
//
// Every algorithm consumes the same input — per-landmark one-way delay
// observations plus the shared calibration store — and produces a
// prediction region on the analysis grid. This is the library's primary
// public API (paper §3: "we reimplemented four active geolocation
// algorithms ... plus two variations of our own design").
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "calib/store.hpp"
#include "geo/latlon.hpp"
#include "grid/region.hpp"

namespace ageo::grid {
class CapPlanCache;
}

namespace ageo::mlat {
class RefineContext;
struct RefineTrace;
}

namespace ageo::algos {

/// One landmark's measurement of the target.
struct Observation {
  /// Index of the landmark in the CalibrationStore.
  std::size_t landmark_id = 0;
  /// Landmark's (known, trusted) location.
  geo::LatLon landmark;
  /// Minimum observed ONE-WAY delay to the target, ms (RTT/2, already
  /// corrected for proxy indirection when applicable).
  double one_way_delay_ms = 0.0;
};

/// Survivor count after one refine-ladder level's solve (provenance for
/// the journal; filled only while a journal is recording).
struct RefineLevelTrace {
  double cell_deg = 0.0;        ///< coarse cell size of the level
  std::uint64_t survivors = 0;  ///< region cells alive after the level
};

/// How an estimate was produced — execution-schedule provenance carried
/// alongside the result for the verdict journal (obs/journal.hpp).
/// The subset fields are schedule-invariant; `incremental`, `refined`,
/// and `ladder` describe the path actually taken.
struct LocateProvenance {
  /// Baseline disks in the stage-1 consistent coalition (subset-filter
  /// locators only; 0 elsewhere).
  std::size_t baseline_subset = 0;
  /// Bestline disks discarded for missing the baseline region.
  std::size_t discarded_by_baseline = 0;
  /// Solved by an incremental memo update (locate_update) rather than a
  /// full constraint solve.
  bool incremental = false;
  /// Solved through the coarse-to-fine refine driver.
  bool refined = false;
  /// Per-level survivor counts (empty unless refined and journaling).
  std::vector<RefineLevelTrace> ladder;
};

struct GeoEstimate {
  GeoEstimate() = default;
  explicit GeoEstimate(grid::Region r) : region(std::move(r)) {}

  grid::Region region;

  /// Decision provenance for the journal; does not affect equality of
  /// results (no algorithm reads it back).
  LocateProvenance prov;

  // --- Byzantine-robustness diagnostics (DESIGN.md §11) ---
  // Filled by the subset-based locators (CBG++, Hybrid); zero/empty for
  // locators without subset semantics (Spotter's posterior has no
  // notion of an excluded constraint).
  /// Observations turned into constraints for this estimate.
  std::size_t constraints_total = 0;
  /// Cardinality of the winning consistent coalition.
  std::size_t constraints_used = 0;
  /// Per-observation participation, parallel to the input span: false
  /// means the observation was discarded (outside the baseline region
  /// or excluded by the subset solve). Empty when not applicable.
  std::vector<bool> used;

  /// Constraints the solver had to discard (n - best); the per-proxy
  /// flagging signal.
  std::size_t margin() const noexcept {
    return constraints_total - constraints_used;
  }
  /// Fraction of constraints in the winning coalition; 1 when there is
  /// nothing to disagree about.
  double agreement() const noexcept {
    return constraints_total
               ? static_cast<double>(constraints_used) /
                     static_cast<double>(constraints_total)
               : 1.0;
  }

  /// True when the constraints were mutually inconsistent (an empty
  /// region); CBG++ is designed to avoid this (paper §5.1).
  bool empty() const noexcept { return region.empty(); }
  std::optional<geo::LatLon> centroid() const { return region.centroid(); }
  double area_km2() const noexcept { return region.area_km2(); }
};

/// Ladder provenance of one locate, for the verdict journal. A locate on
/// `g` clipped by `mask` is refined when `refine` applies to them
/// (mlat::ladder_for). While a journal is recording a refined locate,
/// arms the thread's refine-trace hook (mlat::set_refine_trace) for this
/// object's lifetime; otherwise it records nothing and costs nothing.
/// stamp() marks an estimate with the path taken and the ladder levels
/// recorded so far.
class LadderRecorder {
 public:
  LadderRecorder(const mlat::RefineContext* refine, const grid::Grid& g,
                 const grid::Region* mask);
  ~LadderRecorder();
  LadderRecorder(const LadderRecorder&) = delete;
  LadderRecorder& operator=(const LadderRecorder&) = delete;

  void stamp(GeoEstimate& est) const;

 private:
  bool refined_;
  std::unique_ptr<mlat::RefineTrace> trace_;  ///< null unless armed
};

/// Opaque per-proxy solver state cached between locates of the SAME
/// target with a GROWING observation list (the always-on audit
/// service's streaming re-localization, src/serve). Concrete locators
/// define their own memo layout (CBG++ caches its baseline/bestline
/// regions and retained-disk flags; Spotter caches the unnormalised
/// posterior product); callers only move it between locate_memo and
/// locate_update. A memo is bound to the (grid, store, mask, options)
/// of the call that produced it and is NOT thread-safe: one proxy's
/// memo is touched by one worker at a time.
class LocatorMemo {
 public:
  virtual ~LocatorMemo();
};

class Geolocator {
 public:
  virtual ~Geolocator() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Estimate the target's location. `mask` (usually the world's
  /// plausibility mask: land between 60 S and 85 N, paper §3) clips the
  /// prediction when non-null. Requires store.fitted().
  GeoEstimate locate(const grid::Grid& g, const calib::CalibrationStore& store,
                     std::span<const Observation> observations,
                     const grid::Region* mask = nullptr) const {
    return solve(g, store, observations, mask, nullptr);
  }

  /// Full solve that ALSO captures resumable solver state: `out` gets
  /// exactly locate()'s estimate, and the returned memo — when the
  /// algorithm supports incremental updates under the current
  /// configuration — can absorb appended observations via
  /// locate_update. A null return is always legal (no incremental
  /// path), so callers treat the memo as a pure cache.
  std::unique_ptr<LocatorMemo> locate_memo(
      const grid::Grid& g, const calib::CalibrationStore& store,
      std::span<const Observation> observations, const grid::Region* mask,
      GeoEstimate& out) const {
    std::unique_ptr<LocatorMemo> memo;
    out = solve(g, store, observations, mask, &memo);
    return memo;
  }

  /// Incremental re-solve: `observations` is the proxy's FULL list, of
  /// which [n_prev, size) were appended since the memo last saw it (the
  /// prefix [0, n_prev) must be unchanged). On success the memo absorbs
  /// the new constraints, `out` is bit-identical (region, constraint
  /// counts, used flags) to locate() on the full list, and true is
  /// returned. False means the update left the memoised fast path (LCS
  /// membership changed, a region emptied, ...): the memo is spent and
  /// the caller must fall back to a full locate_memo. The default
  /// always returns false.
  virtual bool locate_update(LocatorMemo& memo, const grid::Grid& g,
                             const calib::CalibrationStore& store,
                             std::span<const Observation> observations,
                             std::size_t n_prev, const grid::Region* mask,
                             GeoEstimate& out) const;

  /// Reuse per-landmark scan plans (rasterization geometry + distance
  /// tables) from `cache` across locate() calls — the audit points every
  /// proxy's locate at one shared cache since the landmark set repeats.
  /// Not owned; null disables reuse. Results are bit-identical with or
  /// without a cache. Default is a no-op for algorithms with no
  /// per-landmark geometry worth caching.
  virtual void set_plan_cache(grid::CapPlanCache* /*cache*/) noexcept {}

  /// Opt in to coarse-to-fine refinement (mlat/refine.hpp): every solve
  /// hands `ctx` to its mlat entry, which seeds the solve from the
  /// multi-resolution ladder when `ctx` applies to the call's grid and
  /// mask, with bit-identical results (memos included). Not owned; null
  /// disables. Default is a no-op for algorithms whose solve takes no
  /// ladder.
  virtual void set_refine(const mlat::RefineContext* /*ctx*/) noexcept {}

 protected:
  /// The one solve body of each locator, behind locate and locate_memo.
  /// With a null `memo` it is a plain solve. With a non-null `memo` it
  /// may also capture resumable state into `*memo` (which arrives null
  /// and may stay null); the estimate is the same either way.
  virtual GeoEstimate solve(const grid::Grid& g,
                            const calib::CalibrationStore& store,
                            std::span<const Observation> observations,
                            const grid::Region* mask,
                            std::unique_ptr<LocatorMemo>* memo) const = 0;

  /// Shared precondition checks for implementations.
  static void validate(const calib::CalibrationStore& store,
                       std::span<const Observation> observations);
};

/// Factory for all five estimators, in the paper's order:
/// CBG, Quasi-Octant, Spotter, Hybrid, CBG++.
std::vector<std::unique_ptr<Geolocator>> make_all_geolocators();

}  // namespace ageo::algos
