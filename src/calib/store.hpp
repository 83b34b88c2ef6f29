// Per-landmark calibration store.
//
// Mirrors the paper's measurement server (§4.1), which refreshes a
// delay-distance model for every landmark from the most recent two weeks
// of RIPE Atlas mesh pings. fit_all() seals the data and records the fit
// options; each of the four model families (plain CBG bestlines,
// slowline bestlines, Quasi-Octant hulls, the pooled Spotter fit) is then
// fitted on its first read, or ahead of time by fit(). Each algorithm
// reads only its own family, so an audit never pays for the others.
// Every fitted model is a pure function of its landmark's data and the
// options, so when and on how many threads a family fits moves no bit.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "calib/calib_point.hpp"
#include "calib/cbg_model.hpp"
#include "calib/octant_model.hpp"
#include "calib/spotter_model.hpp"

namespace ageo::calib {

class CalibrationStore {
 public:
  /// The model families, as bits of the set fit() takes.
  enum Family : unsigned {
    kCbg = 1u << 0,          ///< plain CBG bestlines
    kCbgSlowline = 1u << 1,  ///< slowline-constrained bestlines (CBG++)
    kOctant = 1u << 2,       ///< Quasi-Octant hulls
    kSpotter = 1u << 3,      ///< the pooled Spotter fit
  };

  /// Add one landmark's calibration scatter; returns its id (insertion
  /// order, matching the landmark indexing the caller uses). Discards
  /// every fit: fit_all() must run again before the next read.
  std::size_t add_landmark(CalibData data);

  std::size_t size() const noexcept { return data_.size(); }
  std::span<const CalibPoint> data(std::size_t id) const;

  /// Seal the data and record the fit options; discards any earlier
  /// fits. Fits nothing itself: each family fits on its first read or
  /// in fit(). Landmarks with too little data keep default
  /// (uncalibrated, physics-only) models, which the algorithms handle
  /// gracefully.
  void fit_all(const CbgOptions& cbg_options = {},
               const OctantOptions& octant_options = {},
               const SpotterOptions& spotter_options = {});

  bool fitted() const noexcept { return fits_ != nullptr; }

  /// Fit every family in `families` (a set of Family bits) that has not
  /// fitted yet, the per-landmark ones on up to `threads` workers
  /// (parallel_for semantics: 0 = one per hardware thread). Each
  /// landmark's fit writes its own slot only, so the models are the
  /// same bits for any thread count. Safe to call concurrently with the
  /// readers below; requires fit_all().
  void fit(unsigned families, int threads = 1) const;

  /// Plain CBG bestline (baseline constraint only).
  const CbgModel& cbg(std::size_t id) const;
  /// Slowline-constrained bestline (CBG++, §5.1).
  const CbgModel& cbg_slowline(std::size_t id) const;
  const OctantModel& octant(std::size_t id) const;
  /// Pooled global Spotter fit.
  const SpotterModel& spotter() const;

 private:
  static constexpr int kFamilies = 4;
  /// The options fit_all() recorded and the models fitted so far; each
  /// family's slots are written once, inside its once-flag.
  struct Fits {
    CbgOptions cbg_options;
    OctantOptions octant_options;
    SpotterOptions spotter_options;
    std::once_flag once[kFamilies];
    std::vector<CbgModel> cbg;
    std::vector<CbgModel> cbg_slowline;
    std::vector<OctantModel> octant;
    SpotterModel spotter;
  };

  std::vector<CalibData> data_;
  /// Null until fit_all(); each family inside fits under its own
  /// once-flag.
  std::unique_ptr<Fits> fits_;

  void check_id(std::size_t id) const;
  /// fits_, with `family` fitted (on `threads` workers if this call
  /// is the one that fits it).
  Fits& fitted_family(Family family, int threads = 1) const;
};

}  // namespace ageo::calib
