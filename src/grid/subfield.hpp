// Windowed probability sub-fields (the refinement driver's Spotter path).
//
// A SubField is a Field restricted to a Window: densities are stored
// only for the window's cells, in ascending global-index order. The
// refinement driver proves (mlat/refine.cpp) that every cell a flat
// full-grid posterior would leave nonzero lies inside the window — the
// window is the margin-expanded bounding box of the coarse-level
// intersection of every ring's hard-support annulus — so the cells the
// SubField never represents are exactly the cells the flat posterior
// zeroes.
//
// Bit-identicality with the flat Field (pinned by
// refine_equivalence_test) rests on three facts:
//  * per-cell arithmetic is the same expressions on the same values
//    (a = (d - mu)^2 / (2 sigma^2); compare a >= kGaussianCut; *= 0.0
//    or *= exp(-a)), with distances served by the same plan tables;
//  * mass sums walk cells in ascending global-index order, and the
//    cells skipped relative to the flat scan contribute bit-exact +0.0
//    terms there (x + 0.0 == x for every nonnegative density sum);
//  * the credible-region cut runs the shared selection core
//    (credible_select.hpp) on the same candidate sequence.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geo/latlon.hpp"
#include "grid/grid.hpp"
#include "grid/region.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"

namespace ageo::grid {

class CapScanPlan;

class SubField {
 public:
  /// Uniform (all-ones) sub-field over `w` on `g`. The density and index
  /// buffers come from `scratch` (null degrades to plain allocations);
  /// both are sized to the window, never the globe.
  SubField(const Grid& g, const Window& w, Scratch* scratch);

  /// Sub-field seeded from `seed` (a Region on `g`): window cells in the
  /// seed start at 1.0 and form the live set, every other window cell
  /// starts at the exact +0.0 a flat multiply chain would leave it at.
  /// Sound only when the seed contains every cell the flat posterior
  /// leaves nonzero — the refinement driver's survivor upsample
  /// guarantees exactly that — so the ring multiplies walk the (much
  /// smaller) seed set from the first constraint on instead of
  /// discovering the zeros one multiply at a time.
  SubField(const Grid& g, const Window& w, const Region& seed,
           Scratch* scratch);

  const Grid& grid() const noexcept { return *grid_; }
  const Window& window() const noexcept { return win_; }
  std::size_t cells() const noexcept { return global_.vec().size(); }
  /// Density of window cell `l` (window-local, ascending global order).
  double at(std::size_t l) const noexcept { return density_.vec()[l]; }
  /// Global grid index of window cell `l`.
  std::size_t global_index(std::size_t l) const noexcept {
    return global_.vec()[l];
  }
  /// Window-local live list (see live_), or null while there is none.
  const std::vector<std::uint32_t>* live_cells() const noexcept {
    return live_valid_ ? &live_.vec() : nullptr;
  }

  /// Zero density outside `mask` (cells outside the window are not
  /// represented and already count as zero).
  void apply_mask(const Region& mask);

  /// Multiply in a Gaussian ring likelihood; same contract and bits as
  /// Field::multiply_gaussian_ring_unchecked restricted to the window.
  /// The caller (mlat::refine) validates the constraint list once.
  void multiply_gaussian_ring_unchecked(const geo::LatLon& center,
                                        double mu_km, double sigma_km);
  /// Same, with distances served from `plan`'s cached per-cell table.
  void multiply_gaussian_ring_unchecked(const CapScanPlan& plan, double mu_km,
                                        double sigma_km);

  /// Area-weighted mass over the window (== the flat field's total when
  /// the window covers its support). Cached between mutations. Shares
  /// Field's fold (detail::fold_mass), over the live list when valid.
  double total_mass() const noexcept;

  /// Normalise to unit mass; false (unchanged) on zero mass. Same
  /// accumulation order as Field::normalize, over the same fold.
  bool normalize() noexcept;

  /// Highest-density region reaching `mass`, as a full-grid Region.
  /// Same selection as Field::credible_region. `mass` in (0, 1].
  Region credible_region(double mass) const;

 private:
  template <typename DistF>
  void multiply_ring(double mu_km, double sigma_km, DistF&& dist);

  const Grid* grid_;
  Window win_;
  Scratch* scratch_;
  /// Density per window cell, ascending global-index order.
  Scratch::DoublesLease density_;
  /// Global cell index of each window cell (same order).
  Scratch::IndexLease global_;
  /// Window-local indices of cells that may be nonzero, ascending; a
  /// superset of the true nonzero set is allowed, and every window cell
  /// off the list is +0.0 (same invariant as Field::live_). While it is
  /// valid, the ring multiplies, total_mass(), normalize() and
  /// credible_region() walk only this list.
  Scratch::IndexLease live_;
  bool live_valid_ = false;

  mutable double mass_ = 0.0;
  mutable bool mass_valid_ = false;
};

}  // namespace ageo::grid
