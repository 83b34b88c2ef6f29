// Probability fields over the grid (Spotter's multilateration).
//
// Spotter models each landmark's distance constraint as a Gaussian ring of
// probability over the Earth's surface and combines rings with Bayes' rule
// (pointwise product followed by renormalisation). A Field is that density,
// stored per cell and weighted by cell area when normalising.
//
// Every ring multiply runs one body over a CapScanPlan centered on the
// landmark (cap_cache.hpp): per-cell great-circle distances come from
// CapScanPlan::distances (a cached table, or on-the-spot trig for a
// transient plan), and the plan rasterizes the ring's support. Outside
// the radius where exp() underflows to exactly +0.0 the product is
// zeroed wholesale, and inside it only cells that are still alive are
// visited (the support collapses rapidly as rings accumulate). The
// center overload builds a transient plan. The result is bit-for-bit
// identical to the original full-grid scan, which the tests keep as
// their oracle (pinned by field_equivalence_test).
//
// Once a field has a live-cell list (after the mask or the first ring),
// every later pass walks only that list: the ring multiplies,
// total_mass(), normalize(), credible_region() and copy_from().
// Construction, rebind(), apply_mask() and mode() still touch every
// cell. The list's invariant (on live_ below) is what makes the skipped
// cells contribute nothing to any of the live passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geo/latlon.hpp"
#include "grid/grid.hpp"
#include "grid/region.hpp"

namespace ageo::grid {

class CapScanPlan;
class Scratch;

namespace detail {

/// exp(-a) is exactly +0.0 in IEEE-754 double precision for every
/// a >= 746: the smallest subnormal is 2^-1074, so any result below
/// 2^-1075 rounds to zero under round-to-nearest, and exp underflows
/// that far once a > 1075 * ln 2 ~= 745.133. A cell whose Gaussian
/// exponent a = ((d - mu)^2) / (2 sigma^2) clears this cutoff therefore
/// multiplies the density by a bit-exact +0.0 — which is why the fast
/// path may zero it without evaluating exp at all.
inline constexpr double kGaussianCut = 746.0;

/// Slack (km) added to the support annulus radii. The annulus membership
/// test works in dot-product space while the Gaussian distance uses
/// atan2(cross, dot); the two can disagree by the angle-equivalent of a
/// few ulps of the dot product (< 1e-3 km everywhere on Earth, worst at
/// the poles of the cap where |sin| vanishes), plus ulp-level rounding in
/// the a >= kGaussianCut comparison itself. 4 km is three orders of
/// magnitude of headroom; cells inside the annulus but outside the true
/// support still go through the exact comparison, so correctness never
/// depends on this constant — only the guarantee that no live cell is
/// zeroed wholesale (here, or left out of mlat::spotter_start's region)
/// does.
inline constexpr double kSupportSlackKm = 4.0;

/// Half-width (km) of a Gaussian ring's hard support: every cell whose
/// |distance - mu| is at least this multiplies the density by a
/// bit-exact +0.0. One definition shared by the Field fast path and the
/// Spotter start region (mlat::spotter_start), so both window the same
/// annulus [mu - w, mu + w].
double gaussian_support_halfwidth_km(double sigma_km) noexcept;

/// True when a ring of width `sigma_km` has a finite, positive sigma
/// whose exponent scale 1/(2 sigma^2) is finite and nonzero. Anything
/// else (sigma = +inf, or so small the scale overflows) turns some
/// factor into 0 * inf = NaN. With a finite mu, such a sigma also keeps
/// the support bounds mu +- W finite.
bool gaussian_sigma_valid(double sigma_km) noexcept;

/// The credible-mass rule: a mass in (0, 1] (NaN fails). Throws
/// InvalidArgument "<what> must be in (0, 1]" otherwise. One rule for
/// Field::credible_region, algos::SpotterGeolocator and
/// assess::AuditConfig::validate.
void require_credible_mass(double mass, const char* what);

}  // namespace detail

class Field {
 public:
  Field() = default;
  /// Uniform (unnormalised, all-ones) field over `g`.
  explicit Field(const Grid& g);

  const Grid* grid() const noexcept { return grid_; }

  double at(std::size_t idx) const noexcept { return density_[idx]; }
  /// Mutable cell access. Invalidates the cached total mass and the
  /// live-cell list (the caller may zero or revive any cell).
  double& at(std::size_t idx) noexcept {
    invalidate_caches();
    return density_[idx];
  }

  /// Multiply in a Gaussian ring likelihood centered on `center`:
  /// L(cell) = exp(-(dist(cell, center) - mu)^2 / (2 sigma^2)).
  /// Requires a finite mu and a sigma passing gaussian_sigma_valid.
  /// Runs the plan overload below on a transient plan for `center`.
  void multiply_gaussian_ring(const geo::LatLon& center, double mu_km,
                              double sigma_km);

  /// Same, on `plan`, which must be built on this field's grid and
  /// centered on the landmark: distances come from
  /// CapScanPlan::distances (no trig for cells a table covers).
  /// Bit-identical to the overload above.
  void multiply_gaussian_ring(const CapScanPlan& plan, double mu_km,
                              double sigma_km);

  /// The validation-free body both overloads above run, for callers
  /// that have already checked the whole constraint list once
  /// (mlat::multiply_rings_into, mlat::spotter_start); the per-ring
  /// `require`s above are measurable on the hot path.
  void multiply_gaussian_ring_unchecked(const CapScanPlan& plan, double mu_km,
                                        double sigma_km);

  /// Zero out density outside `mask` (e.g. the land mask). One pass over
  /// the mask's words; builds the live list from the surviving cells.
  void apply_mask(const Region& mask);

  /// Normalise so the area-weighted integral is 1. Returns false (leaving
  /// the field unchanged) when the total mass is zero — i.e. the
  /// constraints were inconsistent. On success the post-division mass is
  /// cached, so the usual normalize() + credible_region() sequence does
  /// not rescan the grid for its total.
  bool normalize() noexcept;

  /// Total area-weighted mass (cached between mutations).
  double total_mass() const noexcept;

  /// Highest-density region containing at least `mass` of the total
  /// probability (cells added in decreasing density order; ties broken by
  /// cell index). `mass` of exactly 1 returns the full support. Returns
  /// an empty region if the field has zero mass. `mass` must be in
  /// (0, 1].
  Region credible_region(double mass) const;

  /// Cell with the highest density, if any mass exists.
  std::optional<std::size_t> mode() const noexcept;

  /// Re-attach to `g` as a fresh uniform field, reusing the density and
  /// live-list capacity. Arena support (grid/scratch.hpp): equivalent to
  /// `*this = Field(g)` minus the allocations. With a `mask` (on `g`),
  /// the result is the uniform field after apply_mask(*mask), built in
  /// one pass over the mask's words: 1.0 on the mask, +0.0 elsewhere,
  /// and the mask's cells as the live list.
  void rebind(const Grid& g, const Region* mask = nullptr);

  /// Make this field equal to `src`, bit for bit (the arena binding is
  /// kept). When both fields hold a live list on the same grid, only the
  /// two lists' cells are written: this field's live cells are zeroed,
  /// then `src`'s are copied. Otherwise a full copy.
  void copy_from(const Field& src);

  /// Arena used for internal temporaries (the support Region of the
  /// first windowed multiply, the credible-region ordering). Null — the
  /// default — means plain per-call allocations. The arena must outlive
  /// this binding and must belong to the calling thread; Scratch::field
  /// rebinds it on every acquire, so a pooled Field never carries a
  /// stale arena into another thread's tenancy.
  void set_scratch(Scratch* s) noexcept { scratch_ = s; }

  /// The live-cell list (see live_), or null while there is none.
  const std::vector<std::uint32_t>* live_cells() const noexcept {
    return live_valid_ ? &live_ : nullptr;
  }

  /// Bytes of heap capacity currently retained (arena accounting).
  std::size_t capacity_bytes() const noexcept {
    return density_.capacity() * sizeof(double) +
           live_.capacity() * sizeof(std::uint32_t);
  }

 private:
  void invalidate_caches() noexcept {
    mass_valid_ = false;
    live_valid_ = false;
  }

  /// One pass over `mask`'s words shared by apply_mask and the masked
  /// rebind: cells off the mask become +0.0 (a whole word at a time when
  /// it is empty), cells on it keep their density (Uniform: become 1.0),
  /// and the nonzero ones form the new live list.
  template <bool Uniform>
  void mask_pass(const Region& mask);

  const Grid* grid_ = nullptr;
  Scratch* scratch_ = nullptr;
  std::vector<double> density_;

  /// Indices of cells that may be nonzero. Invariant, while live_valid_
  /// holds: live_ is strictly ascending and every cell not in it is
  /// zero — +0.0 for the non-negative densities the public passes build
  /// (only a negative written through at() could leave a -0.0 behind,
  /// and at() drops the list). A superset of the nonzero set is allowed:
  /// a quotient that underflows in normalize() stays as a stale entry
  /// until the next multiply compacts it. Built by apply_mask, the masked
  /// rebind and the first ring multiply; every pass after that walks
  /// only this list (see the file comment).
  std::vector<std::uint32_t> live_;
  bool live_valid_ = false;

  mutable double mass_ = 0.0;
  mutable bool mass_valid_ = false;
};

}  // namespace ageo::grid
