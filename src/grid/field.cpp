#include "grid/field.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "grid/scratch.hpp"
#include "obs/obs.hpp"

namespace ageo::grid {

namespace detail {

// The support constants are documented in field.hpp (they moved there so
// the refinement driver can window the same support annuli).
double gaussian_support_halfwidth_km(double sigma_km) noexcept {
  return sigma_km * std::sqrt(2.0 * kGaussianCut) + kSupportSlackKm;
}

bool gaussian_sigma_valid(double sigma_km) noexcept {
  // The same expression the windowed multiply divides by.
  const double inv_2s2 = 1.0 / (2.0 * sigma_km * sigma_km);
  return std::isfinite(sigma_km) && sigma_km > 0.0 &&
         std::isfinite(inv_2s2) && inv_2s2 != 0.0;
}

void require_credible_mass(double mass, const char* what) {
  if (!(mass > 0.0 && mass <= 1.0))
    throw InvalidArgument(std::string(what) + " must be in (0, 1]");
}

}  // namespace detail

using detail::kGaussianCut;

namespace {

/// The mass fold behind total_mass() and normalize(): the sum of term(i)
/// over ascending i, where i runs over `live` when it is non-null and
/// over [0, n) otherwise. `term` may rewrite cell i before returning its
/// area-weighted mass (normalize divides there). Under the live-list
/// invariant every skipped cell is zero, so the dense sum would add only
/// zero terms for it, and x + 0.0 is x for every sum a non-negative
/// field produces; the live fold is therefore bit-identical to the dense
/// one.
template <typename TermF>
double fold_mass(std::size_t n, const std::vector<std::uint32_t>* live,
                 TermF&& term) {
  double m = 0.0;
  if (live) {
    for (const std::uint32_t i : *live) m += term(i);
  } else {
    for (std::size_t i = 0; i < n; ++i) m += term(i);
  }
  return m;
}

}  // namespace

Field::Field(const Grid& g) { rebind(g); }

void Field::rebind(const Grid& g, const Region* mask) {
  if (mask)
    ageo::detail::require(mask->grid() == &g,
                          "Field: mask must share the field's grid");
  grid_ = &g;
  mass_valid_ = false;
  mass_ = 0.0;
  if (mask) {
    density_.resize(g.size());
    mask_pass<true>(*mask);
    return;
  }
  density_.assign(g.size(), 1.0);
  live_.clear();
  live_valid_ = false;
}

void Field::copy_from(const Field& src) {
  if (this == &src) return;
  if (live_valid_ && src.live_valid_ && grid_ == src.grid_ &&
      density_.size() == src.density_.size()) {
    // Both fields are zero off their live lists, so after these two
    // writes every cell equals src's: src's live cells by copy, this
    // field's former live cells by zeroing (src holds +0.0 there unless
    // they are also src-live), and all other cells were +0.0 in both.
    for (const std::uint32_t i : live_) density_[i] = 0.0;
    for (const std::uint32_t i : src.live_) density_[i] = src.density_[i];
  } else {
    density_ = src.density_;
  }
  grid_ = src.grid_;
  live_ = src.live_;
  live_valid_ = src.live_valid_;
  mass_ = src.mass_;
  mass_valid_ = src.mass_valid_;
}

void Field::multiply_gaussian_ring(const geo::LatLon& center, double mu_km,
                                   double sigma_km) {
  ageo::detail::require(grid_ != nullptr, "Field: not attached to a grid");
  ageo::detail::require(detail::gaussian_sigma_valid(sigma_km),
                        "Field: sigma must be finite and positive, with a "
                        "finite nonzero 1/(2 sigma^2)");
  ageo::detail::require(std::isfinite(mu_km), "Field: mu must be finite");
  ageo::detail::require(geo::is_valid(center), "Field: invalid ring center");
  multiply_gaussian_ring_unchecked(*detail::plan_for(nullptr, *grid_, center),
                                   mu_km, sigma_km);
}

void Field::multiply_gaussian_ring(const CapScanPlan& plan, double mu_km,
                                   double sigma_km) {
  ageo::detail::require(grid_ != nullptr, "Field: not attached to a grid");
  ageo::detail::require(&plan.grid() == grid_,
                  "Field: plan built on a different grid");
  ageo::detail::require(detail::gaussian_sigma_valid(sigma_km),
                        "Field: sigma must be finite and positive, with a "
                        "finite nonzero 1/(2 sigma^2)");
  ageo::detail::require(std::isfinite(mu_km), "Field: mu must be finite");
  multiply_gaussian_ring_unchecked(plan, mu_km, sigma_km);
}

void Field::multiply_gaussian_ring_unchecked(const CapScanPlan& plan,
                                             double mu_km, double sigma_km) {
  AGEO_COUNT("grid.ring_multiply.plan_served");
  AGEO_TIMED_NS("grid.ring_multiply_ns", 100.0, 1e9);
  const CellDistances dist = plan.distances();
  mass_valid_ = false;
  const double inv_2s2 = 1.0 / (2.0 * sigma_km * sigma_km);
  // The reference evaluates exp(-r * r * inv_2s2); computing
  // a = (r * r) * inv_2s2 and passing -a gives bit-identical arguments
  // (IEEE negation is exact and commutes with multiplication), so both
  // branches below reproduce the reference product exactly: the compare
  // branch because exp gets the same bits, the zeroing branch because
  // a >= kGaussianCut guarantees exp would return +0.0 and x *= 0.0 has
  // the same sign/NaN/inf semantics as x *= (+0.0 result of exp).

  if (live_valid_) {
    // Later rings: only survivors of earlier multiplies can still be
    // nonzero; the cutoff comparison is the support-window test.
    std::size_t keep = 0;
    for (const std::uint32_t i : live_) {
      double& d = density_[i];
      const double r = dist(i) - mu_km;
      const double a = r * r * inv_2s2;
      if (a >= kGaussianCut) {
        d *= 0.0;
      } else {
        d *= std::exp(-a);
      }
      if (d != 0.0) live_[keep++] = i;
    }
    live_.resize(keep);
    return;
  }

  // First windowed multiply on a dense field: rasterize a superset of the
  // ring's support, zero the complement a word at a time, and record the
  // survivors as the live list for the rings that follow. The support
  // Region is a pooled temporary when the field carries an arena.
  const double w = detail::gaussian_support_halfwidth_km(sigma_km);
  Scratch::RegionLease slease = Scratch::region(scratch_, *grid_);
  Region& s = slease.get();
  plan.rasterize_annulus(std::max(0.0, mu_km - w), mu_km + w, s);
  live_.clear();
  live_.reserve(s.count());
  const std::vector<std::uint64_t>& words = s.words();
  const std::size_t n = density_.size();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    const std::size_t base = wi << 6;
    const std::size_t lim = std::min<std::size_t>(64, n - base);
    const std::uint64_t bits = words[wi];
    if (bits == 0) {
      for (std::size_t j = 0; j < lim; ++j) density_[base + j] *= 0.0;
      continue;
    }
    for (std::size_t j = 0; j < lim; ++j) {
      double& d = density_[base + j];
      if (((bits >> j) & 1u) == 0) {
        d *= 0.0;
        continue;
      }
      if (d == 0.0) continue;
      const double r = dist(base + j) - mu_km;
      const double a = r * r * inv_2s2;
      if (a >= kGaussianCut) {
        d *= 0.0;
      } else {
        d *= std::exp(-a);
      }
      if (d != 0.0) live_.push_back(static_cast<std::uint32_t>(base + j));
    }
  }
  live_valid_ = true;
}

template <bool Uniform>
void Field::mask_pass(const Region& mask) {
  mass_valid_ = false;
  live_.clear();
  const std::vector<std::uint64_t>& words = mask.words();
  double* density = density_.data();
  const std::size_t n = density_.size();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    const std::size_t base = wi << 6;
    const std::size_t lim = std::min<std::size_t>(64, n - base);
    const std::uint64_t bits = words[wi];
    if (bits == 0) {
      std::fill_n(density + base, lim, 0.0);
      continue;
    }
    for (std::size_t j = 0; j < lim; ++j) {
      double& d = density[base + j];
      if (((bits >> j) & 1u) == 0) {
        d = 0.0;
        continue;
      }
      if constexpr (Uniform) d = 1.0;
      if (d != 0.0) live_.push_back(static_cast<std::uint32_t>(base + j));
    }
  }
  live_valid_ = true;
}

void Field::apply_mask(const Region& mask) {
  ageo::detail::require(grid_ != nullptr && mask.grid() == grid_,
                  "Field: mask must share the field's grid");
  mask_pass<false>(mask);
}

double Field::total_mass() const noexcept {
  if (!grid_) return 0.0;
  if (mass_valid_) return mass_;
  const Grid& g = *grid_;
  mass_ = fold_mass(
      density_.size(), live_cells(),
      [&](std::size_t i) { return density_[i] * g.cell_area_km2(i); });
  mass_valid_ = true;
  return mass_;
}

bool Field::normalize() noexcept {
  const double m = total_mass();
  if (!(m > 0.0) || !std::isfinite(m)) return false;
  // Divide and re-accumulate in one pass. The running sum reads the
  // stored (rounded) quotients in index order, so the cached mass is
  // bit-identical to what a fresh total_mass() scan would return. Cells
  // off the live list are zero and zero / m is the same zero, so the
  // live fold leaves every cell a dense pass would.
  const Grid& g = *grid_;
  mass_ = fold_mass(density_.size(), live_cells(), [&](std::size_t i) {
    density_[i] /= m;
    return density_[i] * g.cell_area_km2(i);
  });
  mass_valid_ = true;
  // Survivor indices are unchanged by a positive rescale (a quotient that
  // underflows to zero merely leaves a stale — harmless — live entry).
  return true;
}

Region Field::credible_region(double mass) const {
  ageo::detail::require(grid_ != nullptr, "Field: not attached to a grid");
  detail::require_credible_mass(mass, "Field: credible mass");
  Region out(*grid_);
  const double total = total_mass();
  if (!(total > 0.0)) return out;

  Scratch::IndexLease olease = Scratch::indices(scratch_);
  std::vector<std::uint32_t>& order = olease.get();
  order.reserve(live_valid_ ? live_.size() : density_.size());
  if (live_valid_) {
    for (const std::uint32_t i : live_)
      if (density_[i] > 0.0) order.push_back(i);
  } else {
    for (std::size_t i = 0; i < density_.size(); ++i)
      if (density_[i] > 0.0) order.push_back(static_cast<std::uint32_t>(i));
  }

  // mass == 1 means the entire support, exactly. (Chasing it through the
  // accumulator instead would leave the outcome to summation rounding:
  // once the running sum saturates, tail cells add less than 1 ulp each
  // and `acc >= total` can flip either way.)
  if (mass == 1.0) {
    for (const std::uint32_t i : order) out.set(i);
    return out;
  }

  // Density descending, ties by cell index: a deterministic total order,
  // so the region never depends on sort implementation details.
  const auto denser = [this](std::uint32_t a, std::uint32_t b) {
    return density_[a] > density_[b] ||
           (density_[a] == density_[b] && a < b);
  };
  const auto weight = [this](std::uint32_t i) {
    return density_[i] * grid_->cell_area_km2(i);
  };
  const double target = mass * total;

  // Weighted quickselect: shrink a bracket around the density threshold
  // with nth_element (expected O(n)) instead of sorting every candidate
  // cell (O(n log n)). Halves that land entirely inside the region are
  // committed unsorted; only the final small bracket is sorted to place
  // the exact cut.
  std::size_t lo = 0, hi = order.size();
  double acc = 0.0;
  while (hi - lo > 256) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::nth_element(order.begin() + lo, order.begin() + mid,
                     order.begin() + hi, denser);
    double top = 0.0;
    for (std::size_t k = lo; k < mid; ++k) top += weight(order[k]);
    if (acc + top >= target) {
      hi = mid;
    } else {
      for (std::size_t k = lo; k < mid; ++k) out.set(order[k]);
      acc += top;
      lo = mid;
    }
  }
  std::sort(order.begin() + lo, order.begin() + hi, denser);
  for (std::size_t k = lo; k < hi && acc < target; ++k) {
    out.set(order[k]);
    acc += weight(order[k]);
  }
  if (acc < target && hi < order.size()) {
    // Summation-order rounding can leave the bracket a hair short of the
    // target; spill into the remaining (less dense) cells.
    std::sort(order.begin() + hi, order.end(), denser);
    for (std::size_t k = hi; k < order.size() && acc < target; ++k) {
      out.set(order[k]);
      acc += weight(order[k]);
    }
  }
  return out;
}

std::optional<std::size_t> Field::mode() const noexcept {
  if (!grid_) return std::nullopt;
  std::size_t best = 0;
  double best_d = 0.0;
  for (std::size_t i = 0; i < density_.size(); ++i) {
    if (density_[i] > best_d) {
      best_d = density_[i];
      best = i;
    }
  }
  if (best_d <= 0.0) return std::nullopt;
  return best;
}

}  // namespace ageo::grid
