#include "grid/subfield.hpp"

#include <cmath>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "grid/cap_cache.hpp"
#include "grid/credible_select.hpp"
#include "grid/field.hpp"
#include "obs/obs.hpp"

namespace ageo::grid {

using detail::kGaussianCut;

SubField::SubField(const Grid& g, const Window& w, Scratch* scratch)
    : grid_(&g),
      win_(w),
      scratch_(scratch),
      density_(Scratch::doubles(scratch)),
      global_(Scratch::indices(scratch)),
      live_(Scratch::indices(scratch)) {
  ageo::detail::require(w.r1 <= g.rows() && w.width <= g.cols(),
                        "SubField: window exceeds the grid");
  std::vector<std::uint32_t>& global = global_.vec();
  global.reserve(w.cells());
  // for_row_spans emits a wrapped row's low-column part first, so this
  // walk — and therefore the local ordering — is ascending in global
  // cell index, which the mass sums and the credible selection rely on.
  for (std::size_t r = w.r0; r < w.r1; ++r) {
    w.for_row_spans(g, r, [&](std::size_t b, std::size_t e) {
      for (std::size_t idx = b; idx < e; ++idx)
        global.push_back(static_cast<std::uint32_t>(idx));
    });
  }
  density_.vec().assign(global.size(), 1.0);
}

SubField::SubField(const Grid& g, const Window& w, const Region& seed,
                   Scratch* scratch)
    : SubField(g, w, scratch) {
  ageo::detail::require(seed.grid() == &g,
                        "SubField: seed must share the grid");
  // Non-seed cells get the literal +0.0 the flat chain's `d *= 0.0`
  // produces (densities are nonnegative, so the flat zero is +0.0 too);
  // every later multiply keeps them at +0.0 whichever branch it takes,
  // so the seeded start is bit-identical to multiplying the zeros in.
  std::vector<double>& density = density_.vec();
  const std::vector<std::uint32_t>& global = global_.vec();
  std::vector<std::uint32_t>& live = live_.vec();
  live.clear();
  for (std::size_t l = 0; l < density.size(); ++l) {
    if (seed.test(global[l]))
      live.push_back(static_cast<std::uint32_t>(l));
    else
      density[l] = 0.0;
  }
  live_valid_ = true;
}

void SubField::apply_mask(const Region& mask) {
  ageo::detail::require(mask.grid() == grid_,
                        "SubField: mask must share the grid");
  mass_valid_ = false;
  std::vector<double>& density = density_.vec();
  const std::vector<std::uint32_t>& global = global_.vec();
  std::vector<std::uint32_t>& live = live_.vec();
  live.clear();
  for (std::size_t l = 0; l < density.size(); ++l) {
    if (!mask.test(global[l])) {
      density[l] = 0.0;
    } else if (density[l] != 0.0) {
      live.push_back(static_cast<std::uint32_t>(l));
    }
  }
  live_valid_ = true;
}

template <typename DistF>
void SubField::multiply_ring(double mu_km, double sigma_km, DistF&& dist) {
  mass_valid_ = false;
  const double inv_2s2 = 1.0 / (2.0 * sigma_km * sigma_km);
  std::vector<double>& density = density_.vec();
  const std::vector<std::uint32_t>& global = global_.vec();
  std::vector<std::uint32_t>& live = live_.vec();
  // Same per-cell branches as Field::multiply_ring_windowed. Cells the
  // flat dense path zeroes wholesale (outside the rasterized support
  // superset) satisfy a >= kGaussianCut here — that containment is the
  // support window's correctness guarantee — so the exact comparison
  // multiplies them by the same bit-exact +0.0.

  if (live_valid_) {
    std::size_t keep = 0;
    for (const std::uint32_t l : live) {
      double& d = density[l];
      const double r = dist(global[l]) - mu_km;
      const double a = r * r * inv_2s2;
      if (a >= kGaussianCut) {
        d *= 0.0;
      } else {
        d *= std::exp(-a);
      }
      if (d != 0.0) live[keep++] = l;
    }
    live.resize(keep);
    return;
  }

  live.clear();
  for (std::size_t l = 0; l < density.size(); ++l) {
    double& d = density[l];
    if (d == 0.0) continue;
    const double r = dist(global[l]) - mu_km;
    const double a = r * r * inv_2s2;
    if (a >= kGaussianCut) {
      d *= 0.0;
    } else {
      d *= std::exp(-a);
    }
    if (d != 0.0) live.push_back(static_cast<std::uint32_t>(l));
  }
  live_valid_ = true;
}

void SubField::multiply_gaussian_ring_unchecked(const geo::LatLon& center,
                                                double mu_km,
                                                double sigma_km) {
  AGEO_COUNT("grid.ring_multiply.sub_trig");
  AGEO_TIMED_NS("grid.ring_multiply_ns", 100.0, 1e9);
  const geo::Vec3 v = geo::to_vec3(center);
  const Grid& g = *grid_;
  multiply_ring(mu_km, sigma_km, [&](std::size_t i) {
    return geo::arc_distance_km(v, g.center_vec(i));
  });
}

void SubField::multiply_gaussian_ring_unchecked(const CapScanPlan& plan,
                                                double mu_km,
                                                double sigma_km) {
  AGEO_COUNT("grid.ring_multiply.sub_plan_served");
  AGEO_TIMED_NS("grid.ring_multiply_ns", 100.0, 1e9);
  multiply_ring(mu_km, sigma_km, plan.distances());
}

double SubField::total_mass() const noexcept {
  if (mass_valid_) return mass_;
  // Ascending global order; the cells the flat scan visits and this one
  // skips (outside the window or off the live list) are all zero there
  // and add bit-exact +0.0.
  const std::vector<double>& density = density_.vec();
  const std::vector<std::uint32_t>& global = global_.vec();
  mass_ = detail::fold_mass(density.size(), live_cells(), [&](std::size_t l) {
    return density[l] * grid_->cell_area_km2(global[l]);
  });
  mass_valid_ = true;
  return mass_;
}

bool SubField::normalize() noexcept {
  const double m = total_mass();
  if (!(m > 0.0) || !std::isfinite(m)) return false;
  std::vector<double>& density = density_.vec();
  const std::vector<std::uint32_t>& global = global_.vec();
  mass_ = detail::fold_mass(density.size(), live_cells(), [&](std::size_t l) {
    density[l] /= m;
    return density[l] * grid_->cell_area_km2(global[l]);
  });
  mass_valid_ = true;
  return true;
}

Region SubField::credible_region(double mass) const {
  ageo::detail::require(mass > 0.0 && mass <= 1.0,
                        "SubField: credible mass must be in (0, 1]");
  Region out(*grid_);
  const double total = total_mass();
  if (!(total > 0.0)) return out;

  const std::vector<double>& density = density_.vec();
  const std::vector<std::uint32_t>& global = global_.vec();

  // Candidate order: window-local indices of nonzero cells, ascending —
  // the same cells, in the same (global) order, as the flat field's
  // candidate list.
  Scratch::IndexLease olease = Scratch::indices(scratch_);
  std::vector<std::uint32_t>& order = olease.vec();
  const std::vector<std::uint32_t>& live = live_.vec();
  order.reserve(live_valid_ ? live.size() : density.size());
  if (live_valid_) {
    for (const std::uint32_t l : live)
      if (density[l] > 0.0) order.push_back(l);
  } else {
    for (std::size_t l = 0; l < density.size(); ++l)
      if (density[l] > 0.0) order.push_back(static_cast<std::uint32_t>(l));
  }

  if (mass == 1.0) {  // the entire support, exactly (see Field)
    for (const std::uint32_t l : order) out.set(global[l]);
    return out;
  }

  // Local ordering is ascending in global index, so tie-breaking on the
  // global index is the flat comparator on the same values.
  const auto denser = [&](std::uint32_t a, std::uint32_t b) {
    return density[a] > density[b] ||
           (density[a] == density[b] && global[a] < global[b]);
  };
  const auto weight = [&](std::uint32_t l) {
    return density[l] * grid_->cell_area_km2(global[l]);
  };
  const double target = mass * total;
  detail::weighted_select_into(order, denser, weight, target,
                               [&](std::uint32_t l) { out.set(global[l]); });
  return out;
}

}  // namespace ageo::grid
