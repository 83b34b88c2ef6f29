#include "grid/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>

#include "common/error.hpp"
#include "geo/units.hpp"

namespace ageo::grid {

void Grid::validate_cell_deg(double cell_deg, std::string_view field) {
  const auto reject = [&](const std::string& why) {
    char value[32];
    std::snprintf(value, sizeof value, "%g", cell_deg);
    throw InvalidArgument(std::string(field) + ": " + value + " " + why);
  };
  // Comparisons are written so that NaN fails them.
  if (!(cell_deg > 0.0 && cell_deg <= 30.0))
    reject("is not in (0, 30] degrees");
  const double rows_f = 180.0 / cell_deg;
  const double cols_f = 360.0 / cell_deg;
  if (!(std::abs(rows_f - std::round(rows_f)) < 1e-9 &&
        std::abs(cols_f - std::round(cols_f)) < 1e-9))
    reject("does not divide 180 and 360 exactly");
  // In double: the cell count of a tiny cell size overflows any integer.
  const double cells = std::round(rows_f) * std::round(cols_f);
  if (cells > static_cast<double>(kMaxCells)) {
    char count[32];
    std::snprintf(count, sizeof count, "%.0f", cells);
    reject(std::string("makes ") + count +
           " cells, above the 33554432-cell memory ceiling");
  }
}

Grid::Grid(double cell_deg) : cell_deg_(cell_deg) {
  validate_cell_deg(cell_deg, "Grid cell_deg");
  const double rows_f = 180.0 / cell_deg;
  const double cols_f = 360.0 / cell_deg;
  rows_ = static_cast<std::size_t>(std::llround(rows_f));
  cols_ = static_cast<std::size_t>(std::llround(cols_f));

  centers_.resize(size());
  row_area_km2_.resize(rows_);
  row_sin_.resize(rows_);
  row_cos_.resize(rows_);
  const double R2 = geo::kEarthRadiusKm * geo::kEarthRadiusKm;
  const double dlon_rad = geo::deg_to_rad(cell_deg_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = geo::deg_to_rad(row_lat_south(r));
    double n = geo::deg_to_rad(row_lat_north(r));
    row_area_km2_[r] = R2 * dlon_rad * (std::sin(n) - std::sin(s));
    double lat_c = row_lat_south(r) + cell_deg_ / 2.0;
    row_sin_[r] = std::sin(geo::deg_to_rad(lat_c));
    row_cos_[r] = std::cos(geo::deg_to_rad(lat_c));
    for (std::size_t c = 0; c < cols_; ++c) {
      double lon_c = -180.0 + (static_cast<double>(c) + 0.5) * cell_deg_;
      centers_[index(r, c)] = geo::to_vec3({lat_c, lon_c});
    }
  }
}

geo::LatLon Grid::center(std::size_t idx) const noexcept {
  std::size_t r = row_of(idx), c = col_of(idx);
  return {row_lat_south(r) + cell_deg_ / 2.0,
          -180.0 + (static_cast<double>(c) + 0.5) * cell_deg_};
}

std::size_t Grid::cell_at(const geo::LatLon& p) const noexcept {
  double lat = std::clamp(p.lat_deg, -90.0, 90.0);
  double lon = geo::wrap_longitude(p.lon_deg);
  auto r = static_cast<std::size_t>(
      std::min(static_cast<double>(rows_ - 1),
               std::floor((lat + 90.0) / cell_deg_)));
  auto c = static_cast<std::size_t>(
      std::min(static_cast<double>(cols_ - 1),
               std::floor((lon + 180.0) / cell_deg_)));
  return index(r, c);
}

std::pair<std::size_t, std::size_t> Grid::rows_in_lat_band(
    double lat_lo, double lat_hi) const noexcept {
  lat_lo = std::clamp(lat_lo, -90.0, 90.0);
  lat_hi = std::clamp(lat_hi, -90.0, 90.0);
  if (lat_hi < lat_lo) return {0, 0};
  auto first = static_cast<std::size_t>(
      std::max(0.0, std::floor((lat_lo + 90.0) / cell_deg_)));
  auto last = static_cast<std::size_t>(
      std::min(static_cast<double>(rows_),
               std::ceil((lat_hi + 90.0) / cell_deg_)));
  first = std::min(first, rows_);
  return {first, std::max(first, last)};
}

double Grid::distance_to_cell_km(const geo::LatLon& p,
                                 std::size_t idx) const noexcept {
  return geo::arc_distance_km(geo::to_vec3(p), centers_[idx]);
}

}  // namespace ageo::grid
