// Global analysis grid.
//
// Prediction regions, land masks, and probability fields are all rasters
// over one shared latitude/longitude grid. Cells are equal-angle (fixed
// degrees per side) with exact spherical areas (area of a lat band slice),
// so summing cell areas gives correct region areas even near the poles.
//
// The grid is immutable after construction and precomputes cell centers as
// unit vectors, making the inner loop of disk rasterization a dot product,
// and each row's center-latitude sine and cosine, so a scan plan
// (cap_cache.hpp) pays trig only for its column offsets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "geo/geodesy.hpp"
#include "geo/latlon.hpp"
#include "geo/vec3.hpp"

namespace ageo::grid {

/// Immutable global raster. Rows run south to north, columns west to east
/// starting at longitude -180. Regions (see region.hpp) keep a pointer to
/// their grid; the grid must outlive them.
class Grid {
 public:
  /// Largest cell count a grid may have, 2^25 = 33,554,432: a memory
  /// ceiling. Every cell costs a 24-byte center vector up front (805 MB
  /// at the ceiling) and 8 bytes in each posterior Field, so 0.05 degrees
  /// (25,920,000 cells) still fits, while 0.01 degrees (648,000,000
  /// cells, about 15 GB of centers) fails before allocating anything.
  /// It also keeps every cell index inside the uint32 the Field live
  /// list and the scan plans' table rank map store.
  static constexpr std::size_t kMaxCells = std::size_t{1} << 25;

  /// `cell_deg` is the angular size of a cell side in degrees; it must
  /// pass validate_cell_deg. Throws InvalidArgument otherwise, before
  /// allocating anything.
  explicit Grid(double cell_deg);

  /// The cell-size rule, arithmetic only: positive and no larger than 30,
  /// dividing 180 and 360 exactly (to keep areas exact), and at most
  /// kMaxCells cells. Throws InvalidArgument whose message starts with
  /// `field` (the config field the value came from).
  static void validate_cell_deg(double cell_deg, std::string_view field);

  double cell_deg() const noexcept { return cell_deg_; }
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }

  std::size_t index(std::size_t row, std::size_t col) const noexcept {
    return row * cols_ + col;
  }
  std::size_t row_of(std::size_t idx) const noexcept { return idx / cols_; }
  std::size_t col_of(std::size_t idx) const noexcept { return idx % cols_; }

  /// Center of a cell.
  geo::LatLon center(std::size_t idx) const noexcept;
  /// Precomputed unit vector of the cell center.
  const geo::Vec3& center_vec(std::size_t idx) const noexcept {
    return centers_[idx];
  }
  /// Exact spherical area of a cell, km^2 (constant within a row).
  double cell_area_km2(std::size_t idx) const noexcept {
    return row_area_km2_[row_of(idx)];
  }

  /// Cell containing a point. Latitude 90 maps into the top row.
  std::size_t cell_at(const geo::LatLon& p) const noexcept;

  /// Southern and northern latitude bounds of a row, degrees.
  double row_lat_south(std::size_t row) const noexcept {
    return -90.0 + static_cast<double>(row) * cell_deg_;
  }
  double row_lat_north(std::size_t row) const noexcept {
    return row_lat_south(row) + cell_deg_;
  }

  /// sin and cos of a row's center latitude:
  /// std::sin/cos(geo::deg_to_rad(row_lat_south(row) + cell_deg() / 2.0)).
  double row_sin(std::size_t row) const noexcept { return row_sin_[row]; }
  double row_cos(std::size_t row) const noexcept { return row_cos_[row]; }

  /// Rows whose latitude band intersects [lat_lo, lat_hi]; used to prune
  /// disk rasterization to the cap's latitude band. Returns [first, last)
  /// row indices, clamped to the grid.
  std::pair<std::size_t, std::size_t> rows_in_lat_band(
      double lat_lo, double lat_hi) const noexcept;

  /// Great-circle distance from a point to a cell center, km.
  double distance_to_cell_km(const geo::LatLon& p,
                             std::size_t idx) const noexcept;

 private:
  double cell_deg_;
  std::size_t rows_, cols_;
  std::vector<geo::Vec3> centers_;
  std::vector<double> row_area_km2_;
  std::vector<double> row_sin_, row_cos_;
};

}  // namespace ageo::grid
