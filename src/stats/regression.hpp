// Simple and robust two-variable regression.
#pragma once

#include <span>
#include <vector>

namespace ageo::stats {

/// Result of fitting y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  double slope_stderr = 0.0;
  double intercept_stderr = 0.0;
  std::size_t n = 0;
};

/// Ordinary least squares. Requires n >= 2 and non-constant x.
LinearFit ols(std::span<const double> xs, std::span<const double> ys);

/// Theil–Sen estimator: slope is the median of pairwise slopes, intercept
/// the median of y - slope*x. Robust to a large fraction of outliers; this
/// is the "robust linear regression" used for the eta factor (Fig. 13).
/// r_squared is computed against the robust line; stderr fields are 0.
LinearFit theil_sen(std::span<const double> xs, std::span<const double> ys);

/// theil_sen(xs, ys).slope, bit for bit, with the pairwise slopes built
/// in `scratch` (cleared first) so a loop of fits reuses one buffer.
double theil_sen_slope(std::span<const double> xs, std::span<const double> ys,
                       std::vector<double>& scratch);

/// OLS through the origin (y = slope * x).
LinearFit ols_through_origin(std::span<const double> xs,
                             std::span<const double> ys);

}  // namespace ageo::stats
