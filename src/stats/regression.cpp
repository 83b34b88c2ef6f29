#include "stats/regression.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace ageo::stats {

namespace {
double r_squared_about_line(std::span<const double> xs,
                            std::span<const double> ys, double slope,
                            double intercept) {
  double my = 0;
  for (double y : ys) my += y;
  my /= static_cast<double>(ys.size());
  double ss_res = 0, ss_tot = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double e = ys[i] - (intercept + slope * xs[i]);
    ss_res += e * e;
    double d = ys[i] - my;
    ss_tot += d * d;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double median_of(std::vector<double>& v) {
  detail::require(!v.empty(), "median: empty sample");
  std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(),
                   v.begin() + static_cast<std::ptrdiff_t>(mid - 1),
                   v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (v[mid - 1] + hi) / 2.0;
}
}  // namespace

LinearFit ols(std::span<const double> xs, std::span<const double> ys) {
  detail::require(xs.size() == ys.size(), "ols: length mismatch");
  detail::require(xs.size() >= 2, "ols: need n >= 2");
  const auto n = static_cast<double>(xs.size());
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double dx = xs[i] - mx;
    sxx += dx * dx;
    sxy += dx * (ys[i] - my);
  }
  detail::require(sxx > 0.0, "ols: x is constant");
  LinearFit f;
  f.n = xs.size();
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.r_squared = r_squared_about_line(xs, ys, f.slope, f.intercept);
  if (xs.size() > 2) {
    double ss_res = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double e = ys[i] - (f.intercept + f.slope * xs[i]);
      ss_res += e * e;
    }
    double sigma2 = ss_res / (n - 2.0);
    f.slope_stderr = std::sqrt(sigma2 / sxx);
    f.intercept_stderr = std::sqrt(sigma2 * (1.0 / n + mx * mx / sxx));
  }
  return f;
}

double theil_sen_slope(std::span<const double> xs, std::span<const double> ys,
                       std::vector<double>& scratch) {
  detail::require(xs.size() == ys.size(), "theil_sen: length mismatch");
  detail::require(xs.size() >= 2, "theil_sen: need n >= 2");
  scratch.clear();
  scratch.reserve(xs.size() * (xs.size() - 1) / 2);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = i + 1; j < xs.size(); ++j) {
      double dx = xs[j] - xs[i];
      if (dx == 0.0) continue;
      scratch.push_back((ys[j] - ys[i]) / dx);
    }
  }
  detail::require(!scratch.empty(), "theil_sen: x is constant");
  return median_of(scratch);
}

LinearFit theil_sen(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> slopes;
  LinearFit f;
  f.slope = theil_sen_slope(xs, ys, slopes);
  f.n = xs.size();
  std::vector<double> residual_intercepts(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    residual_intercepts[i] = ys[i] - f.slope * xs[i];
  f.intercept = median_of(residual_intercepts);
  f.r_squared = r_squared_about_line(xs, ys, f.slope, f.intercept);
  return f;
}

LinearFit ols_through_origin(std::span<const double> xs,
                             std::span<const double> ys) {
  detail::require(xs.size() == ys.size(),
                  "ols_through_origin: length mismatch");
  detail::require(!xs.empty(), "ols_through_origin: empty sample");
  double sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  detail::require(sxx > 0.0, "ols_through_origin: x is all zero");
  LinearFit f;
  f.n = xs.size();
  f.slope = sxy / sxx;
  f.intercept = 0.0;
  f.r_squared = r_squared_about_line(xs, ys, f.slope, 0.0);
  return f;
}

}  // namespace ageo::stats
