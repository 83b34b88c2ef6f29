// Unit tests for the stats module.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/hull.hpp"
#include "stats/linmodel.hpp"
#include "stats/polyfit.hpp"
#include "stats/regression.hpp"
#include "stats/special.hpp"
#include "stats/summary.hpp"

namespace ageo::stats {
namespace {

TEST(Summary, KnownValues) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  auto s = summarize(xs);
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summary, Empty) {
  auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Quantile, Interpolation) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), InvalidArgument);
  EXPECT_THROW(quantile(xs, 1.5), InvalidArgument);
}

TEST(Correlation, PerfectAndNone) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  std::vector<double> z{5, 3, 4, 1, 2};
  EXPECT_LT(std::abs(pearson_correlation(x, z)), 0.9);
  std::vector<double> c{7, 7, 7, 7, 7};
  EXPECT_EQ(pearson_correlation(x, c), 0.0);
}

TEST(Correlation, SpearmanMonotone) {
  // Monotone but nonlinear: Spearman = 1, Pearson < 1.
  std::vector<double> x{1, 2, 3, 4, 5, 6};
  std::vector<double> y;
  for (double v : x) y.push_back(std::exp(v));
  EXPECT_NEAR(spearman_correlation(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson_correlation(x, y), 0.95);
}

TEST(Ecdf, Basics) {
  std::vector<double> xs{1.0, 2.0, 2.0, 5.0};
  Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 0.25);
  EXPECT_DOUBLE_EQ(f(2.0), 0.75);
  EXPECT_DOUBLE_EQ(f(10.0), 1.0);
  EXPECT_DOUBLE_EQ(f.inverse(0.75), 2.0);
  EXPECT_DOUBLE_EQ(f.inverse(1.0), 5.0);
}

TEST(Ols, RecoversLine) {
  Rng rng(1);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    double xi = rng.uniform(0.0, 100.0);
    x.push_back(xi);
    y.push_back(3.0 + 0.5 * xi + rng.normal(0.0, 0.1));
  }
  auto fit = ols(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 0.005);
  EXPECT_NEAR(fit.intercept, 3.0, 0.2);
  EXPECT_GT(fit.r_squared, 0.999);
  EXPECT_GT(fit.slope_stderr, 0.0);
}

TEST(Ols, Validation) {
  std::vector<double> x{1.0}, y{2.0};
  EXPECT_THROW(ols(x, y), InvalidArgument);
  std::vector<double> xc{1.0, 1.0}, yc{1.0, 2.0};
  EXPECT_THROW(ols(xc, yc), InvalidArgument);
}

TEST(TheilSen, RobustToOutliers) {
  Rng rng(2);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    double xi = static_cast<double>(i);
    x.push_back(xi);
    // 20% gross outliers.
    double noise = (i % 5 == 0) ? 500.0 : rng.normal(0.0, 0.5);
    y.push_back(2.0 + 0.25 * xi + noise);
  }
  auto robust = theil_sen(x, y);
  EXPECT_NEAR(robust.slope, 0.25, 0.01);
  auto naive = ols(x, y);
  EXPECT_GT(std::abs(naive.intercept - 2.0),
            std::abs(robust.intercept - 2.0));
}

TEST(TheilSen, SlopeWithScratchMatchesFullFit) {
  // One scratch buffer across fits of different sizes (even and odd pair
  // counts, tied x) gives theil_sen's slope bit for bit.
  Rng rng(5);
  std::vector<double> scratch;
  for (std::size_t n : {2u, 5u, 6u, 40u, 7u}) {
    std::vector<double> x, y;
    for (std::size_t i = 0; i < n; ++i) {
      x.push_back(std::floor(rng.uniform(0.0, 8.0)));
      y.push_back(1.0 + 0.5 * x.back() + rng.normal(0.0, 0.3));
    }
    x[0] = x[1] + 1.0;  // never constant
    EXPECT_EQ(std::bit_cast<std::uint64_t>(theil_sen_slope(x, y, scratch)),
              std::bit_cast<std::uint64_t>(theil_sen(x, y).slope))
        << n;
  }
  std::vector<double> flat_x{3, 3, 3}, y{1, 2, 3};
  EXPECT_THROW(theil_sen_slope(flat_x, y, scratch), InvalidArgument);
}

TEST(OlsThroughOrigin, Slope) {
  std::vector<double> x{1, 2, 3}, y{2, 4, 6};
  auto fit = ols_through_origin(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_EQ(fit.intercept, 0.0);
}

TEST(Polyfit, RecoversCubic) {
  std::vector<double> x, y;
  for (int i = -20; i <= 20; ++i) {
    double xi = i * 0.25;
    x.push_back(xi);
    y.push_back(1.0 - 2.0 * xi + 0.5 * xi * xi + 0.125 * xi * xi * xi);
  }
  auto p = polyfit(x, y, 3);
  ASSERT_EQ(p.coeffs.size(), 4u);
  EXPECT_NEAR(p.coeffs[0], 1.0, 1e-6);
  EXPECT_NEAR(p.coeffs[1], -2.0, 1e-6);
  EXPECT_NEAR(p.coeffs[2], 0.5, 1e-6);
  EXPECT_NEAR(p.coeffs[3], 0.125, 1e-6);
  EXPECT_NEAR(p(2.0), 1.0 - 4.0 + 2.0 + 1.0, 1e-6);
  EXPECT_NEAR(p.derivative(0.0), -2.0, 1e-6);
}

TEST(Polyfit, MonotoneConstraint) {
  // Hump-shaped data: the unconstrained cubic would decrease; the
  // constrained fit must not.
  std::vector<double> x, y;
  for (int i = 0; i <= 40; ++i) {
    double xi = i * 0.25;
    x.push_back(xi);
    y.push_back(xi <= 5.0 ? xi : 10.0 - xi);
  }
  auto unconstrained = polyfit(x, y, 3);
  EXPECT_FALSE(is_non_decreasing(unconstrained, 0.0, 10.0));
  auto constrained = polyfit_monotone(x, y, 3);
  EXPECT_TRUE(is_non_decreasing(constrained, 0.0, 10.0, 1e-6));
}

TEST(Polyfit, MonotoneKeepsGoodFit) {
  // Already-increasing data: constraint shouldn't distort the fit.
  std::vector<double> x, y;
  for (int i = 0; i <= 30; ++i) {
    double xi = i * 0.3;
    x.push_back(xi);
    y.push_back(xi * xi);
  }
  auto p = polyfit_monotone(x, y, 3);
  EXPECT_NEAR(p(3.0), 9.0, 0.5);
  EXPECT_NEAR(p(6.0), 36.0, 1.0);
}

TEST(Hull, Square) {
  std::vector<Point2> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}};
  auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 4u);
}

TEST(Hull, Degenerate) {
  std::vector<Point2> one{{1, 2}};
  EXPECT_EQ(convex_hull(one).size(), 1u);
  std::vector<Point2> dup{{1, 2}, {1, 2}, {1, 2}};
  EXPECT_EQ(convex_hull(dup).size(), 1u);
  std::vector<Point2> line{{0, 0}, {1, 1}, {2, 2}};
  auto hull = convex_hull(line);
  EXPECT_LE(hull.size(), 2u);
}

TEST(PiecewiseLinear, EvaluateAndExtend) {
  PiecewiseLinear f({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(2.0), 2.0);
  EXPECT_DOUBLE_EQ(f(-1.0), -2.0);  // extended with first slope
  EXPECT_DOUBLE_EQ(f(4.0), 2.0);    // extended with last slope (flat)
  EXPECT_THROW(PiecewiseLinear({{1.0, 0.0}, {1.0, 2.0}}), InvalidArgument);
}

TEST(Envelope, UpperBoundsAllPoints) {
  Rng rng(3);
  std::vector<Point2> pts;
  for (int i = 0; i < 300; ++i) {
    double x = rng.uniform(0.0, 100.0);
    pts.push_back({x, 2.0 * x + rng.uniform(-20.0, 20.0)});
  }
  auto env = upper_envelope(pts, 100.0);
  for (const auto& p : pts) {
    EXPECT_GE(env(p.x), p.y - 1e-6);
  }
}

TEST(Envelope, LowerBoundsAllPointsBelowCutoff) {
  Rng rng(4);
  std::vector<Point2> pts;
  for (int i = 0; i < 300; ++i) {
    double x = rng.uniform(0.0, 100.0);
    pts.push_back({x, 2.0 * x + rng.uniform(0.0, 40.0)});
  }
  auto env = lower_envelope(pts, 100.0);
  for (const auto& p : pts) {
    EXPECT_LE(env(p.x), p.y + 1e-6);
  }
}

TEST(LinModel, FitMatchesOls) {
  Rng rng(5);
  const std::size_t n = 300;
  DesignMatrix x(n, 2);
  std::vector<double> xs, y;
  for (std::size_t i = 0; i < n; ++i) {
    double xi = rng.uniform(0.0, 10.0);
    x.at(i, 0) = 1.0;
    x.at(i, 1) = xi;
    xs.push_back(xi);
    y.push_back(1.5 + 2.5 * xi + rng.normal(0.0, 0.3));
  }
  auto fit = fit_linear_model(x, y);
  auto simple = ols(xs, y);
  EXPECT_NEAR(fit.coefficients[0], simple.intercept, 1e-6);
  EXPECT_NEAR(fit.coefficients[1], simple.slope, 1e-6);
  EXPECT_NEAR(fit.r_squared, simple.r_squared, 1e-9);
}

TEST(LinModel, AnovaDetectsRealFactor) {
  // y depends on x and a binary group; the nested F test must find the
  // group significant.
  Rng rng(6);
  const std::size_t n = 400;
  DesignMatrix small(n, 2), large(n, 3);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    double xi = rng.uniform(0.0, 10.0);
    double group = (i % 2 == 0) ? 1.0 : 0.0;
    small.at(i, 0) = 1.0;
    small.at(i, 1) = xi;
    large.at(i, 0) = 1.0;
    large.at(i, 1) = xi;
    large.at(i, 2) = group;
    y.push_back(2.0 + 0.7 * xi + 3.0 * group + rng.normal(0.0, 0.5));
  }
  auto fs = fit_linear_model(small, y);
  auto fl = fit_linear_model(large, y);
  auto r = anova_nested(fs, fl);
  EXPECT_GT(r.f_statistic, 50.0);
  EXPECT_LT(r.p_value, 1e-10);
}

TEST(LinModel, AnovaIgnoresNoiseFactor) {
  Rng rng(7);
  const std::size_t n = 400;
  DesignMatrix small(n, 2), large(n, 3);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    double xi = rng.uniform(0.0, 10.0);
    small.at(i, 0) = 1.0;
    small.at(i, 1) = xi;
    large.at(i, 0) = 1.0;
    large.at(i, 1) = xi;
    large.at(i, 2) = rng.uniform(0.0, 1.0);  // irrelevant predictor
    y.push_back(2.0 + 0.7 * xi + rng.normal(0.0, 0.5));
  }
  auto r = anova_nested(fit_linear_model(small, y),
                        fit_linear_model(large, y));
  EXPECT_GT(r.p_value, 0.01);
}

TEST(Special, LogGamma) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-10);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-10);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(log_gamma(0.5), std::log(std::sqrt(std::numbers::pi)), 1e-10);
  EXPECT_THROW(log_gamma(0.0), InvalidArgument);
}

TEST(Special, IncompleteBeta) {
  // I_x(1,1) = x.
  EXPECT_NEAR(incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-10);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(incomplete_beta(2.0, 3.0, 0.4),
              1.0 - incomplete_beta(3.0, 2.0, 0.6), 1e-10);
  EXPECT_EQ(incomplete_beta(2.0, 2.0, 0.0), 0.0);
  EXPECT_EQ(incomplete_beta(2.0, 2.0, 1.0), 1.0);
}

TEST(Special, FDistribution) {
  // Median of F(d,d) is 1 for symmetric dfs.
  EXPECT_NEAR(f_distribution_sf(1.0, 10.0, 10.0), 0.5, 1e-9);
  EXPECT_GT(f_distribution_sf(0.5, 5.0, 20.0), 0.5);
  EXPECT_LT(f_distribution_sf(5.0, 5.0, 20.0), 0.05);
  EXPECT_EQ(f_distribution_sf(-1.0, 5.0, 5.0), 1.0);
}

TEST(Special, TDistribution) {
  // Symmetric: sf(0) = 0.5.
  EXPECT_NEAR(t_distribution_sf(0.0, 7.0), 0.5, 1e-10);
  // Large nu approaches the normal tail.
  EXPECT_NEAR(t_distribution_sf(1.96, 1e6), 0.025, 1e-3);
  EXPECT_NEAR(t_distribution_sf(-1.96, 1e6), 0.975, 1e-3);
}

TEST(Rng, Determinism) {
  Rng a(123, "stream"), b(123, "stream"), c(123, "other");
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.uniform_index(7), 7u);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(5.0, 2.0);
  auto s = summarize(xs);
  EXPECT_NEAR(s.mean, 5.0, 0.1);
  EXPECT_NEAR(s.stddev, 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.exponential(3.0);
  EXPECT_NEAR(summarize(xs).mean, 3.0, 0.15);
}

// Parameterized property: bestline-style quantile bounds hold for any
// seed — quantile(q1) <= quantile(q2) for q1 <= q2.
class QuantileOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileOrder, Monotone) {
  Rng rng(GetParam());
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.lognormal(1.0, 1.0);
  double prev = quantile(xs, 0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    double v = quantile(xs, q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileOrder,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

}  // namespace
}  // namespace ageo::stats
