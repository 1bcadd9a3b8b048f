// Unit tests for common/stats.h.

#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace easybo {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  // Sample variance with n-1 denominator.
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
}

TEST(RunningStats, SinglePointHasZeroVariance) {
  RunningStats rs;
  rs.add(3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 3.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats rs;
  EXPECT_THROW(rs.mean(), InvalidArgument);
  EXPECT_THROW(rs.min(), InvalidArgument);
  EXPECT_THROW(rs.max(), InvalidArgument);
}

TEST(RunningStats, NumericallyStableOnLargeOffset) {
  // Welford should not lose the variance of small deviations around a
  // large mean.
  RunningStats rs;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) rs.add(1e9 + rng.normal());
  EXPECT_NEAR(rs.stddev(), 1.0, 0.05);
}

TEST(Summary, BestWorstConvention) {
  // The paper maximizes FOM: Best = max, Worst = min.
  const auto s = summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.best, 3.0);
  EXPECT_DOUBLE_EQ(s.worst, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.n, 3u);
}

TEST(Summary, EmptyThrows) {
  EXPECT_THROW(summarize({}), InvalidArgument);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Quantile, Endpoints) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 4.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.25), 2.5);
}

TEST(Quantile, RejectsOutOfRangeLevel) {
  EXPECT_THROW(quantile_of({1.0}, -0.1), InvalidArgument);
  EXPECT_THROW(quantile_of({1.0}, 1.1), InvalidArgument);
}

}  // namespace
}  // namespace easybo
