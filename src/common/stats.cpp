#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace easybo {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  EASYBO_REQUIRE(n_ > 0, "mean of empty sample");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  EASYBO_REQUIRE(n_ > 0, "min of empty sample");
  return min_;
}

double RunningStats::max() const {
  EASYBO_REQUIRE(n_ > 0, "max of empty sample");
  return max_;
}

Summary summarize(const std::vector<double>& values) {
  EASYBO_REQUIRE(!values.empty(), "summarize of empty vector");
  RunningStats rs;
  for (double v : values) rs.add(v);
  Summary s;
  s.best = rs.max();
  s.worst = rs.min();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.n = rs.count();
  return s;
}

double median_of(std::vector<double> values) {
  return quantile_of(std::move(values), 0.5);
}

double quantile_of(std::vector<double> values, double q) {
  EASYBO_REQUIRE(!values.empty(), "quantile of empty vector");
  EASYBO_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace easybo
