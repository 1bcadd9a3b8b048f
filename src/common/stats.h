#pragma once
/// \file stats.h
/// \brief Small statistics helpers for experiment summaries.

#include <cstddef>
#include <vector>

namespace easybo {

/// Numerically stable (Welford) running mean / variance / extrema.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number style summary used for the paper's Best/Worst/Mean/Std rows.
struct Summary {
  double best = 0.0;   ///< maximum (the paper maximizes FOM)
  double worst = 0.0;  ///< minimum
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t n = 0;
};

/// Summary of a non-empty vector of values. Throws InvalidArgument if empty.
Summary summarize(const std::vector<double>& values);

/// Median (averages the middle pair for even sizes); throws if empty.
double median_of(std::vector<double> values);

/// Linear-interpolation quantile, q in [0,1]; throws if empty.
double quantile_of(std::vector<double> values, double q);

}  // namespace easybo
