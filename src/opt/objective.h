#pragma once
/// \file objective.h
/// \brief Common types for the black-box optimizers in src/opt.
///
/// Everything in this library MAXIMIZES, matching the paper's formulation
/// (Eq. 1: maximize FOM). Minimize by negating the objective.

#include <functional>
#include <vector>

#include "linalg/vec.h"

namespace easybo::opt {

using linalg::Vec;

/// Black-box objective: higher is better.
using Objective = std::function<double(const Vec&)>;

/// Builds a weighted-sum FOM (paper Eq. 1): sum_i alpha_i * f_i(x).
/// Metrics and weights must have equal, non-zero size.
Objective make_weighted_fom(std::vector<Objective> metrics,
                            std::vector<double> weights);

/// Rectangular search domain.
struct Bounds {
  Vec lower;
  Vec upper;

  std::size_t dim() const { return lower.size(); }

  /// Validates lower < upper element-wise; throws InvalidArgument otherwise.
  void validate() const;
};

/// Shared result shape for all src/opt optimizers.
struct OptResult {
  Vec best_x;
  double best_y = 0.0;
  std::size_t num_evals = 0;
  /// best-so-far objective after each evaluation (length == num_evals);
  /// the convergence curves in the benches are drawn from this.
  Vec history;
};

/// Optional per-evaluation observer: (x, y, eval_index). The experiment
/// harness uses it to account virtual simulation time for baselines.
using EvalObserver = std::function<void(const Vec&, double, std::size_t)>;

}  // namespace easybo::opt
