#include "opt/sa.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace easybo::opt {

namespace {

constexpr double kInitialTemp = 1.0;   ///< in the objective's units
constexpr double kCooling = 0.995;     ///< geometric cooling per evaluation
constexpr double kInitialStep = 0.25;  ///< proposal stddev, box fraction
constexpr double kFinalStep = 0.01;    ///< the step shrinks toward this

}  // namespace

OptResult sa_maximize(const Objective& fn, const Bounds& bounds, Rng& rng,
                      std::size_t max_evals, const EvalObserver& observer) {
  bounds.validate();
  EASYBO_REQUIRE(max_evals >= 2, "SA needs at least two evaluations");
  const std::size_t d = bounds.dim();

  OptResult result;
  auto evaluate = [&](const Vec& x) {
    const double y = fn(x);
    if (observer) observer(x, y, result.num_evals);
    ++result.num_evals;
    if (result.history.empty() || y > result.best_y) {
      result.best_y = y;
      result.best_x = x;
    }
    result.history.push_back(result.best_y);
    return y;
  };

  Vec current(d);
  for (std::size_t j = 0; j < d; ++j) {
    current[j] = rng.uniform(bounds.lower[j], bounds.upper[j]);
  }
  double current_y = evaluate(current);

  double temp = kInitialTemp;
  // Geometric step-size schedule synced to the evaluation budget.
  const double steps = static_cast<double>(max_evals);
  const double step_decay =
      std::pow(kFinalStep / kInitialStep, 1.0 / steps);
  double step = kInitialStep;

  while (result.num_evals < max_evals) {
    Vec proposal = current;
    for (std::size_t j = 0; j < d; ++j) {
      const double width = bounds.upper[j] - bounds.lower[j];
      proposal[j] = std::clamp(proposal[j] + rng.normal(0.0, step * width),
                               bounds.lower[j], bounds.upper[j]);
    }
    const double y = evaluate(proposal);
    const double delta = y - current_y;  // maximization: positive is better
    if (delta >= 0.0 || rng.uniform() < std::exp(delta / std::max(temp, 1e-12))) {
      current = std::move(proposal);
      current_y = y;
    }
    temp *= kCooling;
    step *= step_decay;
  }
  return result;
}

}  // namespace easybo::opt
