#include "bo/constrained.h"

#include <algorithm>

#include "bo/engine.h"
#include "common/error.h"

namespace easybo::bo {

double total_violation(const Vec& g) {
  double acc = 0.0;
  for (const double v : g) acc += std::max(-v, 0.0);
  return acc;
}

ConstrainedResult run_constrained_bo(
    const BoConfig& config, const opt::Bounds& bounds,
    const opt::Objective& objective,
    const std::vector<Constraint>& constraints,
    const std::function<double(const Vec&)>& sim_time) {
  EASYBO_REQUIRE(!constraints.empty(),
                 "run_constrained_bo needs at least one constraint; use the "
                 "plain engine otherwise");
  BoEngine engine(config, bounds, objective, sim_time, constraints);
  ConstrainedResult result;
  static_cast<BoResult&>(result) = engine.run();
  result.best_constraints = engine.core().best_g();
  result.found_feasible = total_violation(result.best_constraints) == 0.0;
  for (const EvalRecord& e : result.evals) {
    if (!e.failed && total_violation(e.g) == 0.0) ++result.num_feasible;
  }
  return result;
}

}  // namespace easybo::bo
