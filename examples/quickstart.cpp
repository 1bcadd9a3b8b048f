/// \file quickstart.cpp
/// \brief Minimal end-to-end use of the EasyBO public API.
///
/// Optimizes the 6-D Hartmann function (a standard BO benchmark) with
/// asynchronous batch EasyBO and prints the result. This is the program
/// from the README's quickstart section.

#include <cstdio>

#include "core/easybo.h"

int main() {
  // 1. Describe the problem: a box-bounded maximization. Any callable
  //    double(const std::vector<double>&) works — plug in your simulator.
  const auto hartmann = easybo::circuit::hartmann6();

  // 2. Configure the optimizer. Defaults are the paper's EasyBO:
  //    asynchronous batch, randomized-weight UCB (Eq. 8), hallucination
  //    penalization (Eq. 9).
  easybo::bo::BoConfig config;
  config.batch = 5;        // number of parallel workers
  config.init_points = 20; // random initial design
  config.max_sims = 120;   // total evaluation budget
  config.seed = 42;

  // 3. Run on virtual time. A null sim_time (the default) costs each
  //    evaluation 1 virtual second.
  const easybo::bo::BoResult result =
      easybo::bo::run_bo(config, hartmann.bounds, hartmann.fn);

  // 4. Inspect.
  std::printf("best value : %.5f (global optimum %.5f)\n", result.best_y,
              hartmann.max_value);
  std::printf("best point :");
  for (double v : result.best_x) std::printf(" %.4f", v);
  std::printf("\nevaluations: %zu, virtual makespan: %.0f s, pool "
              "utilization: %.0f%%\n",
              result.num_evals(), result.makespan,
              100.0 * result.utilization(config.batch));
  return 0;
}
