#include "opt/de.h"

#include <algorithm>

#include "common/error.h"

namespace easybo::opt {

namespace {

constexpr std::size_t kPopulation = 50;
constexpr double kWeight = 0.6;     ///< differential weight F
constexpr double kCrossover = 0.9;  ///< crossover probability CR

}  // namespace

OptResult de_maximize(const Objective& fn, const Bounds& bounds, Rng& rng,
                      std::size_t max_evals, const EvalObserver& observer) {
  bounds.validate();
  EASYBO_REQUIRE(max_evals >= kPopulation,
                 "DE budget must cover the initial population");
  const std::size_t d = bounds.dim();
  const std::size_t np = kPopulation;

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

  // Initial population: uniform random in the box.
  std::vector<Vec> pop(np, Vec(d));
  Vec fitness(np);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      pop[i][j] = rng.uniform(bounds.lower[j], bounds.upper[j]);
    }
    fitness[i] = evaluate(pop[i]);
  }

  std::size_t best_idx = linalg::argmax(fitness);
  while (result.num_evals < max_evals) {
    for (std::size_t i = 0; i < np && result.num_evals < max_evals; ++i) {
      // Pick distinct donors, all different from i. best/1/bin reads only
      // a and b; c is drawn all the same, because its draws are part of
      // the RNG sequence every seeded DE result reproduces.
      std::size_t a, b, c;
      do { a = rng.index(np); } while (a == i);
      do { b = rng.index(np); } while (b == i || b == a);
      do { c = rng.index(np); } while (c == i || c == a || c == b);

      Vec trial = pop[i];
      const std::size_t forced = rng.index(d);  // at least one gene crosses
      for (std::size_t j = 0; j < d; ++j) {
        if (j != forced && !rng.bernoulli(kCrossover)) continue;
        const double v = pop[best_idx][j] + kWeight * (pop[a][j] - pop[b][j]);
        trial[j] = std::clamp(v, bounds.lower[j], bounds.upper[j]);
      }

      const double trial_fitness = evaluate(trial);
      if (trial_fitness >= fitness[i]) {
        pop[i] = std::move(trial);
        fitness[i] = trial_fitness;
        if (trial_fitness > fitness[best_idx]) best_idx = i;
      }
    }
  }
  return result;
}

}  // namespace easybo::opt
