#include "opt/pso.h"

#include <algorithm>

#include "common/error.h"

namespace easybo::opt {

namespace {

// Clerc constriction coefficients.
constexpr double kInertia = 0.729;
constexpr double kCognitive = 1.49445;
constexpr double kSocial = 1.49445;
constexpr double kMaxVelocity = 0.2;  ///< per-dimension cap, box fraction

}  // namespace

OptResult pso_maximize(const Objective& fn, const Bounds& bounds, Rng& rng,
                       const PsoOptions& opt, const EvalObserver& observer) {
  bounds.validate();
  EASYBO_REQUIRE(opt.swarm >= 2, "PSO needs at least two particles");
  EASYBO_REQUIRE(opt.max_evals >= opt.swarm,
                 "PSO budget must cover the initial swarm");
  const std::size_t d = bounds.dim();
  const std::size_t n = opt.swarm;

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

  std::vector<Vec> pos(n, Vec(d)), vel(n, Vec(d)), pbest(n, Vec(d));
  Vec pbest_val(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const double width = bounds.upper[j] - bounds.lower[j];
      pos[i][j] = rng.uniform(bounds.lower[j], bounds.upper[j]);
      vel[i][j] = rng.uniform(-0.5, 0.5) * kMaxVelocity * width;
    }
    pbest[i] = pos[i];
    pbest_val[i] = evaluate(pos[i]);
  }
  std::size_t gbest = linalg::argmax(pbest_val);

  while (result.num_evals < opt.max_evals) {
    for (std::size_t i = 0; i < n && result.num_evals < opt.max_evals; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        const double width = bounds.upper[j] - bounds.lower[j];
        const double vmax = kMaxVelocity * width;
        const double r1 = rng.uniform();
        const double r2 = rng.uniform();
        double v = kInertia * vel[i][j] +
                   kCognitive * r1 * (pbest[i][j] - pos[i][j]) +
                   kSocial * r2 * (pbest[gbest][j] - pos[i][j]);
        v = std::clamp(v, -vmax, vmax);
        vel[i][j] = v;
        pos[i][j] = std::clamp(pos[i][j] + v, bounds.lower[j], bounds.upper[j]);
      }
      const double y = evaluate(pos[i]);
      if (y > pbest_val[i]) {
        pbest_val[i] = y;
        pbest[i] = pos[i];
        if (y > pbest_val[gbest]) gbest = i;
      }
    }
  }
  return result;
}

}  // namespace easybo::opt
