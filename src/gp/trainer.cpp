#include "gp/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace easybo::gp {

namespace {

/// Clamps the flat log-hyperparameter vector into the trainer's box.
/// Layout: [log sf2, log l_1..log l_d, log sn2].
void clamp_params(Vec& lp) {
  lp.front() = std::clamp(lp.front(), kLogSf2Min, kLogSf2Max);
  for (std::size_t i = 1; i + 1 < lp.size(); ++i) {
    lp[i] = std::clamp(lp[i], kLogLenMin, kLogLenMax);
  }
  lp.back() = std::clamp(lp.back(), kLogNoiseMin, kLogNoiseMax);
}

/// Random start: unit signal variance, lengthscales log-uniform in a
/// moderate band, small noise.
Vec random_start(std::size_t num_params, Rng& rng) {
  Vec lp(num_params);
  lp.front() = rng.uniform(std::log(0.5), std::log(4.0));
  for (std::size_t i = 1; i + 1 < num_params; ++i) {
    lp[i] = rng.uniform(std::log(0.05), std::log(2.0));
  }
  lp.back() = rng.uniform(kLogNoiseMin, std::log(1e-3));
  clamp_params(lp);
  return lp;
}

/// Fits the model at lp and returns the LML, or -inf when the covariance is
/// numerically hopeless at these hyperparameters.
double evaluate(GpRegressor& model, const Vec& lp) {
  model.set_log_hyperparams(lp);
  try {
    model.fit();
    const double lml = model.log_marginal_likelihood();
    return std::isfinite(lml) ? lml
                              : -std::numeric_limits<double>::infinity();
  } catch (const NumericalError&) {
    return -std::numeric_limits<double>::infinity();
  }
}

}  // namespace

TrainResult train_mle(GpRegressor& model, Rng& rng,
                      const TrainerOptions& opt,
                      const common::StopToken* stop) {
  EASYBO_REQUIRE(model.num_points() > 0, "train_mle: model has no data");
  EASYBO_REQUIRE(opt.max_iters >= 1 && opt.restarts >= 0,
                 "train_mle: invalid options");

  const std::size_t p = model.log_hyperparams().size();
  TrainResult result;

  Vec best_lp = model.log_hyperparams();
  clamp_params(best_lp);
  double best_lml = evaluate(model, best_lp);

  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;

  // Runs Adam from `start`, whose fit and likelihood `start_lml` the caller
  // already computed — the model must currently be fitted at `start`. This
  // shape lets the warm start reuse its baseline evaluation instead of
  // refitting the same O(n^3) covariance twice.
  const auto descend = [&](const Vec& start, double start_lml) {
    ++result.starts;
    if (!std::isfinite(start_lml)) return;
    Vec lp = start;
    double lml = start_lml;

    Vec m(p, 0.0), v(p, 0.0);
    for (int it = 1; it <= opt.max_iters; ++it) {
      if (stop != nullptr) stop->check("hyperparameter training");
      ++result.iterations;
      const Vec grad = model.lml_gradient();
      double gmax = 0.0;
      for (double g : grad) gmax = std::max(gmax, std::abs(g));
      if (gmax < kTrainerGradTol) break;

      // Adam ascent step in log space.
      Vec next = lp;
      for (std::size_t i = 0; i < p; ++i) {
        m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
        v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
        const double mhat = m[i] / (1.0 - std::pow(kBeta1, it));
        const double vhat = v[i] / (1.0 - std::pow(kBeta2, it));
        next[i] += kTrainerLearningRate * mhat / (std::sqrt(vhat) + kEps);
      }
      clamp_params(next);

      const double next_lml = evaluate(model, next);
      if (!std::isfinite(next_lml)) break;  // stepped into a bad region
      lp = next;
      lml = next_lml;
    }

    if (lml > best_lml) {
      best_lml = lml;
      best_lp = lp;
    }
  };

  descend(best_lp, best_lml);  // warm start, already evaluated above
  for (int r = 0; r < opt.restarts; ++r) {
    if (stop != nullptr) stop->check("hyperparameter training restart");
    const Vec start = random_start(p, rng);
    descend(start, evaluate(model, start));
  }

  // Leave the model fitted at the best hyperparameters found.
  model.set_log_hyperparams(best_lp);
  model.fit();
  result.log_marginal_likelihood = model.log_marginal_likelihood();
  return result;
}

}  // namespace easybo::gp
