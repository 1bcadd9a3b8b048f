#pragma once
/// \file trainer.h
/// \brief Maximum-likelihood hyperparameter training for GP regressors.
///
/// Maximizes the log marginal likelihood over the flat log-hyperparameter
/// vector with Adam (analytic gradients from GpRegressor::lml_gradient()),
/// multi-started from the current parameters plus random restarts. Box
/// constraints in log space keep lengthscales/noise in sane ranges for
/// inputs normalized to [0,1]^d and standardized targets.

#include <cmath>

#include "common/rng.h"
#include "common/stop_token.h"
#include "gp/gp.h"

namespace easybo::gp {

/// Adam step size in log space.
inline constexpr double kTrainerLearningRate = 0.1;
/// A start stops descending once |grad|_inf < kTrainerGradTol.
inline constexpr double kTrainerGradTol = 1e-5;

/// Box constraints in log space, assuming x in [0,1]^d and z-scored y.
inline const double kLogSf2Min = std::log(1e-4);
inline const double kLogSf2Max = std::log(1e4);
inline const double kLogLenMin = std::log(5e-3);
inline const double kLogLenMax = std::log(1e2);
inline const double kLogNoiseMin = std::log(1e-8);
inline const double kLogNoiseMax = std::log(1e-1);

/// Options for the MLE trainer; defaults are tuned for the experiment
/// regime of the paper (n <= ~500, d <= ~16, normalized inputs). The step
/// size, tolerance and box above are fixed: no program varies them.
struct TrainerOptions {
  int max_iters = 40;          ///< Adam steps per start
  int restarts = 2;            ///< random restarts in addition to warm start
};

/// Result of one training call.
struct TrainResult {
  double log_marginal_likelihood = 0.0;
  int iterations = 0;   ///< total Adam steps across all starts
  int starts = 0;       ///< number of starts actually run
};

/// Trains \p model in place: on return the model holds the best
/// hyperparameters found and is fitted. The warm start (current parameters)
/// is always one of the candidates — and is fitted and scored exactly once
/// — so training can never make the stored likelihood worse.
///
/// \p stop is polled between Adam iterations and between restarts;
/// common::Cancelled unwinds mid-training with the model left at
/// whatever hyperparameters the last evaluate() set — callers must
/// treat the model as dirty and discard or refit it (the serve layer
/// drops the whole session object). Polls consume no RNG.
TrainResult train_mle(GpRegressor& model, Rng& rng,
                      const TrainerOptions& options = {},
                      const common::StopToken* stop = nullptr);

}  // namespace easybo::gp
