// Tests for gp/trainer.h: MLE training improves the marginal likelihood,
// respects its box constraints, and recovers known structure.

#include "gp/trainer.h"

#include <gtest/gtest.h>

#include "gp/gp.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.h"
#include "obs/recording.h"

namespace easybo::gp {
namespace {

std::vector<Vec> grid_1d(std::size_t n) {
  std::vector<Vec> xs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back({static_cast<double>(i) / static_cast<double>(n - 1)});
  }
  return xs;
}

TEST(Trainer, ImprovesLogMarginalLikelihood) {
  Rng rng(1);
  const auto xs = grid_1d(20);
  Vec ys(20);
  for (std::size_t i = 0; i < 20; ++i) {
    ys[i] = std::sin(6.0 * xs[i][0]) + 0.05 * rng.normal();
  }
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-2);
  gp.set_data(xs, ys);
  gp.fit();
  const double before = gp.log_marginal_likelihood();

  const auto result = train_mle(gp, rng);
  EXPECT_GE(result.log_marginal_likelihood, before - 1e-9);
  EXPECT_GT(result.iterations, 0);
  EXPECT_TRUE(gp.fitted());
}

TEST(Trainer, WarmStartCannotRegress) {
  // If the current parameters are already excellent, training must not
  // return anything worse (warm start is always a candidate).
  Rng rng(2);
  const auto xs = grid_1d(15);
  Vec ys(15);
  for (std::size_t i = 0; i < 15; ++i) ys[i] = std::sin(5.0 * xs[i][0]);

  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-4);
  gp.set_data(xs, ys);
  auto first = train_mle(gp, rng);
  auto second = train_mle(gp, rng);
  EXPECT_GE(second.log_marginal_likelihood,
            first.log_marginal_likelihood - 1e-6);
}

TEST(Trainer, RespectsNoiseBounds) {
  Rng rng(3);
  const auto xs = grid_1d(10);
  Vec ys(10);
  for (std::size_t i = 0; i < 10; ++i) ys[i] = xs[i][0];
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-4);
  gp.set_data(xs, ys);
  train_mle(gp, rng);
  EXPECT_GE(gp.noise_variance(), std::exp(kLogNoiseMin) * 0.99);
  EXPECT_LE(gp.noise_variance(), std::exp(kLogNoiseMax) * 1.01);
}

TEST(Trainer, LearnsShortLengthscaleForWigglyData) {
  // A fast-oscillating function needs a lengthscale well below 1; a nearly
  // linear function tolerates a long one. Train both, compare.
  Rng rng(4);
  const auto xs = grid_1d(30);
  Vec wiggly(30), smooth(30);
  for (std::size_t i = 0; i < 30; ++i) {
    wiggly[i] = std::sin(25.0 * xs[i][0]);
    smooth[i] = 2.0 * xs[i][0];
  }

  auto train_lengthscale = [&](const Vec& ys) {
    GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-4);
    gp.set_data(xs, ys);
    TrainerOptions opt;
    opt.max_iters = 80;
    opt.restarts = 3;
    train_mle(gp, rng, opt);
    return std::exp(gp.kernel().log_params()[1]);
  };

  EXPECT_LT(train_lengthscale(wiggly), train_lengthscale(smooth));
}

TEST(Trainer, TrainedModelPredictsHeldOutData) {
  Rng rng(5);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform();
    xs.push_back({x});
    ys.push_back(std::sin(8.0 * x));
  }
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-3);
  gp.set_data(xs, ys);
  TrainerOptions opt;
  opt.restarts = 3;
  opt.max_iters = 60;
  train_mle(gp, rng, opt);

  double mse = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.02 * i + 0.01;
    const double err = gp.predict({x}).mean - std::sin(8.0 * x);
    mse += err * err;
  }
  mse /= 50.0;
  EXPECT_LT(mse, 0.01);
}

TEST(Trainer, RejectsEmptyModelAndBadOptions) {
  Rng rng(6);
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-3);
  EXPECT_THROW(train_mle(gp, rng), InvalidArgument);

  gp.set_data({{0.5}}, {1.0});
  TrainerOptions opt;
  opt.max_iters = 0;
  EXPECT_THROW(train_mle(gp, rng, opt), InvalidArgument);
}

// Regression: the warm start's baseline fit is evaluated ONCE and handed
// to the descent, not recomputed. Observable as exactly three covariance
// factorizations for one Adam step and no restarts: the baseline
// evaluation, the step's evaluation, and the final refit at the winner.
// The pre-fix code refitted the identical warm-start covariance a fourth
// time.
TEST(Trainer, WarmStartEvaluatesTheBaselineOnce) {
  Rng rng(8);
  const auto xs = grid_1d(12);
  Vec ys(12);
  for (std::size_t i = 0; i < 12; ++i) ys[i] = std::sin(5.0 * xs[i][0]);
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-3);
  gp.set_data(xs, ys);
  gp.fit();
  // The gradient is above the trainer's tolerance, so the step is taken.
  double gmax = 0.0;
  for (double g : gp.lml_gradient()) gmax = std::max(gmax, std::abs(g));
  ASSERT_GT(gmax, kTrainerGradTol);

  easybo::obs::RecordingSink sink;
  gp.set_trace(&sink);
  TrainerOptions opt;
  opt.max_iters = 1;
  opt.restarts = 0;
  train_mle(gp, rng, opt);
  EXPECT_EQ(sink.counter("gp.chol_refactor"), 3u);
}

TEST(Trainer, WorksWithMatern) {
  Rng rng(7);
  const auto xs = grid_1d(15);
  Vec ys(15);
  for (std::size_t i = 0; i < 15; ++i) ys[i] = std::cos(4.0 * xs[i][0]);
  GpRegressor gp(std::make_unique<Matern52Ard>(1), 1e-3);
  gp.set_data(xs, ys);
  gp.fit();
  const double before = gp.log_marginal_likelihood();
  const auto result = train_mle(gp, rng);
  EXPECT_GE(result.log_marginal_likelihood, before - 1e-9);
}

}  // namespace
}  // namespace easybo::gp
