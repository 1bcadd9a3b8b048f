// Tests for the O(n^2) incremental fit path: Cholesky::extend and the
// GpRegressor append-then-fit fast path must agree exactly with full
// refactorization.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.h"
#include "common/rng.h"
#include "gp/gp.h"
#include "linalg/cholesky.h"
#include "obs/recording.h"

namespace easybo {
namespace {

using gp::GpRegressor;
using gp::SquaredExponentialArd;
using gp::Vec;
using linalg::Cholesky;
using linalg::Matrix;

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = linalg::gram(b);
  a.add_diagonal(static_cast<double>(n));
  return a;
}

TEST(CholeskyExtend, MatchesFullFactorization) {
  Rng rng(1);
  const std::size_t n = 12;
  const Matrix a = random_spd(n + 1, rng);

  // Factor the leading n x n block, then extend with the last column.
  Matrix leading(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) leading(i, j) = a(i, j);
  }
  Cholesky incremental(leading);
  Vec column(n + 1);
  for (std::size_t i = 0; i <= n; ++i) column[i] = a(i, n);
  ASSERT_TRUE(incremental.extend(column));

  const Cholesky full(a);
  EXPECT_TRUE(incremental.factor().approx_equal(full.factor(), 1e-9));
  EXPECT_NEAR(incremental.log_det(), full.log_det(), 1e-9);

  // Solves agree too.
  Vec rhs(n + 1);
  for (auto& v : rhs) v = rng.normal();
  const Vec xi = incremental.solve(rhs);
  const Vec xf = full.solve(rhs);
  for (std::size_t i = 0; i <= n; ++i) EXPECT_NEAR(xi[i], xf[i], 1e-8);
}

TEST(CholeskyExtend, RepeatedExtensionsFromScalar) {
  Rng rng(2);
  const std::size_t n = 20;
  const Matrix a = random_spd(n, rng);
  Matrix first(1, 1);
  first(0, 0) = a(0, 0);
  Cholesky chol(first);
  for (std::size_t k = 1; k < n; ++k) {
    Vec column(k + 1);
    for (std::size_t i = 0; i <= k; ++i) column[i] = a(i, k);
    ASSERT_TRUE(chol.extend(column)) << "at size " << k;
  }
  EXPECT_TRUE(chol.factor().approx_equal(Cholesky(a).factor(), 1e-8));
}

TEST(CholeskyExtend, RefusesIndefiniteExtension) {
  Matrix a = {{1.0}};
  Cholesky chol(a);
  // Extending with a column making the matrix singular/indefinite:
  // [[1, 1], [1, 1]] has determinant 0.
  EXPECT_FALSE(chol.extend({1.0, 1.0}));
  // Factor unchanged after the refusal.
  EXPECT_EQ(chol.size(), 1u);
  EXPECT_DOUBLE_EQ(chol.factor()(0, 0), 1.0);
}

TEST(CholeskyExtend, RejectsWrongColumnSize) {
  Matrix a = {{2.0}};
  Cholesky chol(a);
  EXPECT_THROW(chol.extend({1.0}), InvalidArgument);
}

using linalg::CholeskyExt;

TEST(CholeskyExtView, MatchesInPlaceExtension) {
  Rng rng(21);
  const std::size_t n = 10, k = 3;
  const Matrix a = random_spd(n + k, rng);
  Matrix leading(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) leading(i, j) = a(i, j);
  }
  const Cholesky base(leading);

  // Reference: the owning factor grown column by column.
  Cholesky owned = base;
  CholeskyExt view(&base);
  for (std::size_t c = n; c < n + k; ++c) {
    Vec column(c + 1);
    for (std::size_t i = 0; i <= c; ++i) column[i] = a(i, c);
    ASSERT_TRUE(owned.extend(column));
    ASSERT_TRUE(view.extend(column));
  }
  ASSERT_EQ(view.size(), n + k);

  // The view replays the monolithic factor's arithmetic exactly: forward
  // solves are bit-identical, not merely close.
  Vec rhs(n + k);
  for (auto& v : rhs) v = rng.normal();
  const Vec zo = owned.solve_lower(rhs);
  const Vec zv = view.solve_lower(rhs);
  for (std::size_t i = 0; i < n + k; ++i) EXPECT_EQ(zv[i], zo[i]);
}

TEST(CholeskyExtView, RefusesIndefiniteExtensionAndKeepsState) {
  Matrix a = {{1.0}};
  const Cholesky base(a);
  CholeskyExt view(&base);
  ASSERT_TRUE(view.extend({0.5, 2.0}));
  // [[1, .5, 1], [.5, 2, ...], [1, ..., 1]] with the last column chosen to
  // destroy positive definiteness.
  EXPECT_FALSE(view.extend({1.0, 0.5, 0.25}));
  // The failed extension left both the view and the base untouched.
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(base.size(), 1u);
  EXPECT_DOUBLE_EQ(base.factor()(0, 0), 1.0);
}

GpRegressor make_gp(std::size_t n, Rng& rng) {
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1.0, Vec{0.3, 0.4}),
                 1e-4);
  std::vector<Vec> xs(n);
  Vec ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = {rng.uniform(), rng.uniform()};
    ys[i] = rng.normal();
  }
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();
  return gp;
}

TEST(GpIncrementalFit, AppendOnePointMatchesFullRefit) {
  Rng rng(3);
  auto incremental = make_gp(15, rng);
  GpRegressor full(incremental);

  const Vec x_new = {0.33, 0.77};
  incremental.add_point(x_new, 1.5);
  incremental.fit();  // extend path

  // Force the full path on the copy by resetting the data wholesale in a
  // different order (prefix mismatch -> refactor).
  auto xs = incremental.inputs();
  auto ys = incremental.targets();
  std::swap(xs[0], xs[1]);
  std::swap(ys[0], ys[1]);
  full.set_data(xs, ys);
  full.fit();

  for (int i = 0; i < 20; ++i) {
    const Vec probe = {rng.uniform(), rng.uniform()};
    const auto pi = incremental.predict(probe);
    const auto pf = full.predict(probe);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-8);
    EXPECT_NEAR(pi.var, pf.var, 1e-8);
  }
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              full.log_marginal_likelihood(), 1e-8);
}

TEST(GpIncrementalFit, ManyAppendsStayConsistent) {
  Rng rng(4);
  auto gp = make_gp(5, rng);
  for (int k = 0; k < 25; ++k) {
    gp.add_point({rng.uniform(), rng.uniform()}, rng.normal());
    gp.fit();
  }
  // Reference: identical data refit from scratch.
  GpRegressor fresh(std::make_unique<SquaredExponentialArd>(
                        1.0, Vec{0.3, 0.4}),
                    1e-4);
  fresh.set_data(gp.inputs(), gp.targets());
  fresh.fit();
  const Vec probe = {0.5, 0.5};
  EXPECT_NEAR(gp.predict(probe).mean, fresh.predict(probe).mean, 1e-7);
  EXPECT_NEAR(gp.predict(probe).var, fresh.predict(probe).var, 1e-7);
}

TEST(GpIncrementalFit, HyperparameterChangeForcesRefactor) {
  Rng rng(5);
  auto gp = make_gp(10, rng);
  auto lp = gp.log_hyperparams();
  lp[1] += 0.5;  // change a lengthscale
  gp.set_log_hyperparams(lp);
  gp.add_point({0.5, 0.5}, 0.0);
  gp.fit();  // must NOT reuse the stale factor
  // Verify against a fresh model with the same hyperparameters.
  GpRegressor fresh(std::make_unique<SquaredExponentialArd>(2), 1e-4);
  fresh.set_data(gp.inputs(), gp.targets());
  fresh.set_log_hyperparams(lp);
  fresh.fit();
  const Vec probe = {0.2, 0.9};
  EXPECT_NEAR(gp.predict(probe).mean, fresh.predict(probe).mean, 1e-9);
  EXPECT_NEAR(gp.predict(probe).var, fresh.predict(probe).var, 1e-9);
}

TEST(GpIncrementalFit, NearDuplicatePointFallsBackGracefully) {
  Rng rng(6);
  auto gp = make_gp(10, rng);
  const Vec existing = gp.inputs().front();
  gp.add_point(existing, gp.targets().front());  // exact duplicate
  EXPECT_NO_THROW(gp.fit());  // falls back to the jittered full factor
  EXPECT_TRUE(gp.fitted());
  EXPECT_TRUE(std::isfinite(gp.predict(existing).mean));
}

// Regression: when the base factor needed escalated jitter, the appended
// diagonals must carry that same jitter. Without it the incremental path
// factors a DIFFERENT matrix than the one the base rows encode — K +
// (noise + j) I on the old block but K + noise I on new rows — and
// predictions silently drift from any full refit by O(jitter).
TEST(GpIncrementalFit, JitteredBaseExtendMatchesEscalatedRefactor) {
  Rng rng(31);
  // Coincident cluster at kernel resolution with noise below double
  // epsilon: the Gram is the exact all-ones matrix, so the first
  // factorization must escalate jitter.
  const std::size_t n = 12;
  std::vector<Vec> xs(n);
  Vec ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = {0.4 + 1e-12 * rng.uniform(), 0.6 + 1e-12 * rng.uniform()};
    ys[i] = rng.normal();
  }
  const double noise = 1e-16;
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1.0, Vec{0.3, 0.3}),
                 noise);
  gp.set_data(xs, ys);
  gp.fit();
  const double j = gp.factor().jitter_used();
  ASSERT_GT(j, 0.0) << "setup failed to force jitter escalation";

  // Append a well-separated point: the extension itself succeeds.
  easybo::obs::RecordingSink sink;
  gp.set_trace(&sink);
  gp.add_point({0.9, 0.1}, 0.5);
  gp.fit();
  ASSERT_EQ(sink.counter("gp.chol_extend"), 1u);
  ASSERT_EQ(sink.counter("gp.chol_refactor"), 0u);

  // The factor must encode ONE consistent matrix, K + (noise + j) I over
  // all 13 points: reconstruct L L^T and compare entry by entry. The
  // pre-fix behavior left the appended diagonal short by exactly j —
  // orders of magnitude outside this tolerance.
  const SquaredExponentialArd kernel(1.0, Vec{0.3, 0.3});
  const auto& l = gp.factor().factor();
  const auto& all = gp.inputs();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t k = 0; k <= i; ++k) {
      double a_ik = 0.0;
      for (std::size_t t = 0; t <= k; ++t) a_ik += l(i, t) * l(k, t);
      const double expected =
          kernel(all[i], all[k]) + (i == k ? noise + j : 0.0);
      EXPECT_NEAR(a_ik, expected, 1e-2 * j) << "entry " << i << "," << k;
    }
  }
}

// Mid-loop extension failures are work, not progress: the rows extended
// before the failure are discarded by the refactor and reported under
// their own counter so "gp.chol_extend" keeps meaning rows SERVED by the
// fast path.
TEST(GpIncrementalFit, AbandonedExtensionRowsAreCountedSeparately) {
  Rng rng(33);
  // Noise below double precision epsilon: repeated exact duplicates leave
  // no numerical slack, so the extension chain must fail part-way.
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1.0, Vec{0.3, 0.4}),
                 1e-16);
  std::vector<Vec> xs(8);
  Vec ys(8);
  for (std::size_t i = 0; i < 8; ++i) {
    xs[i] = {rng.uniform(), rng.uniform()};
    ys[i] = rng.normal();
  }
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();

  easybo::obs::RecordingSink sink;
  gp.set_trace(&sink);
  // One good point (extends fine), then exact duplicates of a fresh point
  // until the covariance collapses and the extension is refused.
  gp.add_point({0.25, 0.75}, 0.1);
  for (int r = 0; r < 3; ++r) gp.add_point({0.5, 0.5}, 0.0);
  gp.fit();
  EXPECT_EQ(sink.counter("gp.chol_extend"), 0u);
  EXPECT_GE(sink.counter("gp.chol_extend_abandoned"), 1u);
  EXPECT_EQ(sink.counter("gp.chol_refactor"), 1u);
  EXPECT_TRUE(gp.fitted());
}

TEST(GpIncrementalFit, FittedReflectsPendingAppends) {
  Rng rng(7);
  auto gp = make_gp(8, rng);
  EXPECT_TRUE(gp.fitted());
  gp.add_point({0.1, 0.1}, 0.0);
  EXPECT_FALSE(gp.fitted());  // factor no longer covers all points
  gp.fit();
  EXPECT_TRUE(gp.fitted());
}

}  // namespace
}  // namespace easybo
