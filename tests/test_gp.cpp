// Unit and property tests for the GP stack: kernels (values + analytic
// gradients vs finite differences), posterior correctness (paper Eq. 2),
// the hallucinated posterior (penalization scheme, §III-C), normalizers.

#include "gp/gp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "gp/normalizer.h"
#include "linalg/cholesky.h"

namespace easybo::gp {
namespace {

std::vector<Vec> random_points(std::size_t n, std::size_t d, Rng& rng) {
  std::vector<Vec> xs(n, Vec(d));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.uniform();
  }
  return xs;
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

TEST(SeArd, ValueAtZeroDistanceIsSignalVariance) {
  SquaredExponentialArd k(2.5, {0.7, 0.3});
  EXPECT_DOUBLE_EQ(k({0.1, 0.2}, {0.1, 0.2}), 2.5);
}

TEST(SeArd, KnownValue) {
  SquaredExponentialArd k(1.0, {1.0});
  EXPECT_NEAR(k({0.0}, {1.0}), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(k({0.0}, {2.0}), std::exp(-2.0), 1e-12);
}

TEST(SeArd, LengthscaleAnisotropy) {
  SquaredExponentialArd k(1.0, {0.1, 10.0});
  // Same step is far along the short-lengthscale axis, near along the long.
  EXPECT_LT(k({0, 0}, {0.5, 0}), k({0, 0}, {0, 0.5}));
}

TEST(SeArd, LogParamRoundTrip) {
  SquaredExponentialArd k(3.0, {0.5, 2.0});
  const Vec lp = k.log_params();
  SquaredExponentialArd k2(2);
  k2.set_log_params(lp);
  EXPECT_NEAR(k2.signal_variance(), 3.0, 1e-12);
  EXPECT_NEAR(k2.lengthscales()[0], 0.5, 1e-12);
  EXPECT_NEAR(k2.lengthscales()[1], 2.0, 1e-12);
}

TEST(SeArd, RejectsBadParams) {
  EXPECT_THROW(SquaredExponentialArd(-1.0, {1.0}), InvalidArgument);
  EXPECT_THROW(SquaredExponentialArd(1.0, {0.0}), InvalidArgument);
  SquaredExponentialArd k(2);
  EXPECT_THROW(k.set_log_params({0.0}), InvalidArgument);
}

TEST(Matern52, ValueAtZeroDistanceIsSignalVariance) {
  Matern52Ard k(1.7, {0.4, 0.9, 1.1});
  Vec p = {0.3, 0.1, 0.8};
  EXPECT_NEAR(k(p, p), 1.7, 1e-12);
}

TEST(Matern52, DecaysSlowerThanSeFar) {
  SquaredExponentialArd se(1.0, {1.0});
  Matern52Ard m(1.0, {1.0});
  EXPECT_GT(m({0.0}, {3.0}), se({0.0}, {3.0}));
}

// Gradient check: the analytic per-pair gradient (value_and_gradient) vs
// central finite differences of the Gram matrix.
class KernelGradientCheck
    : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelGradientCheck, MatchesFiniteDifferences) {
  Rng rng(99);
  auto kernel = make_kernel(GetParam(), 3);
  Vec lp = kernel->log_params();
  lp[0] = std::log(1.7);
  lp[1] = std::log(0.4);
  lp[2] = std::log(0.9);
  lp[3] = std::log(1.3);
  kernel->set_log_params(lp);

  const auto xs = random_points(6, 3, rng);
  const std::size_t n = xs.size();
  std::vector<linalg::Matrix> grads(kernel->num_params(),
                                    linalg::Matrix(n, n));
  Vec g(kernel->num_params());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double k = kernel->value_and_gradient(xs[i], xs[j], g.data());
      EXPECT_EQ(k, (*kernel)(xs[i], xs[j]));
      for (std::size_t p = 0; p < g.size(); ++p) grads[p](i, j) = g[p];
    }
  }

  const double h = 1e-6;
  for (std::size_t p = 0; p < kernel->num_params(); ++p) {
    Vec lp_plus = lp, lp_minus = lp;
    lp_plus[p] += h;
    lp_minus[p] -= h;
    kernel->set_log_params(lp_plus);
    const auto k_plus = kernel->gram(xs);
    kernel->set_log_params(lp_minus);
    const auto k_minus = kernel->gram(xs);
    kernel->set_log_params(lp);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t j = 0; j < xs.size(); ++j) {
        const double fd = (k_plus(i, j) - k_minus(i, j)) / (2 * h);
        EXPECT_NEAR(grads[p](i, j), fd, 1e-5)
            << "param " << p << " entry (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelGradientCheck,
                         ::testing::Values("se", "matern52"));

/// True when \p a and \p b hold the same doubles, bit for bit.
bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// A kernel of \p name ("se" | "matern52") with the given parameters.
std::unique_ptr<Kernel> kernel_with(const std::string& name, double sf2,
                                    const Vec& ls) {
  if (name == "se") return std::make_unique<SquaredExponentialArd>(sf2, ls);
  return std::make_unique<Matern52Ard>(sf2, ls);
}

Vec random_lengthscales(std::size_t d, Rng& rng) {
  Vec ls(d);
  for (auto& l : ls) l = rng.uniform(0.3, 1.5);
  return ls;
}

class KernelRowOracle : public ::testing::TestWithParam<const char*> {};

const std::size_t kOracleDims[] = {1, 3, 10};

TEST_P(KernelRowOracle, RowsMatchOperatorBitwise) {
  Rng rng(31);
  for (const std::size_t d : kOracleDims) {
    const auto kernel =
        kernel_with(GetParam(), 1.7, random_lengthscales(d, rng));
    const auto xs = random_points(23, d, rng);
    const PointBlock pts(xs, d);
    const Vec x = rng.uniform_vector(d);
    Vec ref(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) ref[i] = (*kernel)(x, xs[i]);
    // Ranges off 0 with odd, even and unit lengths: the blocked, paired
    // and single-point paths of the row.
    using Range = std::pair<std::size_t, std::size_t>;
    for (const auto& [begin, end] :
         {Range{3, 20}, Range{1, 23}, Range{5, 6}, Range{0, 16}, Range{7, 7}}) {
      Vec out(end - begin);
      kernel->row(x, pts, begin, end, out.data());
      EXPECT_TRUE(same_bits(out, Vec(ref.begin() + begin, ref.begin() + end)))
          << "d=" << d << " range [" << begin << ", " << end << ")";
    }
    const auto gram = kernel->gram(xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t j = i; j < xs.size(); ++j) {
        const Vec v = {(*kernel)(xs[i], xs[j])};
        EXPECT_TRUE(same_bits({gram(i, j)}, v));
        EXPECT_TRUE(same_bits({gram(j, i)}, v));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelRowOracle,
                         ::testing::Values("se", "matern52"));

TEST(KernelFactory, KnownNamesAndErrors) {
  EXPECT_EQ(make_kernel("se", 2)->name(), "SE-ARD");
  EXPECT_EQ(make_kernel("matern52", 2)->name(), "Matern52-ARD");
  EXPECT_THROW(make_kernel("linear", 2), InvalidArgument);
}

TEST(Kernel, GramIsSymmetricPsd) {
  Rng rng(5);
  for (const char* name : {"se", "matern52"}) {
    auto kernel = make_kernel(name, 4);
    const auto xs = random_points(20, 4, rng);
    auto k = kernel->gram(xs);
    // Symmetry.
    for (std::size_t i = 0; i < 20; ++i) {
      for (std::size_t j = 0; j < 20; ++j) {
        EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
      }
    }
    // PSD: Cholesky with tiny jitter must succeed.
    k.add_diagonal(1e-10);
    EXPECT_NO_THROW(linalg::Cholesky{k});
  }
}

// ---------------------------------------------------------------------------
// GpRegressor posterior (Eq. 2)
// ---------------------------------------------------------------------------

GpRegressor make_fitted_1d() {
  auto kernel = std::make_unique<SquaredExponentialArd>(1.0, Vec{0.3});
  GpRegressor gp(std::move(kernel), 1e-8);
  gp.set_data({{0.1}, {0.4}, {0.7}, {0.9}}, {0.5, -0.2, 0.3, 0.8});
  gp.fit();
  return gp;
}

TEST(GpRegressor, InterpolatesTrainingDataAtLowNoise) {
  const auto gp = make_fitted_1d();
  for (std::size_t i = 0; i < gp.num_points(); ++i) {
    const auto p = gp.predict(gp.inputs()[i]);
    EXPECT_NEAR(p.mean, gp.targets()[i], 1e-3);
    EXPECT_LT(p.var, 1e-4);
  }
}

TEST(GpRegressor, RevertsToPriorFarFromData) {
  const auto gp = make_fitted_1d();
  const auto p = gp.predict({100.0});
  // Far away: mean -> empirical mean of y, var -> signal variance.
  const double ymean = (0.5 - 0.2 + 0.3 + 0.8) / 4.0;
  EXPECT_NEAR(p.mean, ymean, 1e-6);
  EXPECT_NEAR(p.var, 1.0, 1e-6);
}

TEST(GpRegressor, VarianceIsNonNegativeEverywhere) {
  const auto gp = make_fitted_1d();
  for (double x = -1.0; x <= 2.0; x += 0.01) {
    EXPECT_GE(gp.predict({x}).var, 0.0);
  }
}

TEST(GpRegressor, PosteriorMatchesDirectEq2) {
  // Independent computation of Eq. 2 with explicit matrix algebra.
  Rng rng(3);
  const auto xs = random_points(8, 2, rng);
  Vec ys(8);
  for (std::size_t i = 0; i < 8; ++i) ys[i] = rng.normal();
  const double noise = 0.01;

  SquaredExponentialArd kernel(1.3, {0.4, 0.6});
  auto gp_kernel = std::make_unique<SquaredExponentialArd>(kernel);
  GpRegressor gp(std::move(gp_kernel), noise);
  gp.set_data(xs, ys);
  gp.fit();

  // Direct: mu = m + k* K^{-1} (y - m), var = k** - k* K^{-1} k*^T.
  double m = 0;
  for (double y : ys) m += y;
  m /= 8.0;
  auto kmat = kernel.gram(xs);
  kmat.add_diagonal(noise);
  linalg::Cholesky chol(kmat);
  Vec centered(8);
  for (std::size_t i = 0; i < 8; ++i) centered[i] = ys[i] - m;
  const Vec alpha = chol.solve(centered);

  const Vec xstar = {0.3, 0.7};
  Vec kstar(8);
  for (std::size_t i = 0; i < 8; ++i) kstar[i] = kernel(xstar, xs[i]);
  const double mu = m + linalg::dot(kstar, alpha);
  const double var =
      kernel(xstar, xstar) - linalg::dot(kstar, chol.solve(kstar));

  const auto p = gp.predict(xstar);
  EXPECT_NEAR(p.mean, mu, 1e-9);
  EXPECT_NEAR(p.var, var, 1e-9);
}

TEST(GpRegressor, LmlGradientMatchesFiniteDifferences) {
  Rng rng(17);
  const auto xs = random_points(10, 2, rng);
  Vec ys(10);
  for (auto& y : ys) y = rng.normal();

  GpRegressor gp(std::make_unique<SquaredExponentialArd>(2), 1e-3);
  gp.set_data(xs, ys);
  gp.fit();
  const Vec lp = gp.log_hyperparams();
  const Vec grad = gp.lml_gradient();
  ASSERT_EQ(grad.size(), lp.size());

  const double h = 1e-6;
  for (std::size_t p = 0; p < lp.size(); ++p) {
    Vec plus = lp, minus = lp;
    plus[p] += h;
    minus[p] -= h;
    gp.set_log_hyperparams(plus);
    gp.fit();
    const double lml_plus = gp.log_marginal_likelihood();
    gp.set_log_hyperparams(minus);
    gp.fit();
    const double lml_minus = gp.log_marginal_likelihood();
    gp.set_log_hyperparams(lp);
    gp.fit();
    const double fd = (lml_plus - lml_minus) / (2 * h);
    // Relative tolerance: gradients here are O(100).
    EXPECT_NEAR(grad[p], fd, 1e-5 * std::max(1.0, std::abs(fd)))
        << "hyperparameter " << p;
  }
}

/// The dense LML gradient: an explicit K^{-1}, W = alpha alpha^T - K^{-1}
/// as an n x n matrix and d + 1 dense Gram-gradient matrices folded
/// against it, parameter by parameter. \p l is the model's factor; alpha
/// and K^{-1} come from it by the scalar triangular loops.
Vec dense_lml_gradient(const std::string& name, double sf2, const Vec& ls,
                       const GpRegressor& gp) {
  const auto& xs = gp.inputs();
  const std::size_t n = xs.size();
  const std::size_t d = ls.size();
  const linalg::Matrix& l = gp.factor().factor();

  Vec z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = gp.targets()[i] - gp.empirical_mean();
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * z[k];
    z[i] = acc / l(i, i);
  }
  Vec alpha(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = z[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l(k, i) * alpha[k];
    alpha[i] = acc / l(i, i);
  }
  linalg::Matrix linv(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    linv(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc -= l(i, k) * linv(k, j);
      linv(i, j) = acc / l(i, i);
    }
  }
  linalg::Matrix kinv(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = i; k < n; ++k) acc += linv(k, i) * linv(k, j);
      kinv(i, j) = acc;
      kinv(j, i) = acc;
    }
  }
  linalg::Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      w(i, j) = alpha[i] * alpha[j] - kinv(i, j);
    }
  }

  constexpr double kSqrt5 = 2.23606797749978969;
  std::vector<linalg::Matrix> dks(d + 1, linalg::Matrix(n, n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double r2 = 0.0;
      for (std::size_t p = 0; p < d; ++p) {
        const double zp = (xs[i][p] - xs[j][p]) / ls[p];
        r2 += zp * zp;
      }
      double kij = 0.0;
      double common = 0.0;
      if (name == "se") {
        kij = sf2 * std::exp(-0.5 * r2);
        common = kij;
      } else {
        const double r = std::sqrt(r2);
        const double e = std::exp(-kSqrt5 * r);
        kij = sf2 * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) * e;
        common = sf2 * e * (5.0 / 3.0) * (1.0 + kSqrt5 * r);
      }
      dks[0](i, j) = kij;
      dks[0](j, i) = kij;
      for (std::size_t p = 0; p < d; ++p) {
        const double zp = (xs[i][p] - xs[j][p]) / ls[p];
        const double g = common * zp * zp;
        dks[p + 1](i, j) = g;
        dks[p + 1](j, i) = g;
      }
    }
  }

  Vec grad(d + 2, 0.0);
  for (std::size_t p = 0; p <= d; ++p) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 0.5 * w(i, i) * dks[p](i, i);
      for (std::size_t j = 0; j < i; ++j) acc += w(i, j) * dks[p](i, j);
    }
    grad[p] = acc;
  }
  double tr_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr_w += w(i, i);
  grad.back() = 0.5 * gp.noise_variance() * tr_w;
  return grad;
}

class LmlGradientOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(LmlGradientOracle, FusedPassMatchesDenseFormulaBitwise) {
  const std::string name = GetParam();
  Rng rng(47);
  for (const std::size_t d : kOracleDims) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                                std::size_t{64}}) {
      const double sf2 = rng.uniform(0.5, 2.0);
      const Vec ls = random_lengthscales(d, rng);
      GpRegressor gp(kernel_with(name, sf2, ls), rng.uniform(1e-4, 1e-2));
      Vec ys(n);
      for (auto& y : ys) y = rng.normal();
      gp.set_data(random_points(n, d, rng), ys);
      gp.fit();
      EXPECT_TRUE(same_bits(gp.lml_gradient(),
                            dense_lml_gradient(name, sf2, ls, gp)))
          << name << " d=" << d << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, LmlGradientOracle,
                         ::testing::Values("se", "matern52"));

TEST(GpRegressor, AddPointInvalidatesFit) {
  auto gp = make_fitted_1d();
  EXPECT_TRUE(gp.fitted());
  gp.add_point({0.5}, 0.0);
  EXPECT_FALSE(gp.fitted());
  EXPECT_THROW(gp.predict({0.5}), InvalidArgument);
}

TEST(GpRegressor, CopyIsDeep) {
  auto gp = make_fitted_1d();
  GpRegressor copy(gp);
  copy.add_point({0.2}, 5.0);
  copy.fit();
  // Original unaffected.
  EXPECT_EQ(gp.num_points(), 4u);
  EXPECT_EQ(copy.num_points(), 5u);
}

// ---------------------------------------------------------------------------
// Hallucinated posterior — the EasyBO penalization scheme (§III-C)
// ---------------------------------------------------------------------------

TEST(Hallucination, ShrinksVarianceNearPendingPoint) {
  const auto gp = make_fitted_1d();
  const Vec pending_point = {0.25};
  const auto aug = gp.with_hallucinated({pending_point});

  // sigma-hat near the pending point collapses (this is what prevents
  // redundant queries in the busy region)...
  EXPECT_LT(aug.predict(pending_point).stddev(),
            0.2 * gp.predict(pending_point).stddev());
  // ...while the predictive MEAN is (nearly) unchanged there, because the
  // pseudo-observation equals the current predictive mean.
  EXPECT_NEAR(aug.predict(pending_point).mean,
              gp.predict(pending_point).mean, 1e-4);
}

TEST(Hallucination, VarianceNeverIncreases) {
  // Conditioning on more (pseudo-)data cannot increase GP variance.
  const auto gp = make_fitted_1d();
  const auto aug = gp.with_hallucinated({{0.25}, {0.55}});
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    EXPECT_LE(aug.predict({x}).var, gp.predict({x}).var + 1e-9);
  }
}

TEST(Hallucination, FarAwayUnaffected) {
  const auto gp = make_fitted_1d();
  const auto aug = gp.with_hallucinated({{0.25}});
  // Several lengthscales away, the pseudo point has negligible influence.
  EXPECT_NEAR(aug.predict({3.0}).var, gp.predict({3.0}).var, 1e-3);
}

TEST(Hallucination, RequiresFittedModel) {
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1), 1e-6);
  gp.set_data({{0.0}}, {0.0});
  EXPECT_THROW(gp.with_hallucinated({{0.5}}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Normalizers
// ---------------------------------------------------------------------------

TEST(BoxNormalizer, RoundTrip) {
  BoxNormalizer box({-2.0, 10.0}, {2.0, 30.0});
  const Vec x = {1.0, 15.0};
  const Vec u = box.to_unit(x);
  EXPECT_NEAR(u[0], 0.75, 1e-12);
  EXPECT_NEAR(u[1], 0.25, 1e-12);
  const Vec back = box.from_unit(u);
  EXPECT_NEAR(back[0], x[0], 1e-12);
  EXPECT_NEAR(back[1], x[1], 1e-12);
}

TEST(BoxNormalizer, RejectsDegenerateBounds) {
  EXPECT_THROW(BoxNormalizer({0.0}, {0.0}), InvalidArgument);
  EXPECT_THROW(BoxNormalizer({0.0, 1.0}, {1.0}), InvalidArgument);
}

TEST(ZScore, StandardizesSample) {
  ZScore z;
  z.refit({2.0, 4.0, 6.0});
  EXPECT_NEAR(z.mean(), 4.0, 1e-12);
  EXPECT_NEAR(z.transform(4.0), 0.0, 1e-12);
  EXPECT_NEAR(z.inverse(z.transform(6.0)), 6.0, 1e-12);
  EXPECT_NEAR(z.inverse_stddev(1.0), z.scale(), 1e-12);
}

TEST(ZScore, DegenerateSampleFallsBackToUnitScale) {
  ZScore z;
  z.refit({5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(z.scale(), 1.0);
  EXPECT_DOUBLE_EQ(z.transform(6.0), 1.0);
}

TEST(ZScore, EmptySampleIsIdentity) {
  ZScore z;
  z.refit({});
  EXPECT_DOUBLE_EQ(z.transform(3.0), 3.0);
}

}  // namespace
}  // namespace easybo::gp
