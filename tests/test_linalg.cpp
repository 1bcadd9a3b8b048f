// Unit and property tests for linalg: vector helpers, Matrix algebra,
// Cholesky factorization with jitter.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/vec.h"

namespace easybo::linalg {
namespace {

TEST(Vec, Dot) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_THROW(dot({1}, {1, 2}), InvalidArgument);
}

TEST(Vec, Distances) {
  EXPECT_DOUBLE_EQ(dist_sq({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(dist({0, 0}, {3, 4}), 5.0);
}

TEST(Vec, AxpyAndArithmetic) {
  Vec y = {1, 1};
  axpy(2.0, {3, 4}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
  const Vec s = add({1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  const Vec d = sub({1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(d[0], -2.0);
  const Vec sc = scale(0.5, {2, 4});
  EXPECT_DOUBLE_EQ(sc[1], 2.0);
}

TEST(Vec, ArgExtrema) {
  EXPECT_EQ(argmax({1.0, 5.0, 3.0}), 1u);
  EXPECT_THROW(argmax({}), InvalidArgument);
}

TEST(Vec, BoxHelpers) {
  const Vec lo = {0, 0}, hi = {1, 1};
  const Vec c = clamp_to_box({-0.5, 1.5}, lo, hi);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_TRUE(inside_box({0.5, 0.5}, lo, hi));
  EXPECT_FALSE(inside_box({1.5, 0.5}, lo, hi));
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m = {{1, 2}, {3, 4}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_THROW(m.at(2, 0), InvalidArgument);
  EXPECT_THROW(Matrix({{1, 2}, {3}}), InvalidArgument);
}

TEST(Matrix, Identity) {
  const auto i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 2), 0.0);
}

TEST(Matrix, MultiplyKnown) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatVec) {
  Matrix a = {{1, 2}, {3, 4}};
  const Vec y = a * Vec{1, 1};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vec bad = {1, 2, 3};
  EXPECT_THROW(a * bad, InvalidArgument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a = {{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_TRUE(t.transposed().approx_equal(a, 0.0));
}

TEST(Matrix, GramMatchesExplicit) {
  Matrix a = {{1, 2}, {3, 4}, {5, 6}};
  const Matrix g = gram(a);
  EXPECT_TRUE(g.approx_equal(a.transposed() * a, 1e-12));
}

TEST(Matrix, DiagonalAndNorms) {
  Matrix a = {{1, 2}, {3, 4}};
  a.add_diagonal(10.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 14.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 14.0);
}

TEST(Cholesky, FactorsKnownMatrix) {
  // A = L L^T with L = [[2,0],[1,3]] -> A = [[4,2],[2,10]].
  Matrix a = {{4, 2}, {2, 10}};
  Cholesky chol(a);
  EXPECT_NEAR(chol.factor()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol.factor()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol.factor()(1, 1), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(chol.jitter_used(), 0.0);
}

TEST(Cholesky, SolveMatchesDirect) {
  Matrix a = {{4, 2}, {2, 10}};
  const Vec rhs = {6.0, 24.0};
  const Vec x = Cholesky(a).solve(rhs);
  // Verify A x = b.
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 6.0, 1e-10);
  EXPECT_NEAR(2 * x[0] + 10 * x[1], 24.0, 1e-10);
}

TEST(Cholesky, LogDetKnown) {
  Matrix a = {{4, 2}, {2, 10}};  // det = 36
  EXPECT_NEAR(Cholesky(a).log_det(), std::log(36.0), 1e-10);
}

TEST(Cholesky, InverseTimesOriginalIsIdentity) {
  Matrix a = {{5, 1, 0}, {1, 4, 1}, {0, 1, 3}};
  const Matrix inv = Cholesky(a).inverse();
  EXPECT_TRUE((a * inv).approx_equal(Matrix::identity(3), 1e-9));
}

TEST(Cholesky, JitterRecoversSingularMatrix) {
  // Rank-1 PSD matrix: classic hallucination-duplicate scenario.
  Matrix a = {{1, 1}, {1, 1}};
  Cholesky chol(a);
  EXPECT_GT(chol.jitter_used(), 0.0);
  // The factor reconstructs A up to the added jitter.
  const Matrix l = chol.factor();
  Matrix recon(2, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      double v = 0;
      for (std::size_t k = 0; k < 2; ++k) v += l(i, k) * l(j, k);
      recon(i, j) = v;
    }
  }
  EXPECT_TRUE(recon.approx_equal(a, 1e-3));
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a = {{1, 0}, {0, -5}};
  EXPECT_THROW(Cholesky(a, 1e-10, 3), NumericalError);
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(Cholesky{a}, InvalidArgument);
}

/// Random SPD matrix B^T B + n I with standard-normal B.
Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = gram(b);
  a.add_diagonal(static_cast<double>(n));
  return a;
}

// Property test: random SPD matrices factor and solve accurately.
class CholeskySweep : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySweep, RandomSpdRoundTrip) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  const Matrix a = random_spd(static_cast<std::size_t>(n), rng);

  Cholesky chol(a);
  Vec rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.normal();
  const Vec x = chol.solve(rhs);
  const Vec back = a * x;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    EXPECT_NEAR(back[i], rhs[i], 1e-7 * a.max_abs());
  }
  // solve_lower consistency: ||L^{-1} r||^2 == r^T A^{-1} r.
  const Vec z = chol.solve_lower(rhs);
  EXPECT_NEAR(dot(z, z), dot(rhs, chol.solve(rhs)), 1e-6 * dot(rhs, rhs));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySweep,
                         ::testing::Values(1, 2, 5, 16, 64, 128));

// ---------------------------------------------------------------------------
// Multi-right-hand-side forward solve: column-for-column bit parity
// ---------------------------------------------------------------------------

/// Solves m random right-hand sides with solve_lower_inplace (row-major
/// n x m) and with one solve_lower call per column; every entry must
/// carry the same bits.
template <class Factor>
void expect_inplace_matches_columns(const Factor& f, Rng& rng) {
  const std::size_t n = f.size();
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                              std::size_t{33}}) {
    std::vector<Vec> cols(m, Vec(n));
    std::vector<double> block(n * m);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        cols[c][i] = rng.normal();
        block[i * m + c] = cols[c][i];
      }
    }
    f.solve_lower_inplace(block, m);
    for (std::size_t c = 0; c < m; ++c) {
      const Vec z = f.solve_lower(cols[c]);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(block[i * m + c], z[i])
            << "n=" << n << " m=" << m << " column " << c << " row " << i;
      }
    }
  }
}

TEST(CholeskyMultiRhs, InplaceSolveMatchesSolveLowerBitwise) {
  Rng rng(71);
  for (const std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{40}}) {
    const Cholesky chol(random_spd(n, rng));
    expect_inplace_matches_columns(chol, rng);
  }
}

TEST(CholeskyMultiRhs, InplaceSolveMatchesOnJitteredFactor) {
  // Rank one, A = s s^T with s_i = +-2^e: every product and quotient is
  // exact, so the second pivot is exactly 0 and the factor only exists
  // after jitter escalation.
  Rng rng(72);
  const std::size_t n = 12;
  Vec s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::ldexp(rng.uniform() < 0.5 ? -1.0 : 1.0,
                      static_cast<int>(i % 5) - 2);
  }
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = s[i] * s[j];
  }
  const Cholesky chol(a);
  ASSERT_GT(chol.jitter_used(), 0.0) << "setup failed to force jitter";
  expect_inplace_matches_columns(chol, rng);
}

TEST(CholeskyMultiRhs, ExtViewInplaceSolveMatchesSolveLowerBitwise) {
  Rng rng(73);
  const std::size_t n0 = 20;
  const std::size_t k = 5;
  const Matrix full = random_spd(n0 + k, rng);
  Matrix top(n0, n0);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n0; ++j) top(i, j) = full(i, j);
  }
  const Cholesky base(top);
  CholeskyExt view(&base);
  for (std::size_t r = n0; r < n0 + k; ++r) {
    Vec column(r + 1);
    for (std::size_t j = 0; j <= r; ++j) column[j] = full(r, j);
    ASSERT_TRUE(view.extend(column));
  }
  ASSERT_EQ(view.size(), n0 + k);
  expect_inplace_matches_columns(view, rng);
}

/// Row-range solves: [0, r) then [r, n) equals the whole solve bit for
/// bit at every split in \p splits, for m = 1..33 right-hand sides (full
/// 16-column tiles, leftover columns, both). So does dropping every third
/// column between the two calls and solving [r, n) on the packed
/// survivors — what the batched GP posterior does when it retires columns.
template <class Factor>
void expect_row_ranges_match_whole(const Factor& f,
                                   const std::vector<std::size_t>& splits,
                                   Rng& rng) {
  const std::size_t n = f.size();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t m = 1; m <= 33; ++m) {
    std::vector<double> b(n * m);
    for (double& v : b) v = rng.normal();
    std::vector<double> whole = b;
    f.solve_lower_inplace(whole, m);
    std::vector<std::size_t> keep;
    for (std::size_t c = 0; c < m; ++c) {
      if (c % 3 != 1) keep.push_back(c);
    }
    const std::size_t w = keep.size();
    for (const std::size_t r : splits) {
      std::vector<double> part = b;
      f.solve_lower_inplace(part, m, 0, r);
      std::vector<double> packed(n * w);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          packed[i * w + j] = part[i * m + keep[j]];
        }
      }
      f.solve_lower_inplace(part, m, r, n);
      f.solve_lower_inplace(packed, w, r, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < m; ++c) {
          ASSERT_EQ(bits(part[i * m + c]), bits(whole[i * m + c]))
              << "n=" << n << " m=" << m << " split " << r << " row " << i
              << " column " << c;
        }
        for (std::size_t j = 0; j < w; ++j) {
          ASSERT_EQ(bits(packed[i * w + j]), bits(whole[i * m + keep[j]]))
              << "n=" << n << " m=" << m << " split " << r << " row " << i
              << " survivor " << keep[j];
        }
      }
    }
  }
}

TEST(CholeskyMultiRhs, RowRangeSolvesMatchTheWholeSolveBitwise) {
  Rng rng(74);
  const std::size_t n0 = 20;
  const std::size_t n = n0 + 6;
  const std::vector<std::size_t> splits = {0, 1, 16, 17, n0, n0 + 1, n};
  const Matrix full = random_spd(n, rng);
  expect_row_ranges_match_whole(Cholesky(full), splits, rng);

  // The same matrix as a base factor over its leading n0 x n0 block plus
  // six appended rows: splits fall in the base triangle, on its last row,
  // just past it, and at the end.
  Matrix top(n0, n0);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n0; ++j) top(i, j) = full(i, j);
  }
  const Cholesky base(top);
  CholeskyExt view(&base);
  for (std::size_t r = n0; r < n; ++r) {
    Vec column(r + 1);
    for (std::size_t j = 0; j <= r; ++j) column[j] = full(r, j);
    ASSERT_TRUE(view.extend(column));
  }
  expect_row_ranges_match_whole(view, splits, rng);
}

TEST(CholeskyMultiRhs, RejectsRowRangeOutOfBounds) {
  const Cholesky chol(Matrix{{4, 2}, {2, 10}});
  std::vector<double> block(4);
  EXPECT_THROW(chol.solve_lower_inplace(block, 2, 1, 3), InvalidArgument);
  EXPECT_THROW(chol.solve_lower_inplace(block, 2, 2, 1), InvalidArgument);
  CholeskyExt view(&chol);
  EXPECT_THROW(view.solve_lower_inplace(block, 2, 0, 3), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Bitwise differential oracles: the tiled kernels against the scalar loops
// ---------------------------------------------------------------------------

/// The scalar triangular loops the tiled Cholesky kernels must reproduce
/// bit for bit: one entry at a time, each a single accumulator taking its
/// terms in a fixed order.
namespace scalar {

/// Column by column; entry (i, j) is a(i, j) - sum_{k<j} l_ik l_jk with k
/// ascending, over l_jj. Requires a positive definite \p a.
Matrix factor(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / ljj;
    }
  }
  return l;
}

Vec solve_lower(const Matrix& l, const Vec& b) {
  const std::size_t n = l.rows();
  Vec z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * z[k];
    z[i] = acc / l(i, i);
  }
  return z;
}

Vec solve(const Matrix& l, const Vec& b) {
  const std::size_t n = l.rows();
  const Vec z = solve_lower(l, b);
  Vec x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = z[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l(k, i) * x[k];
    x[i] = acc / l(i, i);
  }
  return x;
}

/// L^{-1} column by column, then the lower triangle of L^{-T} L^{-1}.
Matrix inverse(const Matrix& l) {
  const std::size_t n = l.rows();
  Matrix linv(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    linv(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc -= l(i, k) * linv(k, j);
      linv(i, j) = acc / l(i, i);
    }
  }
  Matrix inv(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = i; k < n; ++k) acc += linv(k, i) * linv(k, j);
      inv(i, j) = acc;
      inv(j, i) = acc;
    }
  }
  return inv;
}

}  // namespace scalar

/// True when \p a and \p b hold the same doubles, bit for bit (so +0 and
/// -0 differ).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

/// The factor, inverse(), solve_lower() and solve() of \p chol, which
/// factored \p a (plus chol.jitter_used() on the diagonal), against the
/// scalar loops.
void expect_matches_scalar(const Matrix& a, const Cholesky& chol, Rng& rng) {
  const std::size_t n = a.rows();
  Matrix jittered = a;
  if (chol.attempts() > 1) jittered.add_diagonal(chol.jitter_used());
  const Matrix l = scalar::factor(jittered);
  ASSERT_TRUE(same_bits(chol.factor().data(), l.data())) << "factor, n=" << n;
  EXPECT_TRUE(same_bits(chol.inverse().data(), scalar::inverse(l).data()))
      << "inverse, n=" << n;
  for (int rep = 0; rep < 3; ++rep) {
    const Vec b = random_vec(n, rng);
    EXPECT_TRUE(same_bits(chol.solve_lower(b), scalar::solve_lower(l, b)))
        << "solve_lower, n=" << n;
    EXPECT_TRUE(same_bits(chol.solve(b), scalar::solve(l, b)))
        << "solve, n=" << n;
  }
}

const std::size_t kOracleSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 150};

TEST(CholeskyOracle, TiledKernelsMatchScalarLoopsBitwise) {
  Rng rng(81);
  for (const std::size_t n : kOracleSizes) {
    const Matrix a = random_spd(n, rng);
    const Cholesky chol(a);
    ASSERT_EQ(chol.attempts(), 1);
    expect_matches_scalar(a, chol, rng);
  }
}

TEST(CholeskyOracle, JitterEscalatedFactorMatchesScalarLoopsBitwise) {
  // Rank one, A = s s^T with s_i = +-2^e: the second pivot is exactly 0,
  // so the factor only exists after jitter escalation.
  Rng rng(82);
  const std::size_t n = 13;
  Vec s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::ldexp(rng.uniform() < 0.5 ? -1.0 : 1.0,
                      static_cast<int>(i % 5) - 2);
  }
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = s[i] * s[j];
  }
  const Cholesky chol(a);
  ASSERT_GT(chol.attempts(), 1) << "setup failed to force jitter";
  expect_matches_scalar(a, chol, rng);
}

TEST(CholeskyOracle, ExtViewSolveMatchesScalarLoopsBitwise) {
  // A base factor of every oracle size with 0..5 appended rows; the
  // reference grows its own combined factor with the scalar loops (new row
  // = [L^{-1} b; sqrt(c - |L^{-1} b|^2)]) and forward-solves over it.
  Rng rng(83);
  constexpr std::size_t kMaxRows = 5;
  for (const std::size_t n0 : kOracleSizes) {
    const Matrix full = random_spd(n0 + kMaxRows, rng);
    Matrix top(n0, n0);
    for (std::size_t i = 0; i < n0; ++i) {
      for (std::size_t j = 0; j < n0; ++j) top(i, j) = full(i, j);
    }
    const Cholesky base(top);
    CholeskyExt view(&base);
    Matrix ref = scalar::factor(top);
    for (std::size_t k = 0; k <= kMaxRows; ++k) {
      const std::size_t n = n0 + k;
      for (int rep = 0; rep < 2; ++rep) {
        const Vec b = random_vec(n, rng);
        EXPECT_TRUE(same_bits(view.solve_lower(b), scalar::solve_lower(ref, b)))
            << "n0=" << n0 << " rows=" << k;
      }
      if (k == kMaxRows) break;
      Vec column(n + 1);
      for (std::size_t j = 0; j <= n; ++j) column[j] = full(n, j);
      ASSERT_TRUE(view.extend(column));
      const Vec head =
          scalar::solve_lower(ref, Vec(column.begin(), column.end() - 1));
      Matrix grown(n + 1, n + 1, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) grown(i, j) = ref(i, j);
      }
      for (std::size_t j = 0; j < n; ++j) grown(n, j) = head[j];
      grown(n, n) = std::sqrt(column.back() - dot(head, head));
      ref = std::move(grown);
    }
  }
}

TEST(CholeskyMultiRhs, RejectsMisshapenBlock) {
  const Cholesky chol(Matrix{{4, 2}, {2, 10}});
  std::vector<double> block(5);
  EXPECT_THROW(chol.solve_lower_inplace(block, 2), InvalidArgument);
  CholeskyExt view(&chol);
  EXPECT_THROW(view.solve_lower_inplace(block, 2), InvalidArgument);
}

}  // namespace
}  // namespace easybo::linalg
