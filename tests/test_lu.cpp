// Unit and property tests for linalg/lu.h (real and complex LU with
// partial pivoting) — the solver under the MNA circuit simulator.

#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <complex>

#include "common/rng.h"

namespace easybo::linalg {
namespace {

using C = std::complex<double>;

TEST(LuReal, SolvesKnownSystem) {
  // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4].
  LuReal lu({2, 1, 1, 3}, 2);
  const auto x = lu.solve({3, 5});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuReal, PivotsOnZeroDiagonal) {
  // Leading zero forces a row swap; without pivoting this would divide by 0.
  LuReal lu({0, 1, 1, 0}, 2);
  const auto x = lu.solve({2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuReal, SingularThrows) {
  EXPECT_THROW(LuReal({1, 2, 2, 4}, 2), NumericalError);
}

TEST(LuReal, SizeMismatchThrows) {
  EXPECT_THROW(LuReal({1, 2, 3}, 2), InvalidArgument);
  LuReal lu({1, 0, 0, 1}, 2);
  EXPECT_THROW(lu.solve({1.0}), InvalidArgument);
}

TEST(LuComplex, SolvesComplexSystem) {
  // (1+j) x = (2) -> x = 2/(1+j) = 1 - j.
  LuComplex lu({C(1, 1)}, 1);
  const auto x = lu.solve({C(2, 0)});
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
}

class LuSweep : public ::testing::TestWithParam<int> {};

TEST_P(LuSweep, RandomRealRoundTrip) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = rng.normal();
  // Diagonal dominance guarantees non-singularity.
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i * n + i)] += static_cast<double>(2 * n);
  }
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = rng.normal();

  const std::vector<double> a_copy = a;
  LuReal lu(std::move(a), static_cast<std::size_t>(n));
  const auto x = lu.solve(rhs);
  for (int i = 0; i < n; ++i) {
    double acc = 0;
    for (int j = 0; j < n; ++j) {
      acc += a_copy[static_cast<std::size_t>(i * n + j)] *
             x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(acc, rhs[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST_P(LuSweep, RandomComplexRoundTrip) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 13);
  std::vector<C> a(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = C(rng.normal(), rng.normal());
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i * n + i)] += C(2.0 * n, 0);
  }
  std::vector<C> rhs(static_cast<std::size_t>(n));
  for (auto& v : rhs) v = C(rng.normal(), rng.normal());

  const std::vector<C> a_copy = a;
  LuComplex lu(std::move(a), static_cast<std::size_t>(n));
  const auto x = lu.solve(rhs);
  for (int i = 0; i < n; ++i) {
    C acc(0, 0);
    for (int j = 0; j < n; ++j) {
      acc += a_copy[static_cast<std::size_t>(i * n + j)] *
             x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(std::abs(acc - rhs[static_cast<std::size_t>(i)]), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSweep, ::testing::Values(1, 2, 4, 9, 25));

}  // namespace
}  // namespace easybo::linalg
