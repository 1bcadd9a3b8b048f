// Unit and property tests for common/sampling.h: Sobol sequence
// structure.

#include "common/sampling.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.h"

namespace easybo {
namespace {

TEST(Sobol, FirstVanDerCorputValues) {
  // Dimension 1 with skip=0 is the van der Corput sequence in Gray-code
  // order: 0, 1/2, 3/4, 1/4, 3/8, ... (each 2^k block covers the same
  // points as the natural order, permuted).
  SobolSequence sobol(1, /*skip=*/0);
  EXPECT_DOUBLE_EQ(sobol.next()[0], 0.0);
  EXPECT_DOUBLE_EQ(sobol.next()[0], 0.5);
  EXPECT_DOUBLE_EQ(sobol.next()[0], 0.75);
  EXPECT_DOUBLE_EQ(sobol.next()[0], 0.25);
  EXPECT_DOUBLE_EQ(sobol.next()[0], 0.375);
}

TEST(Sobol, SkipsOriginByDefault) {
  SobolSequence sobol(4);
  const auto p = sobol.next();
  bool all_zero = true;
  for (double v : p) all_zero &= (v == 0.0);
  EXPECT_FALSE(all_zero);
}

TEST(Sobol, PointsInUnitCube) {
  SobolSequence sobol(8);
  for (int i = 0; i < 500; ++i) {
    for (double v : sobol.next()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(Sobol, BalancedInPowersOfTwo) {
  // With skip=0, the first 2^k Sobol points put exactly 2^(k-1) points in
  // each half [0, 0.5) / [0.5, 1) of every dimension.
  for (std::size_t dim : {2u, 5u, 12u, 21u}) {
    SobolSequence sobol(dim, /*skip=*/0);
    std::vector<int> low(dim, 0);
    for (int i = 0; i < 64; ++i) {
      const auto p = sobol.next();
      for (std::size_t j = 0; j < dim; ++j) low[j] += (p[j] < 0.5);
    }
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(low[j], 32) << "dim=" << dim << " coord=" << j;
    }
  }
}

TEST(Sobol, DistinctPoints) {
  SobolSequence sobol(3);
  std::set<std::vector<double>> seen;
  for (int i = 0; i < 200; ++i) seen.insert(sobol.next());
  EXPECT_EQ(seen.size(), 200u);
}

TEST(Sobol, RejectsUnsupportedDimension) {
  EXPECT_THROW(SobolSequence(0), InvalidArgument);
  EXPECT_THROW(SobolSequence(22), InvalidArgument);
}

}  // namespace
}  // namespace easybo
