// Tests for the synthetic benchmark functions: known optima and bounds.

#include "circuit/testfunc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace easybo::circuit {
namespace {

TEST(Branin, KnownOptima) {
  const auto f = branin();
  // All three global minimizers of Branin evaluate to ~0.397887.
  EXPECT_NEAR(f.fn({-M_PI, 12.275}), -0.397887, 1e-5);
  EXPECT_NEAR(f.fn({M_PI, 2.275}), -0.397887, 1e-5);
  EXPECT_NEAR(f.fn({9.42478, 2.475}), -0.397887, 1e-5);
  EXPECT_NEAR(f.fn(f.max_location), f.max_value, 1e-5);
}

TEST(Ackley, OptimumAtOrigin) {
  for (std::size_t d : {1u, 3u, 10u}) {
    const auto f = ackley(d);
    EXPECT_NEAR(f.fn(linalg::Vec(d, 0.0)), 0.0, 1e-9);
    EXPECT_LT(f.fn(linalg::Vec(d, 5.0)), -5.0);
  }
}

TEST(Hartmann6, KnownMaximum) {
  const auto f = hartmann6();
  EXPECT_NEAR(f.fn(f.max_location), 3.32237, 1e-4);
  // Any random point must not beat the documented maximum.
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(f.fn(rng.uniform_vector(6)), f.max_value + 1e-6);
  }
}

TEST(Sphere, OptimumAtOrigin) {
  const auto f = sphere(3);
  EXPECT_DOUBLE_EQ(f.fn({0.0, 0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(f.fn({1.0, 2.0, 2.0}), -9.0);
}

TEST(AllFunctions, OptimaInsideBounds) {
  for (const auto& f : {branin(), ackley(3), hartmann6(), sphere(3)}) {
    f.bounds.validate();
    if (!f.max_location.empty()) {
      EXPECT_TRUE(linalg::inside_box(f.max_location, f.bounds.lower,
                                     f.bounds.upper))
          << f.name;
      // The documented optimum is a local max: random perturbed points in
      // the neighborhood should not beat it materially.
      Rng rng(7);
      for (int i = 0; i < 50; ++i) {
        auto x = f.max_location;
        for (auto& v : x) v += rng.normal(0.0, 0.01);
        x = linalg::clamp_to_box(std::move(x), f.bounds.lower,
                                 f.bounds.upper);
        EXPECT_LE(f.fn(x), f.max_value + 1e-3) << f.name;
      }
    }
  }
}

}  // namespace
}  // namespace easybo::circuit
