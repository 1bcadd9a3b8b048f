// Tests for the weighted FOM composition (paper Eq. 1) and the classical
// optimizers: Nelder-Mead, DE, PSO, SA, random search. Shared invariants
// (bounds respected, monotone history, observer calls) are checked per
// algorithm via a parameterized suite.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "circuit/testfunc.h"
#include "common/error.h"
#include "common/rng.h"
#include "opt/de.h"
#include "opt/nelder_mead.h"
#include "opt/objective.h"
#include "opt/pso.h"
#include "opt/random_search.h"
#include "opt/sa.h"

namespace easybo::opt {
namespace {

TEST(WeightedFom, MatchesPaperEq1) {
  // FOM = 1.2 f1 + 10 f2 (Eq. 1 style composition).
  auto f1 = [](const Vec& x) { return x[0]; };
  auto f2 = [](const Vec& x) { return x[1]; };
  const auto fom = make_weighted_fom({f1, f2}, {1.2, 10.0});
  EXPECT_NEAR(fom({2.0, 3.0}), 1.2 * 2.0 + 10.0 * 3.0, 1e-12);
}

TEST(WeightedFom, RejectsBadComposition) {
  auto f = [](const Vec&) { return 0.0; };
  EXPECT_THROW(make_weighted_fom({}, {}), InvalidArgument);
  EXPECT_THROW(make_weighted_fom({f}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(make_weighted_fom({nullptr}, {1.0}), InvalidArgument);
}

TEST(NelderMead, SolvesQuadraticBowl) {
  const Bounds b{{-5, -5}, {5, 5}};
  auto fn = [](const Vec& x) {
    return -((x[0] - 1.5) * (x[0] - 1.5) + (x[1] + 2.0) * (x[1] + 2.0));
  };
  const auto r = nelder_mead_maximize(fn, b, {0.0, 0.0}, 400);
  EXPECT_NEAR(r.best_x[0], 1.5, 1e-3);
  EXPECT_NEAR(r.best_x[1], -2.0, 1e-3);
}

TEST(NelderMead, RespectsBoxWhenOptimumOutside) {
  const Bounds b{{0, 0}, {1, 1}};
  auto fn = [](const Vec& x) { return x[0] + x[1]; };  // optimum at corner
  const auto r = nelder_mead_maximize(fn, b, {0.5, 0.5}, 200);
  EXPECT_LE(r.best_x[0], 1.0);
  EXPECT_LE(r.best_x[1], 1.0);
  EXPECT_GT(r.best_y, 1.9);
}

TEST(NelderMead, HonorsEvaluationBudget) {
  const Bounds b{{-1}, {1}};
  std::size_t calls = 0;
  auto fn = [&calls](const Vec& x) {
    ++calls;
    return -x[0] * x[0];
  };
  const auto r = nelder_mead_maximize(fn, b, {0.9}, 30);
  EXPECT_LE(calls, 31u);  // shrink step may finish one past the check
  EXPECT_EQ(r.num_evals, calls);
}

TEST(NelderMead, RejectsTinyBudget) {
  const Bounds b{{-1, -1}, {1, 1}};
  auto fn = [](const Vec&) { return 0.0; };
  EXPECT_THROW(nelder_mead_maximize(fn, b, {0, 0}, 2), InvalidArgument);
}

TEST(De, SolvesSphere5d) {
  Rng rng(1);
  const auto tf = circuit::sphere(5);
  const auto r = de_maximize(tf.fn, tf.bounds, rng, 4000);
  EXPECT_GT(r.best_y, -1e-3);
}

TEST(De, SolvesBranin) {
  Rng rng(2);
  const auto tf = circuit::branin();
  const auto r = de_maximize(tf.fn, tf.bounds, rng, 3000);
  EXPECT_NEAR(r.best_y, tf.max_value, 1e-2);
}

TEST(De, RejectsBadOptions) {
  Rng rng(1);
  const auto tf = circuit::sphere(2);
  // The budget must cover the initial population of 50.
  EXPECT_THROW(de_maximize(tf.fn, tf.bounds, rng, 49), InvalidArgument);
}

TEST(Pso, SolvesSphere4d) {
  Rng rng(4);
  const auto tf = circuit::sphere(4);
  PsoOptions opt;
  opt.max_evals = 4000;
  const auto r = pso_maximize(tf.fn, tf.bounds, rng, opt);
  EXPECT_GT(r.best_y, -1e-3);
}

TEST(Sa, ImprovesOnSphere) {
  Rng rng(5);
  const auto tf = circuit::sphere(3);
  const auto r = sa_maximize(tf.fn, tf.bounds, rng, 4000);
  EXPECT_GT(r.best_y, -0.5);
}

TEST(RandomSearch, BaselineOnSphere) {
  Rng rng(6);
  const auto tf = circuit::sphere(2);
  const auto r = random_search_maximize(tf.fn, tf.bounds, rng, 2000);
  EXPECT_GT(r.best_y, -0.5);
  EXPECT_EQ(r.num_evals, 2000u);
}

// ---------------------------------------------------------------------------
// Shared invariants, parameterized over all optimizers
// ---------------------------------------------------------------------------

using Runner = std::function<OptResult(const Objective&, const Bounds&, Rng&,
                                       std::size_t, const EvalObserver&)>;

struct NamedRunner {
  const char* name;
  Runner run;
};

// Print a runner by its name. Without this gtest prints the struct's raw
// bytes, which include addresses, so the test names that
// gtest_discover_tests registers would change from one build to the next.
void PrintTo(const NamedRunner& r, std::ostream* os) { *os << r.name; }

class OptimizerInvariants : public ::testing::TestWithParam<NamedRunner> {};

TEST_P(OptimizerInvariants, BoundsRespectedAndHistoryMonotone) {
  Rng rng(7);
  const Bounds b{{-2.0, 0.5}, {3.0, 1.5}};
  std::size_t observed = 0;
  bool in_bounds = true;
  EvalObserver obs = [&](const Vec& x, double, std::size_t) {
    ++observed;
    in_bounds &= linalg::inside_box(x, b.lower, b.upper);
  };
  auto fn = [](const Vec& x) { return -(x[0] * x[0] + x[1] * x[1]); };
  const auto r = GetParam().run(fn, b, rng, 500, obs);

  EXPECT_TRUE(in_bounds);
  EXPECT_EQ(observed, r.num_evals);
  EXPECT_EQ(r.history.size(), r.num_evals);
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_GE(r.history[i], r.history[i - 1]);
  }
  EXPECT_DOUBLE_EQ(r.history.back(), r.best_y);
  EXPECT_TRUE(linalg::inside_box(r.best_x, b.lower, b.upper));
}

TEST_P(OptimizerInvariants, DeterministicForFixedSeed) {
  const Bounds b{{-1.0}, {2.0}};
  auto fn = [](const Vec& x) { return std::sin(3.0 * x[0]); };
  Rng r1(42), r2(42);
  const auto a = GetParam().run(fn, b, r1, 300, nullptr);
  const auto c = GetParam().run(fn, b, r2, 300, nullptr);
  EXPECT_DOUBLE_EQ(a.best_y, c.best_y);
  EXPECT_EQ(a.best_x, c.best_x);
}

INSTANTIATE_TEST_SUITE_P(
    All, OptimizerInvariants,
    ::testing::Values(
        NamedRunner{"de",
                    [](const Objective& f, const Bounds& b, Rng& rng,
                       std::size_t evals, const EvalObserver& obs) {
                      return de_maximize(f, b, rng, evals, obs);
                    }},
        NamedRunner{"pso",
                    [](const Objective& f, const Bounds& b, Rng& rng,
                       std::size_t evals, const EvalObserver& obs) {
                      PsoOptions o;
                      o.max_evals = evals;
                      o.swarm = 20;
                      return pso_maximize(f, b, rng, o, obs);
                    }},
        NamedRunner{"sa",
                    [](const Objective& f, const Bounds& b, Rng& rng,
                       std::size_t evals, const EvalObserver& obs) {
                      return sa_maximize(f, b, rng, evals, obs);
                    }},
        NamedRunner{"random",
                    [](const Objective& f, const Bounds& b, Rng& rng,
                       std::size_t evals, const EvalObserver& obs) {
                      return random_search_maximize(f, b, rng, evals, obs);
                    }}),
    [](const ::testing::TestParamInfo<NamedRunner>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace easybo::opt
