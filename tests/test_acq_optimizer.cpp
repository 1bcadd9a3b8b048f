// Tests for the shared acquisition maximizer (screening + Nelder-Mead
// refinement over the unit cube), and the bitwise oracle for its exact
// bound pruning: on the confidence-bound family, maximizing with the
// running floor must equal maximizing a reference that screens every
// candidate in full.

#include "acq/acq_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "common/error.h"
#include "gp/gp.h"
#include "obs/recording.h"

namespace easybo::acq {
namespace {

/// Ad-hoc acquisition wrapping a plain callable.
class LambdaAcq final : public AcquisitionFn {
 public:
  explicit LambdaAcq(std::function<double(const linalg::Vec&)> fn)
      : fn_(std::move(fn)) {}
  double operator()(const linalg::Vec& x) const override { return fn_(x); }

 private:
  std::function<double(const linalg::Vec&)> fn_;
};

TEST(AcqOptimizer, FindsInteriorPeak) {
  // Smooth unimodal bump centered at (0.3, 0.7).
  LambdaAcq fn([](const linalg::Vec& x) {
    const double dx = x[0] - 0.3, dy = x[1] - 0.7;
    return std::exp(-20.0 * (dx * dx + dy * dy));
  });
  Rng rng(1);
  const auto r = maximize_acquisition(fn, 2, rng);
  EXPECT_NEAR(r.best_x[0], 0.3, 0.02);
  EXPECT_NEAR(r.best_x[1], 0.7, 0.02);
  EXPECT_GT(r.best_value, 0.99);
}

TEST(AcqOptimizer, FindsBoundaryPeak) {
  // Monotone function maximized at the corner (1, 1, 1).
  LambdaAcq fn([](const linalg::Vec& x) { return x[0] + x[1] + x[2]; });
  Rng rng(2);
  const auto r = maximize_acquisition(fn, 3, rng);
  EXPECT_GT(r.best_value, 2.9);
}

TEST(AcqOptimizer, StaysInsideUnitCube) {
  LambdaAcq fn([](const linalg::Vec& x) { return x[0]; });
  Rng rng(3);
  const auto r = maximize_acquisition(fn, 4, rng);
  for (double v : r.best_x) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(AcqOptimizer, AnchorRescuesNarrowPeak) {
  // A needle at a known location that random screening will almost surely
  // miss — the anchor (e.g. the incumbent in BO) must save it.
  const linalg::Vec needle = {0.123456, 0.654321, 0.333333, 0.777777,
                              0.111111};
  LambdaAcq fn([&needle](const linalg::Vec& x) {
    return std::exp(-5e4 * linalg::dist_sq(x, needle));
  });
  Rng rng(4);
  AcqOptOptions opt;
  opt.jitter_scale = 0.002;
  const auto with_anchor =
      maximize_acquisition(fn, 5, rng, {needle}, opt);
  EXPECT_GT(with_anchor.best_value, 0.5);
}

TEST(AcqOptimizer, CountsEvaluations) {
  LambdaAcq fn([](const linalg::Vec& x) { return x[0]; });
  Rng rng(5);
  AcqOptOptions opt;
  opt.sobol_candidates = 32;
  opt.random_candidates = 16;
  opt.refine_top_k = 1;
  opt.refine_evals = 50;
  const auto r = maximize_acquisition(fn, 2, rng, {}, opt);
  EXPECT_GE(r.num_evals, 48u + 10u);           // screening + some NM evals
  EXPECT_LE(r.num_evals, 48u + 50u);
}

TEST(AcqOptimizer, RefinementBeatsScreeningOnly) {
  LambdaAcq fn([](const linalg::Vec& x) {
    const double dx = x[0] - 0.511111;
    return -dx * dx;
  });
  AcqOptOptions no_refine;
  no_refine.refine_evals = 0;
  no_refine.sobol_candidates = 64;
  no_refine.random_candidates = 0;
  no_refine.anchor_jitter = 0;
  AcqOptOptions with_refine = no_refine;
  with_refine.refine_evals = 150;
  with_refine.refine_top_k = 1;

  Rng r1(6), r2(6);
  const auto coarse = maximize_acquisition(fn, 1, r1, {}, no_refine);
  const auto fine = maximize_acquisition(fn, 1, r2, {}, with_refine);
  EXPECT_GE(fine.best_value, coarse.best_value);
  EXPECT_NEAR(fine.best_x[0], 0.511111, 1e-3);
}

TEST(AcqOptimizer, HighDimensionFallsBackToRandomScreening) {
  // dim > Sobol table limit (21) must still work.
  LambdaAcq fn([](const linalg::Vec& x) { return x[0]; });
  Rng rng(7);
  const auto r = maximize_acquisition(fn, 25, rng);
  EXPECT_EQ(r.best_x.size(), 25u);
  EXPECT_GT(r.best_value, 0.8);
}

TEST(AcqOptimizer, RejectsBadArguments) {
  LambdaAcq fn([](const linalg::Vec&) { return 0.0; });
  Rng rng(8);
  EXPECT_THROW(maximize_acquisition(fn, 0, rng), InvalidArgument);
  AcqOptOptions opt;
  opt.sobol_candidates = 0;
  opt.random_candidates = 0;
  EXPECT_THROW(maximize_acquisition(fn, 2, rng, {}, opt), InvalidArgument);
  EXPECT_THROW(maximize_acquisition(fn, 2, rng, {{0.5}}, AcqOptOptions{}),
               InvalidArgument);  // anchor dim mismatch
}

TEST(AcqOptimizer, ZeroRefineStartsReturnTheScreenedArgmax) {
  // refine_top_k = 0: no Nelder-Mead start, and the result is the first
  // screened candidate with the largest value — not candidate 0, which a
  // partial sort over zero elements may leave at the front.
  std::vector<linalg::Vec> seen_x;
  Vec seen_y;
  LambdaAcq fn([&](const linalg::Vec& x) {
    const double dx = x[0] - 0.7, dy = x[1] - 0.2;
    seen_x.push_back(x);
    seen_y.push_back(-(dx * dx + dy * dy));
    return seen_y.back();
  });
  AcqOptOptions opt;
  opt.sobol_candidates = 64;
  opt.random_candidates = 32;
  opt.refine_top_k = 0;
  Rng rng(9);
  const auto r = maximize_acquisition(fn, 2, rng, {{0.1, 0.9}}, opt);
  ASSERT_EQ(seen_y.size(), 96u + 9u);
  EXPECT_EQ(r.num_evals, seen_y.size());
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(seen_y.begin(), seen_y.end()) - seen_y.begin());
  ASSERT_NE(best, 0u) << "setup: candidate 0 must not be the argmax";
  EXPECT_EQ(r.best_value, seen_y[best]);
  EXPECT_EQ(r.best_x, seen_x[best]);
}

// ---------------------------------------------------------------------------
// Exact bound pruning against a reference that screens everything
// ---------------------------------------------------------------------------

using gp::GpRegressor;
using gp::SquaredExponentialArd;

/// The reference: forwards operator() and the no-floor batch call, so the
/// maximizer screens every candidate in full through it. Records every
/// screened value.
class ScreenEverything final : public AcquisitionFn {
 public:
  explicit ScreenEverything(const AcquisitionFn& fn) : fn_(fn) {}
  double operator()(const linalg::Vec& x) const override { return fn_(x); }
  std::size_t evaluate_batch(std::span<const linalg::Vec> xs,
                             std::span<double> out,
                             double /*floor*/ = kNoFloor) const override {
    const std::size_t solved = fn_.evaluate_batch(xs, out);
    screened.insert(screened.end(), out.begin(), out.end());
    return solved;
  }

  mutable Vec screened;

 private:
  const AcquisitionFn& fn_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

AcqOptOptions oracle_options(std::size_t top_k) {
  AcqOptOptions opt;
  opt.sobol_candidates = 128;
  opt.random_candidates = 64;
  opt.refine_top_k = top_k;
  opt.refine_evals = 40;
  return opt;
}

/// What a sweep of oracle runs did: screened candidates and how many of
/// them the floor runs solved in full.
struct Tally {
  std::uint64_t screened = 0;
  std::uint64_t var_solves = 0;
};

/// Maximizes \p fn and its reference from the same seed: best_x,
/// best_value, num_evals and the RNG state left behind must agree bit for
/// bit. Returns the reference's screened values.
Vec expect_matches_reference(const AcquisitionFn& fn, std::uint64_t seed,
                             const std::vector<linalg::Vec>& anchors,
                             const AcqOptOptions& opt, Tally& tally) {
  const ScreenEverything ref(fn);
  Rng r1(seed), r2(seed);
  const std::size_t dim = anchors.front().size();
  const auto want = maximize_acquisition(ref, dim, r1, anchors, opt);
  obs::RecordingSink sink;
  const auto got = maximize_acquisition(fn, dim, r2, anchors, opt, &sink);
  EXPECT_EQ(bits(got.best_value), bits(want.best_value)) << "seed " << seed;
  EXPECT_EQ(got.num_evals, want.num_evals) << "seed " << seed;
  EXPECT_EQ(got.best_x.size(), want.best_x.size());
  for (std::size_t j = 0; j < std::min(got.best_x.size(), want.best_x.size());
       ++j) {
    EXPECT_EQ(bits(got.best_x[j]), bits(want.best_x[j]))
        << "seed " << seed << " coordinate " << j;
  }
  EXPECT_EQ(bits(r2.uniform()), bits(r1.uniform())) << "seed " << seed;
  tally.screened += ref.screened.size();
  tally.var_solves += sink.counter("acq.var_solves");
  return ref.screened;
}

/// A 3-D GP over 40 seeded points, with SE lengthscales from \p ell to
/// 1.2 * ell.
GpRegressor oracle_gp(std::uint64_t seed, double ell = 0.25) {
  Rng rng(seed);
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(
                     1.0, linalg::Vec{ell, 1.2 * ell, 1.1 * ell}),
                 1e-6);
  std::vector<linalg::Vec> xs(40);
  linalg::Vec ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform_vector(3);
    ys[i] = std::sin(6.0 * xs[i][0]) * xs[i][1] - 0.5 * xs[i][2];
  }
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();
  return gp;
}

/// The incumbent: the training input with the largest target.
linalg::Vec incumbent(const GpRegressor& gp) {
  const auto& y = gp.targets();
  return gp.inputs()[static_cast<std::size_t>(
      std::max_element(y.begin(), y.end()) - y.begin())];
}

/// 14 pending points for the hallucination overlay.
std::vector<linalg::Vec> pending_points(std::uint64_t seed) {
  Rng rng(seed + 1000);
  std::vector<linalg::Vec> p(14);
  for (auto& x : p) x = rng.uniform_vector(3);
  return p;
}

constexpr std::uint64_t kOracleSeeds = 50;
constexpr double kWeights[] = {0.0, 0.3, 6.0 / 7.0, 1.0};
constexpr std::size_t kTopK[] = {1, 3, 5};

TEST(AcqOptimizerOracle, WeightedUcbOnAPlainGp) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    const GpRegressor gp = oracle_gp(seed);
    for (const double w : kWeights) {
      for (const std::size_t k : kTopK) {
        SCOPED_TRACE(testing::Message() << "w " << w << " k " << k);
        expect_matches_reference(WeightedUcb(&gp, &gp, w), seed,
                                 {incumbent(gp)}, oracle_options(k), tally);
      }
    }
  }
  EXPECT_LT(tally.var_solves, tally.screened / 2) << "the floor barely cut";
}

TEST(AcqOptimizerOracle, WeightedUcbOnAPendingOverlay) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    const GpRegressor gp = oracle_gp(seed);
    const auto overlay = gp.hallucinate(pending_points(seed));
    for (const double w : kWeights) {
      for (const std::size_t k : kTopK) {
        SCOPED_TRACE(testing::Message() << "w " << w << " k " << k);
        expect_matches_reference(WeightedUcb(&gp, overlay.get(), w), seed,
                                 {incumbent(gp)}, oracle_options(k), tally);
      }
    }
  }
  EXPECT_LT(tally.var_solves, tally.screened / 2) << "the floor barely cut";
}

TEST(AcqOptimizerOracle, UcbAndBucb) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    const GpRegressor gp = oracle_gp(seed);
    const auto overlay = gp.hallucinate(pending_points(seed));
    for (const std::size_t k : kTopK) {
      SCOPED_TRACE(testing::Message() << "k " << k);
      expect_matches_reference(Ucb(&gp, 2.0), seed, {incumbent(gp)},
                               oracle_options(k), tally);
      expect_matches_reference(Bucb(&gp, overlay.get(), 2.0), seed,
                               {incumbent(gp)}, oracle_options(k), tally);
    }
  }
  EXPECT_LT(tally.var_solves, tally.screened / 2) << "the floor barely cut";
}

/// True when one of the k largest screened values occurs more than once,
/// so partial_sort's tie order decides which candidates start
/// Nelder-Mead, or in which order.
bool tie_in_top_k(Vec values, std::size_t k) {
  std::sort(values.begin(), values.end(), std::greater<>());
  for (std::size_t i = 0; i < k && i + 1 < values.size(); ++i) {
    if (values[i] == values[i + 1]) return true;
  }
  return false;
}

TEST(AcqOptimizerOracle, DuplicateAnchorCopiesTie) {
  // jitter_scale = 0: the anchor's eight copies duplicate it. The anchor
  // is the reference's own maximizer, so the nine tie at the top; 188
  // screening points put four of them in the chunk before the floor
  // first reaches their value and five in the chunk after.
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    const GpRegressor gp = oracle_gp(seed);
    const auto overlay = gp.hallucinate(pending_points(seed));
    for (const std::size_t k : kTopK) {
      AcqOptOptions opt = oracle_options(k);
      opt.random_candidates = 60;
      opt.jitter_scale = 0.0;
      const WeightedUcb fn(&gp, overlay.get(), 0.5);
      Rng rng(seed);
      const linalg::Vec anchor =
          maximize_acquisition(fn, 3, rng, {incumbent(gp)}, opt).best_x;
      const Vec screened =
          expect_matches_reference(fn, seed, {anchor}, opt, tally);
      ASSERT_TRUE(tie_in_top_k(screened, k)) << "seed " << seed;
    }
  }
}

TEST(AcqOptimizerOracle, UnderflowedKernelRowsTieAcrossDistinctCandidates) {
  // Short lengthscales: far from the data and the pending points a
  // candidate's kernel row is below half an ulp of everything it meets,
  // so distinct candidates score exactly (1 - w) * ybar + w * sigma_f.
  // With w = 1 nothing scores above sigma_f, so the whole top k is one tie
  // among different points. At the trainer's 5e-3 floor nearly every
  // candidate ties; at 0.03 about half do, so partial_sort's heap also
  // orders distinct values below the tie — where retiring against the
  // final k-th value instead of the running floor changes the pick.
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    for (const double ell : {5e-3, 0.03}) {
      const GpRegressor gp = oracle_gp(seed, ell);
      const auto overlay = gp.hallucinate(pending_points(seed));
      for (const std::size_t k : kTopK) {
        SCOPED_TRACE(testing::Message() << "ell " << ell << " k " << k);
        const Vec screened = expect_matches_reference(
            WeightedUcb(&gp, overlay.get(), 1.0), seed, {incumbent(gp)},
            oracle_options(k), tally);
        ASSERT_TRUE(tie_in_top_k(screened, k)) << "seed " << seed;
      }
    }
  }
  EXPECT_LT(tally.var_solves, tally.screened) << "nothing was retired";
}

TEST(AcqOptimizerOracle, NaNChunkTurnsTheFloorOff) {
  // A NaN anchor: it and its copies score NaN. First in the sixth chunk,
  // which also holds finite candidates the floor could retire, with more
  // anchors following into the seventh; then among the first k
  // candidates, where partial_sort's initial heap holds it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    const GpRegressor gp = oracle_gp(seed);
    const auto overlay = gp.hallucinate(pending_points(seed));
    const WeightedUcb fn(&gp, overlay.get(), 0.5);
    Rng rng(seed + 2000);
    std::vector<linalg::Vec> others;
    for (int a = 0; a < 4; ++a) others.push_back(rng.uniform_vector(3));
    for (const std::size_t k : kTopK) {
      AcqOptOptions late = oracle_options(k);
      late.random_candidates = 30;  // 158 points, then 6 x 9 anchors
      std::vector<linalg::Vec> anchors = {incumbent(gp), {nan, 0.5, 0.5}};
      anchors.insert(anchors.end(), others.begin(), others.end());
      Vec screened = expect_matches_reference(fn, seed, anchors, late, tally);
      ASSERT_TRUE(std::isnan(screened[158 + 9])) << "setup: no NaN";

      AcqOptOptions early = oracle_options(k);
      early.sobol_candidates = 2;  // the NaN anchor is candidate 2
      early.random_candidates = 0;
      anchors = {{nan, 0.5, 0.5}, incumbent(gp)};
      anchors.insert(anchors.end(), others.begin(), others.end());
      screened = expect_matches_reference(fn, seed, anchors, early, tally);
      ASSERT_TRUE(std::isnan(screened[2])) << "setup: no NaN";
    }
  }
}

}  // namespace
}  // namespace easybo::acq
