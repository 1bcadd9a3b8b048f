// Tests for the acquisition functions: UCB/EI values, the EasyBO
// weight distribution (Fig. 2), the pBO weight grid, the pHCBO high-
// coverage penalty (Eq. 6), and the hallucination-penalized weighted UCB
// (Eq. 9).

#include "acq/acquisition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>

#include "common/error.h"
#include "common/stats.h"
#include "gp/gp.h"
#include "obs/recording.h"

namespace easybo::acq {
namespace {

using gp::GpRegressor;
using gp::SquaredExponentialArd;

GpRegressor make_model() {
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1.0, Vec{0.25}),
                 1e-8);
  gp.set_data({{0.1}, {0.5}, {0.9}}, {0.0, 1.0, -0.5});
  gp.fit();
  return gp;
}

TEST(NormalHelpers, PdfCdfKnownValues) {
  EXPECT_NEAR(norm_pdf(0.0), 0.3989422804, 1e-9);
  EXPECT_NEAR(norm_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(norm_cdf(1.6448536), 0.95, 1e-6);
  EXPECT_NEAR(norm_cdf(-1.6448536), 0.05, 1e-6);
}

TEST(Ucb, CombinesMeanAndUncertainty) {
  const auto gp = make_model();
  Ucb ucb(&gp, 2.0);
  const Vec x = {0.3};
  const auto p = gp.predict(x);
  EXPECT_NEAR(ucb(x), p.mean + 2.0 * p.stddev(), 1e-12);
}

TEST(Ucb, KappaZeroIsPureMean) {
  const auto gp = make_model();
  Ucb ucb(&gp, 0.0);
  const Vec x = {0.37};
  EXPECT_NEAR(ucb(x), gp.predict(x).mean, 1e-12);
}

TEST(Ucb, RejectsNegativeKappaAndNullModel) {
  const auto gp = make_model();
  EXPECT_THROW(Ucb(&gp, -1.0), InvalidArgument);
  EXPECT_THROW(Ucb(nullptr, 1.0), InvalidArgument);
}

TEST(Ei, IsNonNegativeEverywhere) {
  const auto gp = make_model();
  Ei ei(&gp, /*best_y=*/1.0);
  for (double x = -0.2; x <= 1.2; x += 0.01) {
    EXPECT_GE(ei({x}), 0.0) << "at x=" << x;
  }
}

TEST(Ei, ZeroAtConfidentlyWorsePoint) {
  const auto gp = make_model();
  Ei ei(&gp, /*best_y=*/1.0);
  // x = 0.9 is a training point with y = -0.5 and near-zero variance.
  EXPECT_LT(ei({0.9}), 1e-6);
}

TEST(Ei, MatchesClosedFormOnHandValues) {
  const auto gp = make_model();
  const Vec x = {0.31};
  const auto p = gp.predict(x);
  const double best = 0.4;
  const double z = (p.mean - best) / p.stddev();
  const double expected =
      (p.mean - best) * norm_cdf(z) + p.stddev() * norm_pdf(z);
  Ei ei(&gp, best);
  EXPECT_NEAR(ei(x), expected, 1e-12);
}

TEST(WeightedUcb, EndpointsAreMeanAndSigma) {
  const auto gp = make_model();
  const Vec x = {0.33};
  const auto p = gp.predict(x);
  WeightedUcb pure_mean(&gp, &gp, 0.0);
  WeightedUcb pure_sigma(&gp, &gp, 1.0);
  EXPECT_NEAR(pure_mean(x), p.mean, 1e-12);
  EXPECT_NEAR(pure_sigma(x), p.stddev(), 1e-12);
}

TEST(WeightedUcb, RejectsOutOfRangeWeight) {
  const auto gp = make_model();
  EXPECT_THROW(WeightedUcb(&gp, &gp, -0.1), InvalidArgument);
  EXPECT_THROW(WeightedUcb(&gp, &gp, 1.1), InvalidArgument);
}

TEST(WeightedUcb, Eq9UsesHallucinatedSigmaButObservedMean) {
  // The penalized acquisition (Eq. 9) must take mu from the observed-data
  // model and sigma-hat from the augmented model.
  const auto gp = make_model();
  const Vec pending = {0.3};
  const auto aug = gp.with_hallucinated({pending});
  WeightedUcb eq9(&gp, &aug, 0.5);
  const double expected =
      0.5 * gp.predict(pending).mean + 0.5 * aug.predict(pending).stddev();
  EXPECT_NEAR(eq9(pending), expected, 1e-12);
  // And it is strictly smaller than the unpenalized value at the busy
  // point (that is the whole point of the scheme).
  WeightedUcb eq8(&gp, &gp, 0.5);
  EXPECT_LT(eq9(pending), eq8(pending));
}

// ---------------------------------------------------------------------------
// evaluate_batch: the screening path, bit for bit the scalar path
// ---------------------------------------------------------------------------

GpRegressor fitted_2d(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1.0, Vec{0.3, 0.4}),
                 noise);
  std::vector<Vec> xs(n);
  Vec ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = {rng.uniform(), rng.uniform()};
    ys[i] = std::sin(4.0 * xs[i][0]) + xs[i][1] * xs[i][1];
  }
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();
  return gp;
}

std::vector<Vec> probe_points(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> xs(m);
  for (Vec& x : xs) x = {rng.uniform(), rng.uniform()};
  return xs;
}

/// evaluate_batch over 70 points (one call, then in chunks of 32) must
/// reproduce operator() bit for bit; for WeightedUcb, operator() must in
/// turn reproduce the split two-predict formula it replaced.
void expect_batch_matches_scalar(const AcquisitionFn& fn,
                                 const gp::Regressor* mean_model,
                                 const gp::Regressor* var_model, double w) {
  const auto xs = probe_points(70, 5);
  Vec whole(xs.size());
  fn.evaluate_batch(xs, whole);
  Vec chunked(xs.size());
  const std::span<const Vec> all(xs);
  for (std::size_t i = 0; i < xs.size(); i += 32) {
    const std::size_t m = std::min<std::size_t>(32, xs.size() - i);
    fn.evaluate_batch(all.subspan(i, m),
                      std::span<double>(chunked).subspan(i, m));
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double scalar = fn(xs[i]);
    EXPECT_EQ(whole[i], scalar) << "point " << i;
    EXPECT_EQ(chunked[i], scalar) << "point " << i;
    if (mean_model != nullptr) {
      const double split = (1.0 - w) * mean_model->predict(xs[i]).mean +
                           w * var_model->predict(xs[i]).stddev();
      EXPECT_EQ(scalar, split) << "point " << i;
    }
  }
}

TEST(EvaluateBatch, WeightedUcbSameModel) {
  const GpRegressor gp = fitted_2d(30, 1e-6, 61);
  const WeightedUcb fn(&gp, &gp, 0.7);
  expect_batch_matches_scalar(fn, &gp, &gp, 0.7);
}

TEST(EvaluateBatch, WeightedUcbOverOverlay) {
  const GpRegressor gp = fitted_2d(30, 1e-6, 62);
  const auto overlay = gp.hallucinate(probe_points(6, 63));
  const WeightedUcb fn(&gp, overlay.get(), 0.6);
  expect_batch_matches_scalar(fn, &gp, overlay.get(), 0.6);
}

TEST(EvaluateBatch, WeightedUcbOverOverlayFallbackFactor) {
  // Duplicated pending points with no noise slack: the overlay cannot
  // extend and serves from its full refactorization instead.
  GpRegressor gp = fitted_2d(10, 1e-16, 64);
  const Vec dup = {0.5, 0.5};
  obs::RecordingSink sink;
  gp.set_trace(&sink);
  const auto overlay = gp.hallucinate({dup, dup, dup});
  gp.set_trace(nullptr);
  ASSERT_EQ(sink.counter("gp.hallucinate_fallback"), 1u);
  const WeightedUcb fn(&gp, overlay.get(), 0.8);
  expect_batch_matches_scalar(fn, &gp, overlay.get(), 0.8);
}

TEST(EvaluateBatch, WeightedUcbWithUnrelatedMeanModel) {
  // Neither fused path applies: the Regressor default pairs the two
  // models' plain queries.
  const GpRegressor mean_model = fitted_2d(25, 1e-6, 65);
  const GpRegressor var_model = fitted_2d(18, 1e-6, 66);
  const WeightedUcb fn(&mean_model, &var_model, 0.4);
  expect_batch_matches_scalar(fn, &mean_model, &var_model, 0.4);
}

TEST(EvaluateBatch, FeasibilityWeightedOverPlainModel) {
  const GpRegressor gp = fitted_2d(30, 1e-6, 70);
  const GpRegressor g1 = fitted_2d(20, 1e-6, 71);
  const GpRegressor g2 = fitted_2d(25, 1e-6, 72);
  const WeightedUcb base(&gp, &gp, 0.7);
  // A floor inside the base's range clamps part of the probes to zero.
  const FeasibilityWeighted fn(&base, base(probe_points(70, 5)[10]),
                               {&g1, &g2});
  expect_batch_matches_scalar(fn, nullptr, nullptr, 0.0);
}

TEST(EvaluateBatch, FeasibilityWeightedOverOverlay) {
  const GpRegressor gp = fitted_2d(30, 1e-6, 73);
  const auto overlay = gp.hallucinate(probe_points(6, 74));
  const GpRegressor g1 = fitted_2d(22, 1e-6, 75);
  const WeightedUcb base(&gp, overlay.get(), 0.6);
  const FeasibilityWeighted fn(&base, -0.25, {&g1});
  expect_batch_matches_scalar(fn, nullptr, nullptr, 0.0);
}

TEST(FeasibilityWeighted, DownWeightsByTheProbabilityOfFeasibility) {
  const GpRegressor gp = fitted_2d(30, 1e-6, 76);
  const GpRegressor g = fitted_2d(20, 1e-6, 77);
  const WeightedUcb base(&gp, &gp, 0.5);
  const double floor = -3.0;
  const FeasibilityWeighted fn(&base, floor, {&g});
  for (const Vec& x : probe_points(20, 78)) {
    const gp::Prediction p = g.predict(x);
    const double expected =
        (std::max(base(x) - floor, 0.0) + 1e-12) *
        norm_cdf(p.mean / std::max(p.stddev(), 1e-9));
    EXPECT_EQ(fn(x), expected);
  }
  EXPECT_THROW(FeasibilityWeighted(nullptr, 0.0, {&g}), InvalidArgument);
  EXPECT_THROW(FeasibilityWeighted(&base, 0.0, {nullptr}), InvalidArgument);
}

TEST(EvaluateBatch, DefaultLoopForEi) {
  const GpRegressor gp = fitted_2d(30, 1e-6, 67);
  const Ei fn(&gp, 0.5);
  expect_batch_matches_scalar(fn, nullptr, nullptr, 0.0);
}

// ---------------------------------------------------------------------------
// Exact bound pruning: the retirement test and the floor
// ---------------------------------------------------------------------------

/// A 3-D GP over 60 points, so the batched solve takes four retirement
/// steps (16 rows each), and 14 pending points for its overlay.
GpRegressor fitted_3d(std::uint64_t seed) {
  Rng rng(seed);
  GpRegressor gp(
      std::make_unique<SquaredExponentialArd>(1.0, Vec{0.2, 0.3, 0.25}),
      1e-6);
  std::vector<Vec> xs(60);
  Vec ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform_vector(3);
    ys[i] = std::sin(5.0 * xs[i][0]) * xs[i][1] - xs[i][2];
  }
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();
  return gp;
}

std::vector<Vec> probe_points_3d(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> xs(m);
  for (Vec& x : xs) x = rng.uniform_vector(3);
  return xs;
}

/// predict_paired_batch with a retirement test at several floors: every
/// point the test never retired equals the plain batched call bit for bit;
/// every retired point keeps its exact mean and a variance bound at or
/// above its exact variance, and its exact value is below the floor; the
/// return value counts the survivors.
void expect_retirement_is_exact(const GpRegressor& mean_model,
                                const gp::Regressor& var_model) {
  const auto xs = probe_points_3d(40, 81);
  std::vector<gp::Prediction> plain(xs.size());
  ASSERT_EQ(var_model.predict_paired_batch(mean_model, xs, plain), xs.size());
  const double w = 0.6;
  const auto value = [w](const gp::Prediction& p) {
    return (1.0 - w) * p.mean + w * p.stddev();
  };
  Vec exact(xs.size());
  for (std::size_t c = 0; c < xs.size(); ++c) exact[c] = value(plain[c]);
  Vec sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  std::size_t retired_mid_solve = 0;
  for (const double q : {0.1, 0.5, 0.9}) {
    const double floor = sorted[static_cast<std::size_t>(q * 39.0)];
    std::vector<double> retired_means;
    std::vector<gp::Prediction> out(xs.size());
    const std::size_t survivors = var_model.predict_paired_batch(
        mean_model, xs, out, [&](double mean, double var_bound) {
          if (!(value({mean, var_bound}) < floor)) return false;
          retired_means.push_back(mean);
          return true;
        });
    EXPECT_EQ(survivors + retired_means.size(), xs.size());
    EXPECT_GT(retired_means.size(), 0u) << "floor quantile " << q;
    for (std::size_t c = 0; c < xs.size(); ++c) {
      const bool retired =
          std::count(retired_means.begin(), retired_means.end(),
                     plain[c].mean) > 0;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[c].mean),
                std::bit_cast<std::uint64_t>(plain[c].mean));
      if (!retired) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[c].var),
                  std::bit_cast<std::uint64_t>(plain[c].var))
            << "survivor " << c << " at floor quantile " << q;
        continue;
      }
      EXPECT_LT(exact[c], floor) << "point " << c;
      EXPECT_GE(out[c].var, plain[c].var) << "point " << c;
      EXPECT_LT(value(out[c]), floor) << "point " << c;
      // Retired before any row, a point holds k(x, x) itself.
      if (out[c].var < mean_model.kernel()(xs[c], xs[c])) ++retired_mid_solve;
    }
  }
  EXPECT_GT(retired_mid_solve, 0u) << "no point left the solve mid-way";
}

TEST(PairedBatchRetirement, PlainGpKeepsSurvivorsBitwise) {
  const GpRegressor gp = fitted_3d(82);
  expect_retirement_is_exact(gp, gp);
}

TEST(PairedBatchRetirement, OverlayKeepsSurvivorsBitwise) {
  const GpRegressor gp = fitted_3d(83);
  const auto overlay = gp.hallucinate(probe_points_3d(14, 84));
  expect_retirement_is_exact(gp, *overlay);
}

/// evaluate_batch's floor contract for the confidence-bound family: at and
/// above the floor a point reads its operator() value bit for bit, below
/// it -inf; the return value counts the points solved in full, and with
/// no floor that is every point.
void expect_floor_contract(const AcquisitionFn& fn) {
  const auto xs = probe_points_3d(70, 85);
  Vec exact(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) exact[i] = fn(xs[i]);
  Vec out(xs.size());
  EXPECT_EQ(fn.evaluate_batch(xs, out), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(exact[i]));
  }
  Vec sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  for (const double floor : {sorted[7], sorted[35], sorted[62]}) {
    const std::size_t solved = fn.evaluate_batch(xs, out, floor);
    std::size_t below = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (exact[i] >= floor) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(exact[i]))
            << "point " << i;
      } else {
        ++below;
        EXPECT_EQ(out[i], -std::numeric_limits<double>::infinity())
            << "point " << i;
      }
    }
    // Every point at or above the floor is solved in full; some below it
    // are not.
    EXPECT_GE(solved, xs.size() - below);
    EXPECT_LT(solved, xs.size());
  }
}

TEST(EvaluateBatch, FloorContractForTheConfidenceBoundFamily) {
  const GpRegressor gp = fitted_3d(86);
  const auto overlay = gp.hallucinate(probe_points_3d(14, 87));
  for (const double w : {0.0, 0.3, 6.0 / 7.0, 1.0}) {
    SCOPED_TRACE(w);
    expect_floor_contract(WeightedUcb(&gp, &gp, w));
    expect_floor_contract(WeightedUcb(&gp, overlay.get(), w));
  }
  expect_floor_contract(Ucb(&gp, 2.0));
  expect_floor_contract(Bucb(&gp, overlay.get(), 1.5));
}

TEST(EvaluateBatch, UcbAndBucbMatchTheirFormulas) {
  // Ucb and Bucb now share WeightedUcb's path with a = 1: 1.0 * mu == mu,
  // so their values are the historical formulas bit for bit.
  const GpRegressor gp = fitted_3d(88);
  const auto overlay = gp.hallucinate(probe_points_3d(14, 89));
  const Ucb ucb(&gp, 2.0);
  const Bucb bucb(&gp, overlay.get(), 1.5);
  for (const Vec& x : probe_points_3d(30, 90)) {
    const gp::Prediction p = gp.predict(x);
    EXPECT_EQ(ucb(x), p.mean + 2.0 * p.stddev());
    EXPECT_EQ(bucb(x), p.mean + 1.5 * overlay->predict(x).stddev());
  }
}

TEST(EvaluateBatch, RejectsMismatchedSpans) {
  const GpRegressor gp = fitted_2d(10, 1e-6, 68);
  const auto xs = probe_points(4, 69);
  Vec out(3);
  EXPECT_THROW(WeightedUcb(&gp, &gp, 0.5).evaluate_batch(xs, out),
               InvalidArgument);
  EXPECT_THROW(Ei(&gp, 0.0).evaluate_batch(xs, out), InvalidArgument);
}

// ---------------------------------------------------------------------------
// EasyBO weight sampling (Fig. 2 property)
// ---------------------------------------------------------------------------

TEST(EasyBoWeight, RangeIsZeroToLambdaOverLambdaPlusOne) {
  Rng rng(1);
  const double lambda = 6.0;
  const double wmax = lambda / (lambda + 1.0);
  for (int i = 0; i < 5000; ++i) {
    const double w = sample_easybo_weight(rng, lambda);
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, wmax);
  }
}

TEST(EasyBoWeight, DensityIncreasesTowardOne) {
  // Fig. 2: the induced density of w rises toward 1. Count samples in the
  // three thirds of [0, 6/7]: strictly increasing occupancy.
  Rng rng(2);
  const double wmax = 6.0 / 7.0;
  int lo = 0, mid = 0, hi = 0;
  for (int i = 0; i < 30000; ++i) {
    const double w = sample_easybo_weight(rng, 6.0);
    if (w < wmax / 3) ++lo;
    else if (w < 2 * wmax / 3) ++mid;
    else ++hi;
  }
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
}

TEST(EasyBoWeight, MedianMatchesTheory) {
  // kappa ~ U[0,6] -> median kappa = 3 -> median w = 3/4.
  Rng rng(3);
  std::vector<double> ws;
  for (int i = 0; i < 20000; ++i) ws.push_back(sample_easybo_weight(rng, 6.0));
  EXPECT_NEAR(median_of(std::move(ws)), 0.75, 0.01);
}

TEST(EasyBoWeight, RejectsNonPositiveLambda) {
  Rng rng(1);
  EXPECT_THROW(sample_easybo_weight(rng, 0.0), InvalidArgument);
}

TEST(PboWeightGrid, MatchesPaperPattern) {
  // Paper §IV: w_i = (i-1)/(B-1); for B=5 -> (0, .25, .5, .75, 1).
  const Vec w5 = pbo_weight_grid(5);
  ASSERT_EQ(w5.size(), 5u);
  EXPECT_DOUBLE_EQ(w5[0], 0.0);
  EXPECT_DOUBLE_EQ(w5[1], 0.25);
  EXPECT_DOUBLE_EQ(w5[4], 1.0);
  EXPECT_DOUBLE_EQ(pbo_weight_grid(1)[0], 0.5);
}

// ---------------------------------------------------------------------------
// pHCBO high-coverage penalty (Eq. 6)
// ---------------------------------------------------------------------------

TEST(HcPenalty, ZeroWithoutHistory) {
  HighCoveragePenalty pen(0.1, 1.0);
  EXPECT_DOUBLE_EQ(pen({0.5, 0.5}), 0.0);
}

TEST(HcPenalty, HugeInsideRadiusTinyOutside) {
  HighCoveragePenalty pen(0.1, 1.0);
  pen.record({0.5, 0.5});
  // Inside the d-ball: astronomically large.
  EXPECT_GT(pen({0.52, 0.5}), 1e10);
  // Several radii away: essentially zero extra (exp(tiny) ~ 1 * N_HC, and
  // the (d/dist)^10 exponent collapses fast).
  EXPECT_LT(pen({0.9, 0.9}), 1.01);
}

TEST(HcPenalty, KeepsOnlyLastFivePoints) {
  HighCoveragePenalty pen(0.1, 1.0);
  for (int i = 0; i < 8; ++i) {
    pen.record({0.1 * i, 0.0});
  }
  EXPECT_EQ(pen.history().size(), 5u);
  // The first recorded point (0,0) fell out of the window: the penalty
  // right on it is only driven by the remaining (distant) points.
  EXPECT_LT(pen({0.0, 0.0}), 2.0);
}

TEST(HcPenalty, NoOverflowAtExactHistoryPoint) {
  HighCoveragePenalty pen(0.1, 1.0);
  pen.record({0.3});
  const double v = pen({0.3});
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(v, 1e100);
}

TEST(Phcbo, PenaltySuppressesRevisits) {
  const auto gp = make_model();
  HighCoveragePenalty pen(0.15, 1.0);
  PhcboAcquisition acq(&gp, 0.5, &pen);
  WeightedUcb base(&gp, &gp, 0.5);
  const Vec x = {0.42};
  EXPECT_NEAR(acq(x), base(x), 1e-9);  // no history yet
  pen.record(x);
  EXPECT_LT(acq(x), base(x) - 1.0);  // massively penalized now
}

// ---------------------------------------------------------------------------
// Local penalization (extension baseline)
// ---------------------------------------------------------------------------

TEST(LocalPenalization, SuppressesBusyNeighborhoodOnly) {
  const auto gp = make_model();
  Ei base(&gp, 0.2);
  const Vec busy = {0.3};
  LocalPenalization lp(&base, &gp, {busy}, /*lipschitz=*/5.0,
                       /*best_y=*/1.0);
  LocalPenalization lp_empty(&base, &gp, {}, 5.0, 1.0);
  // With no busy points the hammer product is empty: positive transform of
  // the base acquisition, same argmax ordering.
  EXPECT_GT(lp_empty({0.45}), lp_empty({0.9}));
  // Busy point suppressed relative to the unpenalized version.
  EXPECT_LT(lp(busy) / std::max(lp_empty(busy), 1e-12), 0.9);
}

TEST(LocalPenalization, CachedBusyPredictionsMatchPerEvaluationFormula) {
  // The busy points' moments are predicted once, at construction; every
  // value must equal the formula that re-predicts them per evaluation.
  const auto gp = make_model();
  Ei base(&gp, 0.2);
  const std::vector<Vec> busy = {{0.3}, {0.62}, {0.95}};
  const double lipschitz = 4.0;
  const double best_y = 0.8;
  const LocalPenalization lp(&base, &gp, busy, lipschitz, best_y);
  for (double x = 0.0; x <= 1.0; x += 0.0625) {
    const Vec xv = {x};
    double expected = std::log1p(std::exp(std::clamp(base(xv), -30.0, 30.0)));
    for (const Vec& xj : busy) {
      const auto p = gp.predict(xj);
      const double sd = std::max(p.stddev(), 1e-9);
      const double z = (lipschitz * linalg::dist(xv, xj) - (best_y - p.mean)) /
                       (std::numbers::sqrt2 * sd);
      expected *= norm_cdf(z);
    }
    const double got = lp(xv);
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0) << "x=" << x;
  }
}

TEST(EstimateLipschitz, PositiveAndScalesWithFunction) {
  Rng rng(9);
  const auto gp = make_model();
  const double l = estimate_lipschitz(gp, rng, 128);
  EXPECT_GT(l, 0.0);
  EXPECT_THROW(estimate_lipschitz(gp, rng, 1), InvalidArgument);
}

}  // namespace
}  // namespace easybo::acq
