#pragma once
/// \file regressor.h
/// \brief The read-only posterior surface the acquisition layer consumes.
///
/// Regressor is what an acquisition function needs from a model —
/// predict(), the mean-only and paired posterior queries, and its
/// dimension and size — and nothing the BO core uses to feed, fit or
/// train it. Two implementations exist, both in gp/gp.cpp: GpRegressor
/// (the exact jittered-Cholesky GP the core owns and trains) and the
/// hallucinated penalization overlay GpRegressor::hallucinate() returns
/// (an immutable view, never refit, whose mean is its base model's).
///
/// The paired query serves Eq. 9's (mu from the observed-data model,
/// sigma-hat from this one) from one kernel cross and one forward solve
/// where both implementations can share them; its batched form answers m
/// points per virtual call, so acquisition screening pays one dispatch
/// and one sweep over the factor per chunk instead of two full predict()
/// calls per point. Every fast path is bit-identical to the plain calls
/// it replaces. The batched form also takes an optional RetireTest, which
/// lets screening stop the variance solve of a point it no longer needs;
/// the points it keeps are still bit-identical.

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>

#include "common/error.h"
#include "linalg/vec.h"

namespace easybo::gp {

using linalg::Vec;

/// Posterior moments at a test point.
struct Prediction {
  double mean = 0.0;
  double var = 0.0;  ///< latent variance, >= 0

  double stddev() const { return std::sqrt(std::max(var, 0.0)); }
};

/// Early retirement for Regressor::predict_paired_batch: asked about a
/// point's (mean, var_bound) as its variance solve proceeds, where
/// var_bound >= the point's exact variance and only shrinks from one ask
/// to the next; returning true stops that point's solve.
using RetireTest = std::function<bool(double mean, double var_bound)>;

/// Read-only posterior surface consumed by the acquisition layer. The
/// owner must keep the model alive and fitted while acquisitions
/// referencing it are in use.
class Regressor {
 public:
  virtual ~Regressor() = default;

  virtual std::size_t dim() const = 0;
  virtual std::size_t num_points() const = 0;
  virtual bool fitted() const = 0;

  /// Posterior mean and latent variance at x (Eq. 2). Requires fitted().
  virtual Prediction predict(const Vec& x) const = 0;

  /// Posterior mean only, bit-identical to predict(x).mean. GpRegressor
  /// skips the O(n^2) variance solve.
  virtual double predict_mean(const Vec& x) const { return predict(x).mean; }

  /// Paired query: {mean_model.predict_mean(x), predict(x).var}, bit for
  /// bit. Overrides fuse the two when \p mean_model shares this model's
  /// kernel cross (GpRegressor: itself; the hallucination overlay: its
  /// base), computing it once.
  virtual Prediction predict_paired(const Regressor& mean_model,
                                    const Vec& x) const {
    return {mean_model.predict_mean(x), predict(x).var};
  }

  /// Batched paired query: out[c] = predict_paired(mean_model, xs[c]) bit
  /// for bit, for xs.size() == out.size() points. Overrides build the m
  /// kernel crosses as one block and run one multi-right-hand-side forward
  /// solve (linalg::Cholesky::solve_lower_inplace).
  ///
  /// With \p retire, an implementation may stop a point's variance solve
  /// early: it asks the test before the solve and every few rows after,
  /// and a point the test retires keeps its exact mean and, as var, the
  /// bound it was retired on. Every other point is exact. Returns how many
  /// points were solved to the last row (all of them without a test, and
  /// always here: the default never retires).
  virtual std::size_t predict_paired_batch(const Regressor& mean_model,
                                           std::span<const Vec> xs,
                                           std::span<Prediction> out,
                                           const RetireTest& /*retire*/ = {})
      const {
    EASYBO_REQUIRE(xs.size() == out.size(),
                   "predict_paired_batch: |xs| must equal |out|");
    for (std::size_t c = 0; c < xs.size(); ++c) {
      out[c] = predict_paired(mean_model, xs[c]);
    }
    return xs.size();
  }
};

}  // namespace easybo::gp
