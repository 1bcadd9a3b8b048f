#pragma once
/// \file regressor.h
/// \brief The read-only posterior surface the acquisition layer consumes.
///
/// Regressor is what an acquisition function needs from a model —
/// predict(), joint posterior sampling, and the few scalars acquisitions
/// read — and nothing the BO core uses to feed, fit or train it. Two
/// implementations exist, both in gp/gp.cpp: GpRegressor (the exact
/// jittered-Cholesky GP the core owns and trains) and the hallucinated
/// penalization overlay GpRegressor::hallucinate() returns (an immutable
/// view, never refit). One virtual call per acquisition evaluation is
/// negligible next to the O(n) kernel cross and O(n^2) solve it fronts.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/vec.h"

namespace easybo::gp {

using linalg::Vec;

/// Posterior moments at a test point.
struct Prediction {
  double mean = 0.0;
  double var = 0.0;  ///< latent variance, >= 0

  double stddev() const { return std::sqrt(std::max(var, 0.0)); }
};

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

  /// Variance including observation noise (for posterior sampling of y).
  virtual double predict_observation_var(const Vec& x) const = 0;

  virtual double noise_variance() const = 0;

  /// One joint sample of the posterior over \p candidates (Thompson
  /// sampling). Returns the sampled latent values, one per candidate, and
  /// draws exactly one normal from \p rng per candidate.
  virtual Vec sample_posterior(const std::vector<Vec>& candidates,
                               Rng& rng) const = 0;
};

}  // namespace easybo::gp
