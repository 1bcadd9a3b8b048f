#pragma once
/// \file gp.h
/// \brief Exact Gaussian process regression (paper §II-B, Eq. 2).
///
/// The regressor implements the standard zero/constant-mean GP posterior
///   mu(x*)     = m + k(x*, X) K^{-1} (y - m)
///   sigma2(x*) = k(x*, x*) - k(x*, X) K^{-1} k(X, x*)
/// with K = k(X, X) + sn^2 I, via a jittered Cholesky factorization.
///
/// It also provides the hallucinated posterior used by EasyBO's
/// penalization scheme (paper §III-C): pending query points are appended to
/// the training set with their current predictive mean as pseudo
/// observations; the shrunken predictive deviation of the augmented model is
/// what Eq. 9 calls sigma-hat. hallucinate() serves sigma-hat as a
/// zero-copy overlay over the base factor (its mean is the base's);
/// with_hallucinated() is the materialized deep-copy reference the
/// overlay's variance is proven bit-identical against.

#include <memory>
#include <optional>
#include <vector>

#include "gp/kernel.h"
#include "gp/regressor.h"
#include "linalg/cholesky.h"
#include "obs/trace.h"

namespace easybo::gp {

/// Exact GP regressor with owned kernel and Gaussian observation noise —
/// the one surrogate the BO core owns, feeds, fits, trains and
/// checkpoints. Acquisitions see it through the read-only Regressor
/// surface.
///
/// Usage: construct with a kernel, set_data(), fit(), then predict().
/// Hyperparameters (kernel log-params + log noise variance) can be read and
/// written as one flat vector for maximum-likelihood training (see
/// gp/trainer.h). The model uses an empirical constant mean (the sample mean
/// of y) so callers need not pre-center observations.
class GpRegressor final : public Regressor {
 public:
  /// \param kernel          covariance function (ownership transferred)
  /// \param noise_variance  sn^2, must be positive
  explicit GpRegressor(std::unique_ptr<Kernel> kernel,
                       double noise_variance = 1e-6);

  GpRegressor(const GpRegressor& other);
  GpRegressor& operator=(const GpRegressor& other);
  GpRegressor(GpRegressor&&) noexcept = default;
  GpRegressor& operator=(GpRegressor&&) noexcept = default;

  /// Replaces the training set. Invalidates any previous fit.
  void set_data(std::vector<Vec> xs, Vec ys);

  /// Appends one observation. Invalidates any previous fit.
  void add_point(Vec x, double y);

  /// Factorizes the covariance matrix with the current hyperparameters.
  /// Must be called after data or hyperparameter changes, before predict().
  ///
  /// Incremental fast path: when points were only APPENDED since the last
  /// fit and the hyperparameters are unchanged, the existing Cholesky
  /// factor is extended one row at a time (O(n^2) per point instead of the
  /// O(n^3) refactorization) — this is what keeps the asynchronous loop's
  /// per-observation model refresh and the hallucinated batch posteriors
  /// cheap. Extended diagonal entries include the base factor's jitter so
  /// incremental and full fits factor the same matrix. Falls back to the
  /// full factorization automatically when the extension would lose
  /// positive definiteness.
  void fit();

  bool fitted() const override {
    return chol_.has_value() && chol_->size() == xs_.size() &&
           alpha_.size() == xs_.size();
  }
  std::size_t num_points() const override { return xs_.size(); }
  std::size_t dim() const override { return kernel_->dim(); }
  const std::vector<Vec>& inputs() const { return xs_; }
  const Vec& targets() const { return ys_; }
  const Kernel& kernel() const { return *kernel_; }

  /// Posterior mean and latent variance at x (Eq. 2). Requires fitted().
  Prediction predict(const Vec& x) const override;

  /// Posterior mean only — O(n) against the cached alpha, skipping the
  /// O(n^2) variance solve. Bit-identical to predict(x).mean.
  double predict_mean(const Vec& x) const override;

  /// With \p mean_model == this, one predict() serves both halves of the
  /// pair; any other mean model takes the Regressor default.
  Prediction predict_paired(const Regressor& mean_model,
                            const Vec& x) const override;

  /// With \p mean_model == this: one n x m kernel cross block, the m
  /// means against alpha and one multi-right-hand-side forward solve for
  /// the m variances, each bit-identical to predict(xs[c]). The solve
  /// steps 16 rows at a time and drops the points \p retire retires.
  std::size_t predict_paired_batch(const Regressor& mean_model,
                                   std::span<const Vec> xs,
                                   std::span<Prediction> out,
                                   const RetireTest& retire = {})
      const override;

  /// Log marginal likelihood of the training data under the current
  /// hyperparameters. Requires fitted().
  double log_marginal_likelihood() const;

  /// Gradient of the log marginal likelihood w.r.t. the flat log
  /// hyperparameter vector [kernel params..., log sn^2]. Requires fitted().
  /// One explicit K^{-1} (Cholesky::inverse, O(n^3)) and one pass over the
  /// lower triangle with a Kernel::value_and_gradient call per pair; no
  /// n x n gradient matrix is formed. Bit-identical to the dense
  /// 0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta) fold. Used only during
  /// hyperparameter training.
  Vec lml_gradient() const;

  /// Flat hyperparameters: kernel log-params followed by log noise variance.
  Vec log_hyperparams() const;

  /// Sets the flat hyperparameters. Invalidates any previous fit.
  void set_log_hyperparams(const Vec& lp);

  /// The observation noise variance sn^2.
  double noise_variance() const { return noise_var_; }

  /// Hallucinated posterior for batch penalization (paper §III-C /
  /// Algorithm 1 line 6) as a zero-copy overlay: the pending points'
  /// factor rows are appended over the base factor (linalg::CholeskyExt),
  /// no training data or O(n^2) triangle is copied. The overlay serves
  /// sigma-hat, bit-identical to with_hallucinated()'s variance; its mean
  /// is this model's, which is the mean of a GP conditioned on pseudo
  /// targets at its own predictive mean. This model must stay alive,
  /// unmodified and fitted while the overlay is in use (one proposal's
  /// acquisition maximization).
  std::unique_ptr<Regressor> hallucinate(
      const std::vector<Vec>& pending) const;

  /// Materialized hallucinated model: a full copy whose training set is
  /// D ∪ {pending, mu(pending)} (pseudo observations at the current
  /// predictive mean), already fitted. Hyperparameters are copied, NOT
  /// re-optimized. Kept as the reference implementation hallucinate()'s
  /// variance is tested bit-identical against — production paths use the
  /// overlay.
  GpRegressor with_hallucinated(const std::vector<Vec>& pending) const;

  /// Installs a non-owning trace sink (nullptr = off, the default).
  /// fit() then counts "gp.chol_refactor" (full O(n^3) factorizations),
  /// "gp.chol_extend" (O(n^2) incremental rows that made it into the
  /// final factor), "gp.chol_extend_abandoned" (rows extended but
  /// discarded by a mid-extension fallback) and "gp.jitter_escalation"
  /// (jitter retries inside a refactorization). Copies — including the
  /// hallucinated posteriors — inherit the sink, so their Cholesky work
  /// is counted too.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// The current factor (requires fitted()); read by the hallucination
  /// overlay and by tests asserting jitter behaviour.
  const linalg::Cholesky& factor() const { return *chol_; }

  /// The empirical constant mean of the current fit.
  double empirical_mean() const { return y_mean_; }

 private:
  friend class HallucinatedGp;

  std::unique_ptr<Kernel> kernel_;
  double noise_var_;
  std::vector<Vec> xs_;
  PointBlock xt_;  // xs_ laid out for kernel rows, kept in sync with it
  Vec ys_;

  // Fit state.
  std::optional<linalg::Cholesky> chol_;
  Vec alpha_;       // K^{-1} (y - mean)
  double y_mean_ = 0.0;
  Vec fitted_params_;  // hyperparameters the factor was built with

  obs::TraceSink* trace_ = nullptr;  // non-owning; nullptr = no tracing
};

}  // namespace easybo::gp
