#pragma once
/// \file acquisition.h
/// \brief Acquisition functions: UCB/EI, pBO (Eq. 4), pHCBO (Eq. 5-6),
/// and the EasyBO randomized-weight acquisition (Eq. 8) with the
/// hallucination penalization (Eq. 9), plus the BUCB and local-
/// penalization batch baselines.
///
/// All acquisitions are MAXIMIZED and operate in the BO loop's normalized
/// model space (inputs in [0,1]^d, z-scored targets). They hold non-owning
/// pointers to GP models owned by the BO driver; a driver must keep the
/// models alive and fitted while an acquisition referencing them is in use.
///
/// UCB, the weighted UCB of pBO/EasyBO/Eq. 9 and BUCB are one class,
/// ConfidenceBound (a * mu + b * sigma_hat, a, b >= 0), whose screening
/// path takes a floor and stops the variance solve of every point whose
/// value provably cannot reach it.

#include <deque>
#include <limits>
#include <memory>
#include <span>

#include "common/rng.h"
#include "gp/regressor.h"

namespace easybo::acq {

using gp::Regressor;
using linalg::Vec;

/// evaluate_batch's default floor: below it, nothing.
inline constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

/// Interface: a scalar utility over the normalized design space.
class AcquisitionFn {
 public:
  virtual ~AcquisitionFn() = default;
  virtual double operator()(const Vec& x) const = 0;

  /// Screening's batched evaluation (xs.size() == out.size()): out[i] =
  /// (*this)(xs[i]) bit for bit whenever that value is >= \p floor; below
  /// the floor, out[i] may read -inf instead. NaN is never below a floor.
  /// maximize_acquisition screens through this in chunks, passing the
  /// k-th best value of the earlier chunks. Returns how many points were
  /// scored in full rather than cut short by the floor. The default loops
  /// operator() and ignores the floor; ConfidenceBound overrides it with
  /// a batched posterior query that stops the variance solve of every
  /// point whose value cannot reach the floor.
  virtual std::size_t evaluate_batch(std::span<const Vec> xs,
                                     std::span<double> out,
                                     double floor = kNoFloor) const;
};

/// The confidence-bound family alpha(x) = a * mu(x) + b * sigma_hat(x),
/// a, b >= 0: mu from \p mean_model and sigma_hat from \p var_model,
/// both halves from var_model's paired posterior query
/// (Regressor::predict_paired), which computes the shared kernel cross
/// once. Ucb, WeightedUcb and Bucb are its members.
///
/// Exact bound pruning: alpha only grows with the variance, and
/// sigma_hat^2 = k(x, x) - ||L^{-1} k*||^2 only shrinks as the forward
/// solve adds rows, so alpha evaluated on a point's running variance
/// bound (this very expression, never inverted into a variance
/// threshold) bounds its exact value from above. evaluate_batch retires a
/// point as soon as that bound falls strictly below the floor.
class ConfidenceBound : public AcquisitionFn {
 public:
  double operator()(const Vec& x) const final;
  std::size_t evaluate_batch(std::span<const Vec> xs, std::span<double> out,
                             double floor = kNoFloor) const final;

 protected:
  ConfidenceBound(const gp::Regressor* mean_model,
                  const gp::Regressor* var_model, double a, double b);

 private:
  double value(const gp::Prediction& p) const {
    return a_ * p.mean + b_ * p.stddev();
  }

  const gp::Regressor* mean_model_;
  const gp::Regressor* var_model_;
  double a_;
  double b_;
};

/// Upper confidence bound, Eq. 3: mu(x) + kappa * sigma(x).
/// With kappa > 0 this is also what the paper's experiments call "LCB" (an
/// optimistic bound used for maximization).
class Ucb final : public ConfidenceBound {
 public:
  Ucb(const gp::Regressor* model, double kappa);
};

/// Expected improvement over the incumbent best (maximization form):
/// EI(x) = (mu - y* - xi) Phi(z) + sigma phi(z), z = (mu - y* - xi)/sigma.
class Ei final : public AcquisitionFn {
 public:
  Ei(const gp::Regressor* model, double best_y, double xi = 0.0);
  double operator()(const Vec& x) const override;

 private:
  const gp::Regressor* model_;
  double best_y_;
  double xi_;
};

/// Weighted UCB shared by pBO (Eq. 4), EasyBO (Eq. 8) and penalized
/// EasyBO (Eq. 9):
///     alpha(x, w) = (1 - w) * mu(x) + w * sigma_hat(x)
/// where mu comes from \p mean_model (always fitted on observed data only)
/// and sigma_hat from \p var_model. Passing the same model twice gives the
/// unpenalized Eq. 4/8; passing the hallucinated posterior
/// (GpRegressor::hallucinate) as var_model gives Eq. 9.
class WeightedUcb final : public ConfidenceBound {
 public:
  WeightedUcb(const gp::Regressor* mean_model, const gp::Regressor* var_model,
              double w);
};

/// BUCB (Desautels et al., JMLR'14) batch acquisition: a plain UCB whose
/// variance comes from the hallucinated model (pending points conditioned
/// at their predictive mean) while the mean comes from observed data:
///     alpha(x) = mu(x) + kappa * sigma_hat(x).
/// This is the penalization strategy EasyBO's Eq. 9 cites; exposed as a
/// batch baseline beyond the paper's roster.
class Bucb final : public ConfidenceBound {
 public:
  Bucb(const gp::Regressor* mean_model, const gp::Regressor* var_model,
       double kappa);
};

/// Feasibility weighting for constrained BO (Gardner et al., ICML'14), a
/// decorator over \p base (not owned) and one model per constraint g_i,
/// feasible iff g_i >= 0 (not owned):
///     alpha_c(x) = ([base(x) - floor]_+ + 1e-12) * prod_i Phi(mu_i / sigma_i)
/// The floor keeps the base term non-negative, so the product is a pure
/// down-weight: a negative base times a small probability would otherwise
/// *reward* infeasibility.
class FeasibilityWeighted final : public AcquisitionFn {
 public:
  FeasibilityWeighted(const AcquisitionFn* base, double floor,
                      std::vector<const gp::Regressor*> constraint_models);
  double operator()(const Vec& x) const override;
  /// The base's batched path plus one batched query per constraint model;
  /// takes no floor (every point is scored in full).
  std::size_t evaluate_batch(std::span<const Vec> xs, std::span<double> out,
                             double floor = kNoFloor) const override;

 private:
  const AcquisitionFn* base_;
  double floor_;
  std::vector<const gp::Regressor*> models_;
};

/// EasyBO's weight sampling (§III-B): kappa ~ U[0, lambda], w = kappa/(kappa+1).
/// The induced density of w rises toward 1, maintaining batch diversity once
/// sigma has shrunk below mu. The paper fixes lambda = 6.
double sample_easybo_weight(easybo::Rng& rng, double lambda = 6.0);

/// pBO's fixed uniform weight grid, w_i = (i-1)/(B-1) (w = 0.5 for B = 1).
Vec pbo_weight_grid(std::size_t batch_size);

/// pHCBO's high-coverage penalty (Eq. 6):
///   alpha_HC(x) = N_HC * exp( (1/5) * sum_{j=1..5} (d / ||x - x_j||)^10 )
/// over the last (up to) 5 query points recorded for the same weight index.
/// The exponent is clamped to avoid overflow; inside the d-ball around a
/// previous query the penalty is astronomically large, as intended.
class HighCoveragePenalty {
 public:
  /// \param d     penalization radius (normalized space); paper: manual.
  /// \param n_hc  penalty magnitude.
  explicit HighCoveragePenalty(double d = 0.1, double n_hc = 1.0);

  /// Records a new query point for this weight's history (keeps last 5).
  void record(const Vec& x);

  /// Penalty value at x; 0 when no history yet.
  double operator()(const Vec& x) const;

  /// The recorded history, oldest first — checkpoint serialization reads
  /// it here and rebuilds via record() calls in order.
  const std::deque<Vec>& history() const { return history_; }

 private:
  double d_;
  double n_hc_;
  std::deque<Vec> history_;
};

/// pHCBO acquisition (Eq. 5): alpha_pBO(x, w) - alpha_HC(x).
class PhcboAcquisition final : public AcquisitionFn {
 public:
  PhcboAcquisition(const gp::Regressor* model, double w,
                   const HighCoveragePenalty* penalty);
  double operator()(const Vec& x) const override;

 private:
  WeightedUcb base_;
  const HighCoveragePenalty* penalty_;
};

/// Local penalization (González et al., AISTATS'16) baseline extension:
/// multiplies a base acquisition (shifted to be positive) by hammer
/// functions centered at busy points. Used for the batch baseline "LP".
class LocalPenalization final : public AcquisitionFn {
 public:
  /// \param base       the acquisition to penalize (not owned)
  /// \param model      GP used for the hammer radii (not owned)
  /// \param busy       points under evaluation (copied)
  /// \param lipschitz  estimated Lipschitz constant of the objective
  /// \param best_y     current incumbent (the estimated max M)
  ///
  /// The hammers' posterior moments at the busy points are predicted here,
  /// once: \p model must stay fitted and unchanged while this function is
  /// evaluated (one maximization).
  LocalPenalization(const AcquisitionFn* base, const gp::Regressor* model,
                    std::vector<Vec> busy, double lipschitz, double best_y);
  double operator()(const Vec& x) const override;

 private:
  const AcquisitionFn* base_;
  std::vector<Vec> busy_;
  std::vector<gp::Prediction> busy_pred_;  // model->predict(busy_[j])
  double lipschitz_;
  double best_y_;
};

/// Crude Lipschitz estimate for LP: max gradient magnitude proxy from GP
/// mean differences over random probe pairs.
double estimate_lipschitz(const gp::Regressor& model, easybo::Rng& rng,
                          std::size_t probes = 64);

/// Standard normal pdf / cdf (shared by EI, LP and feasibility weighting).
double norm_pdf(double z);
double norm_cdf(double z);

}  // namespace easybo::acq
