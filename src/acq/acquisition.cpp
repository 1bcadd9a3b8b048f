#include "acq/acquisition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.h"

namespace easybo::acq {

double norm_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double norm_cdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

std::size_t AcquisitionFn::evaluate_batch(std::span<const Vec> xs,
                                          std::span<double> out,
                                          double /*floor*/) const {
  EASYBO_REQUIRE(xs.size() == out.size(),
                 "evaluate_batch: |xs| must equal |out|");
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = (*this)(xs[i]);
  return xs.size();
}

// ---------------------------------------------------------------------------
// ConfidenceBound: Ucb (Eq. 3), WeightedUcb (Eq. 4 / 8 / 9), Bucb
// ---------------------------------------------------------------------------

ConfidenceBound::ConfidenceBound(const gp::Regressor* mean_model,
                                 const gp::Regressor* var_model, double a,
                                 double b)
    : mean_model_(mean_model), var_model_(var_model), a_(a), b_(b) {
  EASYBO_REQUIRE(mean_model != nullptr && var_model != nullptr,
                 "confidence bound: null model");
}

double ConfidenceBound::operator()(const Vec& x) const {
  return value(var_model_->predict_paired(*mean_model_, x));
}

std::size_t ConfidenceBound::evaluate_batch(std::span<const Vec> xs,
                                            std::span<double> out,
                                            double floor) const {
  EASYBO_REQUIRE(xs.size() == out.size(),
                 "evaluate_batch: |xs| must equal |out|");
  std::vector<gp::Prediction> p(xs.size());
  // A NaN bound compares false, so it never retires its point.
  const std::size_t solved = var_model_->predict_paired_batch(
      *mean_model_, xs, p, [this, floor](double mean, double var_bound) {
        return value({mean, var_bound}) < floor;
      });
  // A retired point holds its bound, which the test just put below the
  // floor; an exact value below the floor reads -inf alike.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double v = value(p[i]);
    out[i] = v < floor ? -std::numeric_limits<double>::infinity() : v;
  }
  return solved;
}

Ucb::Ucb(const gp::Regressor* model, double kappa)
    : ConfidenceBound(model, model, 1.0, kappa) {
  EASYBO_REQUIRE(kappa >= 0.0, "Ucb: kappa must be non-negative");
}

WeightedUcb::WeightedUcb(const gp::Regressor* mean_model,
                         const gp::Regressor* var_model, double w)
    : ConfidenceBound(mean_model, var_model, 1.0 - w, w) {
  EASYBO_REQUIRE(w >= 0.0 && w <= 1.0, "WeightedUcb: w must be in [0,1]");
}

Bucb::Bucb(const gp::Regressor* mean_model, const gp::Regressor* var_model,
           double kappa)
    : ConfidenceBound(mean_model, var_model, 1.0, kappa) {
  EASYBO_REQUIRE(kappa >= 0.0, "Bucb: kappa must be non-negative");
}

// ---------------------------------------------------------------------------
// Ei
// ---------------------------------------------------------------------------

Ei::Ei(const gp::Regressor* model, double best_y, double xi)
    : model_(model), best_y_(best_y), xi_(xi) {
  EASYBO_REQUIRE(model != nullptr, "Ei: null model");
}

double Ei::operator()(const Vec& x) const {
  const auto p = model_->predict(x);
  const double sd = p.stddev();
  const double improve = p.mean - best_y_ - xi_;
  if (sd < 1e-12) return std::max(improve, 0.0);
  const double z = improve / sd;
  return improve * norm_cdf(z) + sd * norm_pdf(z);
}

// ---------------------------------------------------------------------------
// FeasibilityWeighted (constrained BO)
// ---------------------------------------------------------------------------

namespace {

/// Phi(mu / sigma): the posterior probability that a constraint holds.
double feasibility(const gp::Prediction& p) {
  return norm_cdf(p.mean / std::max(p.stddev(), 1e-9));
}

}  // namespace

FeasibilityWeighted::FeasibilityWeighted(
    const AcquisitionFn* base, double floor,
    std::vector<const gp::Regressor*> constraint_models)
    : base_(base), floor_(floor), models_(std::move(constraint_models)) {
  EASYBO_REQUIRE(base != nullptr, "FeasibilityWeighted: null base");
  for (const gp::Regressor* m : models_) {
    EASYBO_REQUIRE(m != nullptr, "FeasibilityWeighted: null model");
  }
}

double FeasibilityWeighted::operator()(const Vec& x) const {
  double value = std::max((*base_)(x) - floor_, 0.0) + 1e-12;
  for (const gp::Regressor* m : models_) value *= feasibility(m->predict(x));
  return value;
}

std::size_t FeasibilityWeighted::evaluate_batch(std::span<const Vec> xs,
                                                std::span<double> out,
                                                double /*floor*/) const {
  base_->evaluate_batch(xs, out);
  for (double& v : out) v = std::max(v - floor_, 0.0) + 1e-12;
  std::vector<gp::Prediction> p(xs.size());
  for (const gp::Regressor* m : models_) {
    m->predict_paired_batch(*m, xs, p);
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] *= feasibility(p[i]);
  }
  return xs.size();
}

double sample_easybo_weight(easybo::Rng& rng, double lambda) {
  EASYBO_REQUIRE(lambda > 0.0, "sample_easybo_weight: lambda must be > 0");
  const double kappa = rng.uniform(0.0, lambda);
  return kappa / (kappa + 1.0);
}

Vec pbo_weight_grid(std::size_t batch_size) {
  EASYBO_REQUIRE(batch_size >= 1, "pbo_weight_grid: batch size must be >= 1");
  if (batch_size == 1) return {0.5};
  Vec w(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    w[i] = static_cast<double>(i) / static_cast<double>(batch_size - 1);
  }
  return w;
}

// ---------------------------------------------------------------------------
// HighCoveragePenalty (Eq. 6) and pHCBO (Eq. 5)
// ---------------------------------------------------------------------------

HighCoveragePenalty::HighCoveragePenalty(double d, double n_hc)
    : d_(d), n_hc_(n_hc) {
  EASYBO_REQUIRE(d > 0.0, "HC penalty: d must be positive");
  EASYBO_REQUIRE(n_hc > 0.0, "HC penalty: N_HC must be positive");
}

void HighCoveragePenalty::record(const Vec& x) {
  history_.push_back(x);
  while (history_.size() > 5) history_.pop_front();
}

double HighCoveragePenalty::operator()(const Vec& x) const {
  if (history_.empty()) return 0.0;
  // Geometric mean of exp[(d/d_x)^10] over the (up to 5) history points =
  // exp of the mean exponent. Exponents are clamped: the raw value
  // overflows double inside the d-ball, and "astronomically large" is all
  // the penalty needs to express there.
  double exponent_sum = 0.0;
  for (const auto& xj : history_) {
    const double dist = linalg::dist(x, xj);
    if (dist < 1e-12) {
      exponent_sum += 700.0 * static_cast<double>(history_.size());
      break;
    }
    exponent_sum += std::min(std::pow(d_ / dist, 10.0), 700.0);
  }
  const double mean_exponent =
      std::min(exponent_sum / static_cast<double>(history_.size()), 700.0);
  return n_hc_ * std::exp(mean_exponent);
}

PhcboAcquisition::PhcboAcquisition(const gp::Regressor* model, double w,
                                   const HighCoveragePenalty* penalty)
    : base_(model, model, w), penalty_(penalty) {
  EASYBO_REQUIRE(penalty != nullptr, "PhcboAcquisition: null penalty");
}

double PhcboAcquisition::operator()(const Vec& x) const {
  return base_(x) - (*penalty_)(x);
}

// ---------------------------------------------------------------------------
// LocalPenalization (extension baseline)
// ---------------------------------------------------------------------------

LocalPenalization::LocalPenalization(const AcquisitionFn* base,
                                     const gp::Regressor* model,
                                     std::vector<Vec> busy, double lipschitz,
                                     double best_y)
    : base_(base),
      busy_(std::move(busy)),
      lipschitz_(std::max(lipschitz, 1e-8)),
      best_y_(best_y) {
  EASYBO_REQUIRE(base != nullptr && model != nullptr,
                 "LocalPenalization: null dependency");
  busy_pred_.reserve(busy_.size());
  for (const auto& xj : busy_) busy_pred_.push_back(model->predict(xj));
}

double LocalPenalization::operator()(const Vec& x) const {
  // Soft-plus shift keeps the base acquisition positive so multiplicative
  // hammers behave (González et al. §3.2).
  const double raw = (*base_)(x);
  double value = std::log1p(std::exp(std::clamp(raw, -30.0, 30.0)));
  for (std::size_t j = 0; j < busy_.size(); ++j) {
    const gp::Prediction& p = busy_pred_[j];
    const double sd = std::max(p.stddev(), 1e-9);
    // Hammer: probability that x lies outside the exclusion ball around xj.
    const double z =
        (lipschitz_ * linalg::dist(x, busy_[j]) - (best_y_ - p.mean)) /
        (std::numbers::sqrt2 * sd);
    value *= norm_cdf(z);
  }
  return value;
}

double estimate_lipschitz(const gp::Regressor& model, easybo::Rng& rng,
                          std::size_t probes) {
  EASYBO_REQUIRE(probes >= 2, "estimate_lipschitz: need at least two probes");
  const std::size_t d = model.dim();
  double best = 1e-3;
  // Finite differences of the GP mean between random unit-cube pairs.
  for (std::size_t i = 0; i < probes; ++i) {
    Vec a(d), b(d);
    for (std::size_t j = 0; j < d; ++j) {
      a[j] = rng.uniform();
      b[j] = rng.uniform();
    }
    const double dist = linalg::dist(a, b);
    if (dist < 1e-9) continue;
    const double slope =
        std::abs(model.predict_mean(a) - model.predict_mean(b)) / dist;
    best = std::max(best, slope);
  }
  return best;
}

}  // namespace easybo::acq
