#include "gp/gp.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "common/error.h"

namespace easybo::gp {

namespace {

/// Rows of the batched variance solve between two retirement checks.
constexpr std::size_t kRetireStride = 16;

/// The batched paired posterior both Regressor implementations serve for
/// m query points. The training inputs are \p first then \p second in
/// factor order. K*^T is built once, row-major n x m: row i is the kernel
/// row of input i against the m queries, entry (i, c) = k(input_i, xs[c]),
/// which is predict()'s k(xs[c], input_i) bit for bit — a - b = -(b - a)
/// exactly and the square drops the sign. The means read its first
/// alpha.size() rows against \p alpha, then \p solve_rows (a row range of
/// solve_lower_inplace) turns it into Z = L^{-1} K*^T for the variances,
/// kRetireStride rows at a time, each column's sum of squares taking its
/// rows' z_i^2 as they are solved. Every accumulation runs per column in
/// the scalar paths' ascending order, so out[c] is bit-identical to
/// {y_mean + dot(k*[0:n_mean), alpha), max(k(x, x) - dot(z, z), 0)} for
/// point c.
///
/// Before the first step and after each one but the last, \p retire (if
/// set) sees every live column's mean and max(k(x, x) - sum so far, 0) —
/// k(x, x) itself before any row. The sum only grows, so the bound only
/// shrinks toward the exact variance. Retired columns keep that bound and
/// leave the block: the survivors are packed to the front of every row,
/// solved and unsolved, so the block stays row-major with one column per
/// survivor and the next step's solve sees only them. No column reads
/// another, so the survivors' bits do not move. Returns the survivors.
template <class SolveRows>
std::size_t paired_batch(const Kernel& kernel, const std::vector<Vec>& first,
                         const std::vector<Vec>& second, const Vec& alpha,
                         double y_mean, const SolveRows& solve_rows,
                         std::span<const Vec> xs, std::span<Prediction> out,
                         const RetireTest& retire) {
  EASYBO_REQUIRE(xs.size() == out.size(),
                 "predict_paired_batch: |xs| must equal |out|");
  const std::size_t m = xs.size();
  const std::size_t n = first.size() + second.size();
  const PointBlock queries(xs, kernel.dim());
  std::vector<double> kt(n * m);
  double* row = kt.data();
  for (const auto* inputs : {&first, &second}) {
    for (const Vec& xi : *inputs) {
      kernel.row(xi, queries, 0, m, row);
      row += m;
    }
  }

  std::vector<double> acc(m, 0.0);
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double a = alpha[i];
    const double* ki = kt.data() + i * m;
    for (std::size_t c = 0; c < m; ++c) acc[c] += ki[c] * a;
  }
  for (std::size_t c = 0; c < m; ++c) out[c].mean = y_mean + acc[c];

  // Live column j is query col[j], with prior variance prior[j] and
  // running sum of squares ss[j].
  std::vector<std::size_t> col(m), from(m);
  std::vector<double> prior(m), ss(m, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    col[c] = c;
    prior[c] = kernel(xs[c], xs[c]);
  }
  std::size_t live = m;
  for (std::size_t r = 0; r < n && live > 0;) {
    if (retire) {
      std::size_t keep = 0;
      for (std::size_t j = 0; j < live; ++j) {
        Prediction& p = out[col[j]];
        const double bound = std::max(prior[j] - ss[j], 0.0);
        if (retire(p.mean, bound)) {
          p.var = bound;
          continue;
        }
        from[keep] = j;
        col[keep] = col[j];
        prior[keep] = prior[j];
        ss[keep] = ss[j];
        ++keep;
      }
      if (keep < live) {
        // Entry (i, from[j]) at stride live moves to (i, j) at stride
        // keep, never past where it was: one forward pass packs in place.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < keep; ++j) {
            kt[i * keep + j] = kt[i * live + from[j]];
          }
        }
        live = keep;
      }
    }
    const std::size_t end = std::min(r + kRetireStride, n);
    solve_rows(std::span<double>(kt.data(), n * live), live, r, end);
    for (std::size_t i = r; i < end; ++i) {
      const double* zi = kt.data() + i * live;
      for (std::size_t j = 0; j < live; ++j) ss[j] += zi[j] * zi[j];
    }
    r = end;
  }
  for (std::size_t j = 0; j < live; ++j) {
    out[col[j]].var = std::max(prior[j] - ss[j], 0.0);
  }
  return live;
}

}  // namespace

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, double noise_variance)
    : kernel_(std::move(kernel)), noise_var_(noise_variance) {
  EASYBO_REQUIRE(kernel_ != nullptr, "GpRegressor needs a kernel");
  EASYBO_REQUIRE(noise_var_ > 0.0, "noise variance must be positive");
}

GpRegressor::GpRegressor(const GpRegressor& other)
    : kernel_(other.kernel_->clone()),
      noise_var_(other.noise_var_),
      xs_(other.xs_),
      xt_(other.xt_),
      ys_(other.ys_),
      chol_(other.chol_),
      alpha_(other.alpha_),
      y_mean_(other.y_mean_),
      fitted_params_(other.fitted_params_),
      trace_(other.trace_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this == &other) return *this;
  kernel_ = other.kernel_->clone();
  noise_var_ = other.noise_var_;
  xs_ = other.xs_;
  xt_ = other.xt_;
  ys_ = other.ys_;
  chol_ = other.chol_;
  alpha_ = other.alpha_;
  y_mean_ = other.y_mean_;
  fitted_params_ = other.fitted_params_;
  trace_ = other.trace_;
  return *this;
}

void GpRegressor::set_data(std::vector<Vec> xs, Vec ys) {
  EASYBO_REQUIRE(xs.size() == ys.size(),
                 "GpRegressor::set_data: |X| must equal |y|");
  for (const auto& x : xs) {
    EASYBO_REQUIRE(x.size() == dim(), "GpRegressor: input dim mismatch");
  }
  // Keep the factor when the new inputs are the old ones plus appended
  // points (the common BO case); fit() then extends incrementally.
  const bool appended =
      chol_.has_value() && xs.size() >= xs_.size() &&
      std::equal(xs_.begin(), xs_.end(), xs.begin());
  xs_ = std::move(xs);
  xt_ = PointBlock(xs_, dim());
  ys_ = std::move(ys);
  if (!appended) chol_.reset();
}

void GpRegressor::add_point(Vec x, double y) {
  EASYBO_REQUIRE(x.size() == dim(), "GpRegressor: input dim mismatch");
  xs_.push_back(std::move(x));
  xt_ = PointBlock(xs_, dim());
  ys_.push_back(y);
  // The factor (if any) still covers the first n-1 points; fit() extends.
}

void GpRegressor::fit() {
  EASYBO_REQUIRE(!xs_.empty(), "GpRegressor::fit: no training data");
  y_mean_ = 0.0;
  for (double y : ys_) y_mean_ += y;
  y_mean_ /= static_cast<double>(ys_.size());

  // Incremental fast path: extend the existing factor row by row while the
  // hyperparameters are unchanged and only appended points are missing.
  bool extended = chol_.has_value() && chol_->size() <= xs_.size() &&
                  chol_->size() > 0 && log_hyperparams() == fitted_params_;
  std::size_t extended_rows = 0;
  if (extended) {
    // The factor covers gram + (noise + jitter) I: appended diagonals must
    // carry the escalated jitter too, or incremental and full fits would
    // factor different matrices and log_det/LML would drift.
    const double diag_shift = noise_var_ + chol_->jitter_used();
    while (chol_->size() < xs_.size()) {
      const std::size_t n = chol_->size();
      const Vec& x_new = xs_[n];
      Vec column(n + 1);
      kernel_->row(x_new, xt_, 0, n, column.data());
      column[n] = (*kernel_)(x_new, x_new) + diag_shift;
      if (!chol_->extend(column)) {
        extended = false;  // lost positive definiteness: full refactor
        break;
      }
      ++extended_rows;
    }
  }
  if (!extended || chol_->size() != xs_.size()) {
    // Rows extended before a mid-loop failure are discarded by the
    // refactor below: they were work, not progress.
    if (extended_rows > 0) {
      obs::count(trace_, "gp.chol_extend_abandoned",
                 static_cast<std::uint64_t>(extended_rows));
    }
    Matrix k = kernel_->gram(xs_);
    k.add_diagonal(noise_var_);
    chol_.emplace(k);
    fitted_params_ = log_hyperparams();
    obs::count(trace_, "gp.chol_refactor");
    if (chol_->attempts() > 1) {
      obs::count(trace_, "gp.jitter_escalation",
                 static_cast<std::uint64_t>(chol_->attempts() - 1));
    }
  } else if (extended_rows > 0) {
    obs::count(trace_, "gp.chol_extend",
               static_cast<std::uint64_t>(extended_rows));
  }

  Vec centered(ys_.size());
  for (std::size_t i = 0; i < ys_.size(); ++i) centered[i] = ys_[i] - y_mean_;
  alpha_ = chol_->solve(centered);
}

Prediction GpRegressor::predict(const Vec& x) const {
  EASYBO_REQUIRE(fitted(), "GpRegressor::predict before fit()");
  EASYBO_REQUIRE(x.size() == dim(), "GpRegressor::predict dim mismatch");
  Vec kstar(xs_.size());
  kernel_->row(x, xt_, 0, xs_.size(), kstar.data());
  const double mean = y_mean_ + linalg::dot(kstar, alpha_);
  // var = k(x,x) - ||L^{-1} k*||^2, clamped: round-off can push it below 0
  // when x coincides with a training point.
  const Vec z = chol_->solve_lower(kstar);
  const double var = (*kernel_)(x, x) - linalg::dot(z, z);
  return {mean, std::max(var, 0.0)};
}

double GpRegressor::predict_mean(const Vec& x) const {
  EASYBO_REQUIRE(fitted(), "GpRegressor::predict_mean before fit()");
  EASYBO_REQUIRE(x.size() == dim(), "GpRegressor::predict_mean dim mismatch");
  Vec kstar(xs_.size());
  kernel_->row(x, xt_, 0, xs_.size(), kstar.data());
  return y_mean_ + linalg::dot(kstar, alpha_);
}

Prediction GpRegressor::predict_paired(const Regressor& mean_model,
                                       const Vec& x) const {
  if (&mean_model != this) return Regressor::predict_paired(mean_model, x);
  return predict(x);
}

std::size_t GpRegressor::predict_paired_batch(const Regressor& mean_model,
                                              std::span<const Vec> xs,
                                              std::span<Prediction> out,
                                              const RetireTest& retire) const {
  if (&mean_model != this) {
    return Regressor::predict_paired_batch(mean_model, xs, out, retire);
  }
  EASYBO_REQUIRE(fitted(), "GpRegressor::predict_paired_batch before fit()");
  return paired_batch(
      *kernel_, xs_, {}, alpha_, y_mean_,
      [this](std::span<double> b, std::size_t m, std::size_t begin,
             std::size_t end) { chol_->solve_lower_inplace(b, m, begin, end); },
      xs, out, retire);
}

double GpRegressor::log_marginal_likelihood() const {
  EASYBO_REQUIRE(fitted(), "log_marginal_likelihood before fit()");
  const auto n = static_cast<double>(xs_.size());
  double fit_term = 0.0;
  for (std::size_t i = 0; i < ys_.size(); ++i) {
    fit_term += (ys_[i] - y_mean_) * alpha_[i];
  }
  return -0.5 * fit_term - 0.5 * chol_->log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

Vec GpRegressor::lml_gradient() const {
  EASYBO_REQUIRE(fitted(), "lml_gradient before fit()");
  const std::size_t n = xs_.size();
  const std::size_t np = kernel_->num_params();
  // dLML/dtheta = 0.5 tr(W dK/dtheta) with W = alpha alpha^T - K^{-1},
  // folded over the symmetry of W and dK: one pass over the lower
  // triangle, pair by pair, feeding d + 2 accumulators (one per kernel
  // parameter and tr W for the noise term). Each accumulator takes its
  // terms i ascending, the diagonal's halved term first, then j
  // ascending: the order the dense W .* dK sum used.
  const Matrix kinv = chol_->inverse();
  Vec grad(np + 1, 0.0);
  Vec dk(np);
  double tr_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double wii = alpha_[i] * alpha_[i] - kinv(i, i);
    kernel_->value_and_gradient(xs_[i], xs_[i], dk.data());
    const double half = 0.5 * wii;
    for (std::size_t p = 0; p < np; ++p) grad[p] += half * dk[p];
    tr_w += wii;
    for (std::size_t j = 0; j < i; ++j) {
      const double wij = alpha_[i] * alpha_[j] - kinv(i, j);
      kernel_->value_and_gradient(xs_[j], xs_[i], dk.data());
      for (std::size_t p = 0; p < np; ++p) grad[p] += wij * dk[p];
    }
  }
  // Noise term: dK/dlog sn^2 = sn^2 I.
  grad.back() = 0.5 * noise_var_ * tr_w;
  return grad;
}

Vec GpRegressor::log_hyperparams() const {
  Vec lp = kernel_->log_params();
  lp.push_back(std::log(noise_var_));
  return lp;
}

void GpRegressor::set_log_hyperparams(const Vec& lp) {
  EASYBO_REQUIRE(lp.size() == kernel_->num_params() + 1,
                 "set_log_hyperparams: wrong parameter count");
  Vec kernel_lp(lp.begin(), lp.end() - 1);
  kernel_->set_log_params(kernel_lp);
  noise_var_ = std::exp(lp.back());
  chol_.reset();
}

GpRegressor GpRegressor::with_hallucinated(
    const std::vector<Vec>& pending) const {
  EASYBO_REQUIRE(fitted(), "with_hallucinated requires a fitted model");
  GpRegressor augmented(*this);
  for (const auto& x : pending) {
    augmented.add_point(x, predict_mean(x));
  }
  augmented.fit();
  return augmented;
}

// ---------------------------------------------------------------------------
// HallucinatedGp: the zero-copy penalization overlay
// ---------------------------------------------------------------------------

/// The sigma-hat a materialized with_hallucinated() model serves, computed
/// without copying the base model: factor rows appended over the borrowed
/// base factor (CholeskyExt), every arithmetic step in the materialized
/// path's operation order, so the variance is bit-identical — the property
/// the proposal-stream compatibility tests pin down. The variance does not
/// depend on the targets, so no pseudo target is computed: the mean is the
/// base model's, the mean of a GP conditioned on pseudo targets at its own
/// predictive mean, and what Eq. 9 and BUCB read through predict_paired.
class HallucinatedGp final : public Regressor {
 public:
  HallucinatedGp(const GpRegressor* base, const std::vector<Vec>& pending)
      : base_(base),
        pend_x_(pending),
        pend_xt_(pend_x_, base->dim()),
        ext_(&base->factor()) {
    obs::TraceSink* trace = base_->trace_;
    obs::count(trace, "gp.hallucinate");
    const Kernel& kernel = *base_->kernel_;
    const std::size_t n0 = base_->xs_.size();

    // Append one factor row per pending point — the same columns fit()'s
    // incremental path builds, including the base factor's jitter.
    const double diag_shift = base_->noise_var_ + ext_.jitter_used();
    bool extended = true;
    std::size_t rows = 0;
    for (std::size_t p = 0; p < pend_x_.size(); ++p) {
      const Vec& x_new = pend_x_[p];
      Vec column(n0 + p + 1);
      kernel.row(x_new, base_->xt_, 0, n0, column.data());
      kernel.row(x_new, pend_xt_, 0, p, column.data() + n0);
      column[n0 + p] = kernel(x_new, x_new) + diag_shift;
      if (!ext_.extend(column)) {
        extended = false;
        break;
      }
      ++rows;
    }
    if (extended) {
      if (rows > 0) {
        obs::count(trace, "gp.chol_extend",
                   static_cast<std::uint64_t>(rows));
      }
    } else {
      // Fall back to one full jittered factorization of the combined
      // matrix — the same escape hatch fit() takes when an extension
      // loses positive definiteness.
      if (rows > 0) {
        obs::count(trace, "gp.chol_extend_abandoned",
                   static_cast<std::uint64_t>(rows));
      }
      obs::count(trace, "gp.hallucinate_fallback");
      std::vector<Vec> all = base_->xs_;
      all.insert(all.end(), pend_x_.begin(), pend_x_.end());
      Matrix k = kernel.gram(all);
      k.add_diagonal(base_->noise_var_);
      full_.emplace(k);
      obs::count(trace, "gp.chol_refactor");
      if (full_->attempts() > 1) {
        obs::count(trace, "gp.jitter_escalation",
                   static_cast<std::uint64_t>(full_->attempts() - 1));
      }
    }
  }

  std::size_t dim() const override { return base_->dim(); }
  std::size_t num_points() const override {
    return base_->xs_.size() + pend_x_.size();
  }
  bool fitted() const override { return true; }

  /// {base mean, sigma-hat^2}.
  Prediction predict(const Vec& x) const override {
    return predict_paired(*base_, x);
  }

  /// With \p mean_model == the base: the base mean is the first n0
  /// entries of this overlay's kernel cross against the base alpha, in
  /// predict_mean's summation order — one cross serves both halves.
  Prediction predict_paired(const Regressor& mean_model,
                            const Vec& x) const override {
    if (&mean_model != base_) return Regressor::predict_paired(mean_model, x);
    const Vec kstar = cross(x);
    const Vec& base_alpha = base_->alpha_;
    double acc = 0.0;
    for (std::size_t i = 0; i < base_alpha.size(); ++i) {
      acc += kstar[i] * base_alpha[i];
    }
    return {base_->y_mean_ + acc, variance(x, kstar)};
  }

  std::size_t predict_paired_batch(const Regressor& mean_model,
                                   std::span<const Vec> xs,
                                   std::span<Prediction> out,
                                   const RetireTest& retire = {})
      const override {
    if (&mean_model != base_) {
      return Regressor::predict_paired_batch(mean_model, xs, out, retire);
    }
    return paired_batch(
        *base_->kernel_, base_->xs_, pend_x_, base_->alpha_, base_->y_mean_,
        [this](std::span<double> b, std::size_t m, std::size_t begin,
               std::size_t end) {
          if (full_) {
            full_->solve_lower_inplace(b, m, begin, end);
          } else {
            ext_.solve_lower_inplace(b, m, begin, end);
          }
        },
        xs, out, retire);
  }

 private:
  /// k(x, X) over the base inputs then the pending points.
  Vec cross(const Vec& x) const {
    EASYBO_REQUIRE(x.size() == dim(), "HallucinatedGp::predict dim mismatch");
    const Kernel& kernel = *base_->kernel_;
    const std::size_t n0 = base_->xs_.size();
    Vec kstar(num_points());
    kernel.row(x, base_->xt_, 0, n0, kstar.data());
    kernel.row(x, pend_xt_, 0, pend_x_.size(), kstar.data() + n0);
    return kstar;
  }

  /// Latent variance k(x, x) - ||L^{-1} k*||^2 over the combined factor,
  /// clamped at 0 as GpRegressor::predict does.
  double variance(const Vec& x, const Vec& kstar) const {
    const Vec z = full_ ? full_->solve_lower(kstar) : ext_.solve_lower(kstar);
    return std::max((*base_->kernel_)(x, x) - linalg::dot(z, z), 0.0);
  }

  const GpRegressor* base_;  // borrowed; must stay alive and fitted
  std::vector<Vec> pend_x_;
  PointBlock pend_xt_;  // pend_x_ laid out for kernel rows
  linalg::CholeskyExt ext_;
  std::optional<linalg::Cholesky> full_;  // fallback factor (rare)
};

std::unique_ptr<Regressor> GpRegressor::hallucinate(
    const std::vector<Vec>& pending) const {
  EASYBO_REQUIRE(fitted(), "hallucinate requires a fitted model");
  return std::make_unique<HallucinatedGp>(this, pending);
}

}  // namespace easybo::gp
