#include "gp/kernel.h"

#include <cmath>

#include "common/error.h"
#include "linalg/lanes.h"

namespace easybo::gp {

using linalg::F64x2;
using linalg::load2;
using linalg::splat2;
using linalg::store2;

namespace {

/// out[i - begin] = sum_p ((x_p - X_i[p]) / l_p)^2 for the points i in
/// [begin, end) of \p pts: one accumulator per point taking its terms p
/// ascending — operator()'s sum, bit for bit — two points per vector,
/// then a last odd point alone.
void scaled_sq_dists(const Vec& x, const Vec& ls, const PointBlock& pts,
                     std::size_t begin, std::size_t end, double* out) {
  const std::size_t d = ls.size();
  EASYBO_REQUIRE(x.size() == d && (pts.dim() == d || pts.size() == 0),
                 "kernel input dimension mismatch");
  EASYBO_REQUIRE(begin <= end && end <= pts.size(),
                 "kernel row range out of bounds");
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    F64x2 acc = {};
    for (std::size_t p = 0; p < d; ++p) {
      const F64x2 z = (splat2(x[p]) - load2(pts.coord(p) + i)) / splat2(ls[p]);
      acc += z * z;
    }
    store2(out + (i - begin), acc);
  }
  if (i < end) {
    double q = 0.0;
    for (std::size_t p = 0; p < d; ++p) {
      const double z = (x[p] - pts.coord(p)[i]) / ls[p];
      q += z * z;
    }
    out[i - begin] = q;
  }
}

/// z_p = (a_p - b_p) / l_p into z[0, d), returning sum_p z_p^2 in
/// operator()'s order: the per-pair half of value_and_gradient.
double scaled_diffs(const Vec& a, const Vec& b, const Vec& ls, double* z) {
  EASYBO_REQUIRE(a.size() == ls.size() && b.size() == ls.size(),
                 "kernel input dimension mismatch");
  double q = 0.0;
  for (std::size_t p = 0; p < ls.size(); ++p) {
    z[p] = (a[p] - b[p]) / ls[p];
    q += z[p] * z[p];
  }
  return q;
}

}  // namespace

PointBlock::PointBlock(std::span<const Vec> xs, std::size_t dim)
    : n_(xs.size()), d_(dim), data_(xs.size() * dim) {
  for (std::size_t i = 0; i < n_; ++i) {
    EASYBO_REQUIRE(xs[i].size() == dim, "PointBlock: point dimension mismatch");
    for (std::size_t p = 0; p < dim; ++p) data_[p * n_ + i] = xs[i][p];
  }
}

Matrix Kernel::gram(const std::vector<Vec>& xs) const {
  const std::size_t n = xs.size();
  const PointBlock pts(xs, dim());
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    // Row i from the diagonal on, k(x_i, x_j) for j >= i, mirrored below.
    double* ki = &k(i, i);
    row(xs[i], pts, i, n, ki);
    for (std::size_t j = i + 1; j < n; ++j) k(j, i) = ki[j - i];
  }
  return k;
}

// ---------------------------------------------------------------------------
// SquaredExponentialArd
// ---------------------------------------------------------------------------

SquaredExponentialArd::SquaredExponentialArd(std::size_t dim)
    : sf2_(1.0), lengthscales_(dim, 1.0) {
  EASYBO_REQUIRE(dim > 0, "kernel dimension must be positive");
}

SquaredExponentialArd::SquaredExponentialArd(double sf2, Vec lengthscales)
    : sf2_(sf2), lengthscales_(std::move(lengthscales)) {
  EASYBO_REQUIRE(sf2_ > 0.0, "signal variance must be positive");
  EASYBO_REQUIRE(!lengthscales_.empty(), "need at least one lengthscale");
  for (double l : lengthscales_) {
    EASYBO_REQUIRE(l > 0.0, "lengthscales must be positive");
  }
}

Vec SquaredExponentialArd::log_params() const {
  Vec lp(num_params());
  lp[0] = std::log(sf2_);
  for (std::size_t i = 0; i < dim(); ++i) lp[i + 1] = std::log(lengthscales_[i]);
  return lp;
}

void SquaredExponentialArd::set_log_params(const Vec& lp) {
  EASYBO_REQUIRE(lp.size() == num_params(), "wrong hyperparameter count");
  sf2_ = std::exp(lp[0]);
  for (std::size_t i = 0; i < dim(); ++i) lengthscales_[i] = std::exp(lp[i + 1]);
}

double SquaredExponentialArd::operator()(const Vec& a, const Vec& b) const {
  EASYBO_REQUIRE(a.size() == dim() && b.size() == dim(),
                 "kernel input dimension mismatch");
  double q = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) {
    const double d = (a[i] - b[i]) / lengthscales_[i];
    q += d * d;
  }
  return sf2_ * std::exp(-0.5 * q);
}

void SquaredExponentialArd::row(const Vec& x, const PointBlock& pts,
                                std::size_t begin, std::size_t end,
                                double* out) const {
  scaled_sq_dists(x, lengthscales_, pts, begin, end, out);
  for (std::size_t i = 0; i < end - begin; ++i) {
    out[i] = sf2_ * std::exp(-0.5 * out[i]);
  }
}

double SquaredExponentialArd::value_and_gradient(const Vec& a, const Vec& b,
                                                 double* grad) const {
  // operator()'s sum, keeping the scaled differences z_p:
  // dk/dlog sf2 = k, dk/dlog l_p = k z_p^2.
  const double q = scaled_diffs(a, b, lengthscales_, grad + 1);
  const double k = sf2_ * std::exp(-0.5 * q);
  grad[0] = k;
  for (std::size_t p = 1; p <= dim(); ++p) grad[p] = k * grad[p] * grad[p];
  return k;
}

std::unique_ptr<Kernel> SquaredExponentialArd::clone() const {
  return std::make_unique<SquaredExponentialArd>(*this);
}

// ---------------------------------------------------------------------------
// Matern52Ard
// ---------------------------------------------------------------------------

Matern52Ard::Matern52Ard(std::size_t dim)
    : sf2_(1.0), lengthscales_(dim, 1.0) {
  EASYBO_REQUIRE(dim > 0, "kernel dimension must be positive");
}

Matern52Ard::Matern52Ard(double sf2, Vec lengthscales)
    : sf2_(sf2), lengthscales_(std::move(lengthscales)) {
  EASYBO_REQUIRE(sf2_ > 0.0, "signal variance must be positive");
  EASYBO_REQUIRE(!lengthscales_.empty(), "need at least one lengthscale");
  for (double l : lengthscales_) {
    EASYBO_REQUIRE(l > 0.0, "lengthscales must be positive");
  }
}

Vec Matern52Ard::log_params() const {
  Vec lp(num_params());
  lp[0] = std::log(sf2_);
  for (std::size_t i = 0; i < dim(); ++i) lp[i + 1] = std::log(lengthscales_[i]);
  return lp;
}

void Matern52Ard::set_log_params(const Vec& lp) {
  EASYBO_REQUIRE(lp.size() == num_params(), "wrong hyperparameter count");
  sf2_ = std::exp(lp[0]);
  for (std::size_t i = 0; i < dim(); ++i) lengthscales_[i] = std::exp(lp[i + 1]);
}

namespace {
constexpr double kSqrt5 = 2.23606797749978969;
}

double Matern52Ard::operator()(const Vec& a, const Vec& b) const {
  EASYBO_REQUIRE(a.size() == dim() && b.size() == dim(),
                 "kernel input dimension mismatch");
  double r2 = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) {
    const double d = (a[i] - b[i]) / lengthscales_[i];
    r2 += d * d;
  }
  const double r = std::sqrt(r2);
  return sf2_ * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) * std::exp(-kSqrt5 * r);
}

void Matern52Ard::row(const Vec& x, const PointBlock& pts, std::size_t begin,
                      std::size_t end, double* out) const {
  scaled_sq_dists(x, lengthscales_, pts, begin, end, out);
  for (std::size_t i = 0; i < end - begin; ++i) {
    const double r2 = out[i];
    const double r = std::sqrt(r2);
    out[i] = sf2_ * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) *
             std::exp(-kSqrt5 * r);
  }
}

double Matern52Ard::value_and_gradient(const Vec& a, const Vec& b,
                                       double* grad) const {
  const double r2 = scaled_diffs(a, b, lengthscales_, grad + 1);
  const double r = std::sqrt(r2);
  const double e = std::exp(-kSqrt5 * r);
  const double k = sf2_ * (1.0 + kSqrt5 * r + (5.0 / 3.0) * r2) * e;
  // dk/dlog l_p = sf2 * e * (5/3) * (1 + sqrt5 * r) * z_p^2
  // (the apparent 1/r singularity cancels analytically).
  const double common = sf2_ * e * (5.0 / 3.0) * (1.0 + kSqrt5 * r);
  grad[0] = k;
  for (std::size_t p = 1; p <= dim(); ++p) {
    grad[p] = common * grad[p] * grad[p];
  }
  return k;
}

std::unique_ptr<Kernel> Matern52Ard::clone() const {
  return std::make_unique<Matern52Ard>(*this);
}

std::unique_ptr<Kernel> make_kernel(const std::string& name, std::size_t dim) {
  if (name == "se" || name == "SE" || name == "rbf") {
    return std::make_unique<SquaredExponentialArd>(dim);
  }
  if (name == "matern52" || name == "matern") {
    return std::make_unique<Matern52Ard>(dim);
  }
  throw InvalidArgument("unknown kernel name: " + name);
}

}  // namespace easybo::gp
