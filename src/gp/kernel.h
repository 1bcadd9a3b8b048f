#pragma once
/// \file kernel.h
/// \brief Covariance kernels for Gaussian process regression.
///
/// The paper uses the squared-exponential ARD kernel (§II-B):
///   k_SE(xi, xj) = sf^2 * exp(-1/2 (xi-xj)^T diag(l)^-2 (xi-xj)).
/// A Matérn-5/2 ARD alternative is provided as an extension (selectable via
/// easybo::Config::kernel).
///
/// Hyperparameters are exposed as a flat vector of LOG values
/// [log sf^2, log l_1, ..., log l_d] so that unconstrained gradient-based
/// maximum-likelihood training is straightforward; the observation noise
/// log sn^2 lives in the regressor, not the kernel.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vec.h"

namespace easybo::gp {

using linalg::Matrix;
using linalg::Vec;

/// A point set laid out for kernel rows: coordinate p of every point is
/// one contiguous run, coord(p)[i] = X_i[p] (the d x n block stored row
/// by row). A row then vectorizes across points.
class PointBlock {
 public:
  PointBlock() = default;

  /// Copies \p xs (each of size \p dim) into the block.
  PointBlock(std::span<const Vec> xs, std::size_t dim);

  std::size_t size() const { return n_; }
  std::size_t dim() const { return d_; }

  /// Coordinate p of points 0..size()-1.
  const double* coord(std::size_t p) const { return data_.data() + p * n_; }

 private:
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  Vec data_;
};

/// Abstract stationary ARD kernel.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Input dimensionality d.
  virtual std::size_t dim() const = 0;

  /// Number of hyperparameters (d + 1 for the ARD kernels here).
  virtual std::size_t num_params() const = 0;

  /// Current hyperparameters in log space.
  virtual Vec log_params() const = 0;

  /// Replaces hyperparameters (log space); size must equal num_params().
  virtual void set_log_params(const Vec& lp) = 0;

  /// k(a, b) for two points of dimension dim(): the scalar definition
  /// every row and pair primitive below is pinned against bit for bit.
  virtual double operator()(const Vec& a, const Vec& b) const = 0;

  /// One kernel row: out[i - begin] = k(x, X_i) for the points i in
  /// [begin, end) of \p pts. Each point has its own accumulator taking
  /// the dimensions in operator()'s order, two points per vector, so
  /// every entry equals operator()(x, X_i) bit for bit. The one primitive
  /// behind the Gram matrix, the cross vectors and the batched cross
  /// blocks.
  virtual void row(const Vec& x, const PointBlock& pts, std::size_t begin,
                   std::size_t end, double* out) const = 0;

  /// Returns k(a, b) and writes grad[p] = d k(a, b) / d log_params[p] for
  /// p < num_params(). The LML gradient's per-pair primitive; the value
  /// equals operator()(a, b) bit for bit.
  virtual double value_and_gradient(const Vec& a, const Vec& b,
                                    double* grad) const = 0;

  /// Gram matrix K(X, X) for the points \p xs, one row per point.
  Matrix gram(const std::vector<Vec>& xs) const;

  /// Deep copy (regressors own their kernel).
  virtual std::unique_ptr<Kernel> clone() const = 0;

  virtual std::string name() const = 0;
};

/// Squared-exponential (RBF) kernel with automatic relevance determination.
class SquaredExponentialArd final : public Kernel {
 public:
  /// d-dimensional kernel with unit signal variance and lengthscales.
  explicit SquaredExponentialArd(std::size_t dim);

  /// Explicit hyperparameters: signal variance sf2 and per-dimension
  /// lengthscales (both in linear space, must be positive).
  SquaredExponentialArd(double sf2, Vec lengthscales);

  std::size_t dim() const override { return lengthscales_.size(); }
  std::size_t num_params() const override { return dim() + 1; }
  Vec log_params() const override;
  void set_log_params(const Vec& lp) override;
  double operator()(const Vec& a, const Vec& b) const override;
  void row(const Vec& x, const PointBlock& pts, std::size_t begin,
           std::size_t end, double* out) const override;
  double value_and_gradient(const Vec& a, const Vec& b,
                            double* grad) const override;
  std::unique_ptr<Kernel> clone() const override;
  std::string name() const override { return "SE-ARD"; }

  double signal_variance() const { return sf2_; }
  const Vec& lengthscales() const { return lengthscales_; }

 private:
  double sf2_ = 1.0;
  Vec lengthscales_;
};

/// Matérn-5/2 kernel with ARD lengthscales (extension beyond the paper).
class Matern52Ard final : public Kernel {
 public:
  explicit Matern52Ard(std::size_t dim);
  Matern52Ard(double sf2, Vec lengthscales);

  std::size_t dim() const override { return lengthscales_.size(); }
  std::size_t num_params() const override { return dim() + 1; }
  Vec log_params() const override;
  void set_log_params(const Vec& lp) override;
  double operator()(const Vec& a, const Vec& b) const override;
  void row(const Vec& x, const PointBlock& pts, std::size_t begin,
           std::size_t end, double* out) const override;
  double value_and_gradient(const Vec& a, const Vec& b,
                            double* grad) const override;
  std::unique_ptr<Kernel> clone() const override;
  std::string name() const override { return "Matern52-ARD"; }

  double signal_variance() const { return sf2_; }
  const Vec& lengthscales() const { return lengthscales_; }

 private:
  double sf2_ = 1.0;
  Vec lengthscales_;
};

/// Factory by name ("se" | "matern52"), used by easybo::Config.
std::unique_ptr<Kernel> make_kernel(const std::string& name, std::size_t dim);

}  // namespace easybo::gp
