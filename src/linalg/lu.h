#pragma once
/// \file lu.h
/// \brief LU factorization with partial pivoting, templated on the scalar.
///
/// The MNA circuit simulator (src/spice) solves complex linear systems
/// G(jw) v = i at every frequency point; the class-E transient integrator
/// (src/circuit) needs a real general solve. Both share this header-only
/// implementation.

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/error.h"

namespace easybo::linalg {

namespace detail {
inline double abs_value(double x) { return std::abs(x); }
inline double abs_value(const std::complex<double>& x) { return std::abs(x); }
}  // namespace detail

/// Dense LU factorization P A = L U with partial (row) pivoting.
///
/// Scalar may be double or std::complex<double>. Storage is row-major,
/// packed (L below the diagonal with unit diagonal implied, U on and above).
template <typename Scalar>
class Lu {
 public:
  /// Factors the n x n matrix given as row-major data.
  /// Throws NumericalError when a pivot column is exactly singular.
  Lu(std::vector<Scalar> a, std::size_t n) : n_(n), lu_(std::move(a)) {
    EASYBO_REQUIRE(lu_.size() == n_ * n_, "Lu: data size must be n*n");
    perm_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
    factor();
  }

  std::size_t size() const { return n_; }

  /// Solves A x = b.
  std::vector<Scalar> solve(const std::vector<Scalar>& b) const {
    EASYBO_REQUIRE(b.size() == n_, "Lu::solve size mismatch");
    // Apply permutation, then forward/back substitution.
    std::vector<Scalar> x(n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
    for (std::size_t i = 1; i < n_; ++i) {
      Scalar acc = x[i];
      for (std::size_t k = 0; k < i; ++k) acc -= lu_[i * n_ + k] * x[k];
      x[i] = acc;
    }
    for (std::size_t ii = n_; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      Scalar acc = x[i];
      for (std::size_t k = i + 1; k < n_; ++k) acc -= lu_[i * n_ + k] * x[k];
      x[i] = acc / lu_[i * n_ + i];
    }
    return x;
  }

 private:
  void factor() {
    for (std::size_t col = 0; col < n_; ++col) {
      // Partial pivot: largest magnitude in this column at/below diagonal.
      std::size_t pivot = col;
      double best = detail::abs_value(lu_[col * n_ + col]);
      for (std::size_t r = col + 1; r < n_; ++r) {
        const double mag = detail::abs_value(lu_[r * n_ + col]);
        if (mag > best) {
          best = mag;
          pivot = r;
        }
      }
      if (best == 0.0) {
        throw NumericalError("Lu: matrix is singular at column " +
                             std::to_string(col));
      }
      if (pivot != col) {
        for (std::size_t c = 0; c < n_; ++c) {
          std::swap(lu_[pivot * n_ + c], lu_[col * n_ + c]);
        }
        std::swap(perm_[pivot], perm_[col]);
      }
      const Scalar inv_pivot = Scalar(1) / lu_[col * n_ + col];
      for (std::size_t r = col + 1; r < n_; ++r) {
        const Scalar mult = lu_[r * n_ + col] * inv_pivot;
        lu_[r * n_ + col] = mult;
        for (std::size_t c = col + 1; c < n_; ++c) {
          lu_[r * n_ + c] -= mult * lu_[col * n_ + c];
        }
      }
    }
  }

  std::size_t n_ = 0;
  std::vector<Scalar> lu_;
  std::vector<std::size_t> perm_;
};

using LuReal = Lu<double>;
using LuComplex = Lu<std::complex<double>>;

}  // namespace easybo::linalg
