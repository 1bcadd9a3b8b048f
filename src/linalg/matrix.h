#pragma once
/// \file matrix.h
/// \brief Dense row-major matrix for GP covariance algebra.
///
/// Sized for this project's regime (GP training sets of a few hundred
/// points): straightforward cache-friendly triple loops, no blocking, no
/// expression templates. Correctness and clarity first; a 512x512 Cholesky
/// is well under a millisecond of work either way.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/vec.h"

namespace easybo::linalg {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, all elements set to \p fill.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construction from nested initializer list (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws InvalidArgument out of range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Raw storage (row-major), e.g. for tests.
  const std::vector<double>& data() const { return data_; }

  Vec row(std::size_t r) const;
  Vec col(std::size_t c) const;
  void set_row(std::size_t r, const Vec& values);

  Matrix transposed() const;

  /// this * other; inner dimensions must agree.
  Matrix operator*(const Matrix& other) const;

  /// Matrix-vector product; x.size() must equal cols().
  Vec operator*(const Vec& x) const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double alpha);

  /// Adds alpha to every diagonal element (jitter); requires square.
  void add_diagonal(double alpha);

  /// Maximum absolute element (infinity "norm" of entries), 0 if empty.
  double max_abs() const;

  /// True when |(*this) - other| <= tol element-wise (same shape required).
  bool approx_equal(const Matrix& other, double tol) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A^T * A (Gram matrix) without materializing A^T.
Matrix gram(const Matrix& a);

}  // namespace easybo::linalg
