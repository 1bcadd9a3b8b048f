#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace easybo::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EASYBO_REQUIRE(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  EASYBO_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  EASYBO_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

Vec Matrix::row(std::size_t r) const {
  EASYBO_REQUIRE(r < rows_, "Matrix::row out of range");
  return Vec(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
             data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vec Matrix::col(std::size_t c) const {
  EASYBO_REQUIRE(c < cols_, "Matrix::col out of range");
  Vec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, const Vec& values) {
  EASYBO_REQUIRE(r < rows_ && values.size() == cols_,
                 "Matrix::set_row shape mismatch");
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  EASYBO_REQUIRE(cols_ == other.rows_, "matmul: inner dimension mismatch");
  Matrix out(rows_, other.cols_, 0.0);
  // i-k-j loop order: streams through both operands row-major.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Vec Matrix::operator*(const Vec& x) const {
  EASYBO_REQUIRE(x.size() == cols_, "matvec: dimension mismatch");
  Vec out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row_ptr[c] * x[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  EASYBO_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                 "matrix subtraction shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] -= other.data_[i];
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  EASYBO_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                 "matrix addition shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double alpha) {
  for (auto& v : data_) v *= alpha;
  return *this;
}

void Matrix::add_diagonal(double alpha) {
  EASYBO_REQUIRE(rows_ == cols_, "add_diagonal requires a square matrix");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += alpha;
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double ari = a(r, i);
      if (ari == 0.0) continue;
      for (std::size_t j = i; j < a.cols(); ++j) {
        g(i, j) += ari * a(r, j);
      }
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

}  // namespace easybo::linalg
