#include "linalg/cholesky.h"

#include <cmath>
#include <sstream>

#include "common/error.h"

namespace easybo::linalg {

namespace {

/// Columns per register tile of the multi-right-hand-side solve: enough
/// independent accumulators to hide the subtraction latency.
constexpr std::size_t kTile = 16;

/// Factor rows per step of a tile's sweep over k.
constexpr std::size_t kStep = 4;

/// acc[t] -= l_k * z_k[t] for one factor entry l_k and the tile's slice
/// z_k of row k of the right-hand-side block.
inline void subtract_row(double* acc, double lk, const double* zk) {
#pragma GCC unroll kTile
  for (std::size_t t = 0; t < kTile; ++t) acc[t] -= lk * zk[t];
}

/// Rows [begin, end) of the multi-right-hand-side forward substitution on
/// row-major n x m \p b. \p row(i) points at factor row i (entries 0..i).
/// Every column c runs solve_lower's scalar recurrence on its own
/// accumulator — acc = b_ic; acc -= l_ik z_kc for k ascending; z_ic =
/// acc / l_ii — so the result is bit-identical column for column. Columns
/// go kTile at a time so the accumulators stay in registers across the
/// sweep over row i of L; leftover columns go one by one. The sweep takes
/// kStep rows of k per iteration, still in ascending order: a loop whose
/// body is a single update per accumulator is one an optimizing compiler
/// may vectorize along k as an in-order reduction, spilling the tile.
template <class RowOf>
void forward_rows(const RowOf& row, std::size_t begin, std::size_t end,
                  double* b, std::size_t m) {
  for (std::size_t i = begin; i < end; ++i) {
    const double* li = row(i);
    double* zi = b + i * m;
    const double lii = li[i];
    std::size_t c = 0;
    for (; c + kTile <= m; c += kTile) {
      // Fully unrolled tile loops keep acc[] in registers.
      double acc[kTile];
#pragma GCC unroll kTile
      for (std::size_t t = 0; t < kTile; ++t) acc[t] = zi[c + t];
      std::size_t k = 0;
      for (; k + kStep <= i; k += kStep) {
#pragma GCC unroll kStep
        for (std::size_t r = k; r < k + kStep; ++r) {
          subtract_row(acc, li[r], b + r * m + c);
        }
      }
      for (; k < i; ++k) subtract_row(acc, li[k], b + k * m + c);
#pragma GCC unroll kTile
      for (std::size_t t = 0; t < kTile; ++t) zi[c + t] = acc[t] / lii;
    }
    for (; c < m; ++c) {
      double acc = zi[c];
      for (std::size_t k = 0; k < i; ++k) acc -= li[k] * b[k * m + c];
      zi[c] = acc / lii;
    }
  }
}

}  // namespace

Cholesky::Cholesky(const Matrix& a, double initial_jitter, int max_tries) {
  EASYBO_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  EASYBO_REQUIRE(max_tries >= 1, "Cholesky needs at least one attempt");

  if (try_factor(a)) return;

  // Scale jitter to the matrix: mean diagonal magnitude.
  double diag_mean = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) diag_mean += std::abs(a(i, i));
  diag_mean = a.rows() ? diag_mean / static_cast<double>(a.rows()) : 1.0;
  if (diag_mean == 0.0) diag_mean = 1.0;

  double jitter = initial_jitter * diag_mean;
  for (int attempt = 1; attempt < max_tries; ++attempt) {
    ++attempts_;
    Matrix jittered = a;
    jittered.add_diagonal(jitter);
    if (try_factor(jittered)) {
      jitter_used_ = jitter;
      return;
    }
    jitter *= 10.0;
  }
  std::ostringstream oss;
  oss << "Cholesky failed: matrix of size " << a.rows()
      << " is not positive definite even with jitter " << jitter;
  throw NumericalError(oss.str());
}

bool Cholesky::try_factor(const Matrix& a) {
  const std::size_t n = a.rows();
  l_ = Matrix(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l_(i, k) * l_(j, k);
      l_(i, j) = v / ljj;
    }
  }
  return true;
}

Vec Cholesky::solve(const Vec& b) const {
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "Cholesky::solve size mismatch");
  // Forward substitution: L z = b.
  Vec z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l_(i, k) * z[k];
    z[i] = acc / l_(i, i);
  }
  // Back substitution: L^T x = z.
  Vec x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = z[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l_(k, i) * x[k];
    x[i] = acc / l_(i, i);
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  EASYBO_REQUIRE(b.rows() == size(), "Cholesky::solve shape mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vec xc = solve(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = xc[r];
  }
  return x;
}

Vec Cholesky::solve_lower(const Vec& b) const {
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "Cholesky::solve_lower size mismatch");
  Vec z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l_(i, k) * z[k];
    z[i] = acc / l_(i, i);
  }
  return z;
}

void Cholesky::solve_lower_inplace(std::span<double> b, std::size_t m) const {
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n * m,
                 "Cholesky::solve_lower_inplace size mismatch");
  const double* l = l_.data().data();
  forward_rows([l, n](std::size_t i) { return l + i * n; }, 0, n, b.data(),
               m);
}

bool Cholesky::extend(const Vec& new_column) {
  const std::size_t n = size();
  EASYBO_REQUIRE(new_column.size() == n + 1,
                 "Cholesky::extend: need n cross terms plus the diagonal");
  const Vec b(new_column.begin(), new_column.end() - 1);
  const Vec head = solve_lower(b);
  const double d = new_column.back() - dot(head, head);
  if (!(d > 0.0) || !std::isfinite(d)) return false;

  Matrix grown(n + 1, n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
  }
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = head[j];
  grown(n, n) = std::sqrt(d);
  l_ = std::move(grown);
  return true;
}

Vec Cholesky::solve_upper(const Vec& b) const {
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "Cholesky::solve_upper size mismatch");
  Vec x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = b[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l_(k, i) * x[k];
    x[i] = acc / l_(i, i);
  }
  return x;
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

Matrix Cholesky::inverse() const {
  const std::size_t n = size();
  // Column j of L^{-1} is zero above row j, so forward substitution on
  // the unit column starts at row j: ~n^3/6 flops for the whole factor
  // inverse instead of n^3 for dense identity-column solves.
  Matrix linv(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    linv(j, j) = 1.0 / l_(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc -= l_(i, k) * linv(k, j);
      linv(i, j) = acc / l_(i, i);
    }
  }
  // A^{-1} = L^{-T} L^{-1}; entry (i,j) only sums over k >= max(i,j), and
  // the result is symmetric, so compute the lower triangle and mirror.
  Matrix inv(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = i; k < n; ++k) acc += linv(k, i) * linv(k, j);
      inv(i, j) = acc;
      inv(j, i) = acc;
    }
  }
  return inv;
}

// ---------------------------------------------------------------------------
// CholeskyExt
// ---------------------------------------------------------------------------

CholeskyExt::CholeskyExt(const Cholesky* base) : base_(base) {
  EASYBO_REQUIRE(base != nullptr, "CholeskyExt: null base factor");
  EASYBO_REQUIRE(base->size() > 0, "CholeskyExt: empty base factor");
}

bool CholeskyExt::extend(const Vec& new_column) {
  const std::size_t n = size();
  EASYBO_REQUIRE(new_column.size() == n + 1,
                 "CholeskyExt::extend: need n cross terms plus the diagonal");
  // Same algebra (and the same operation order) as Cholesky::extend, run
  // against the combined factor.
  const Vec b(new_column.begin(), new_column.end() - 1);
  Vec head = solve_lower(b);
  const double d = new_column.back() - dot(head, head);
  if (!(d > 0.0) || !std::isfinite(d)) return false;
  head.push_back(std::sqrt(d));
  rows_.push_back(std::move(head));
  return true;
}

Vec CholeskyExt::solve_lower(const Vec& b) const {
  const std::size_t n0 = base_->size();
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "CholeskyExt::solve_lower size mismatch");
  const Matrix& l = base_->factor();
  Vec z(n);
  // Rows of the base triangle, then the appended rows: together this is
  // the monolithic forward substitution, element for element.
  for (std::size_t i = 0; i < n0; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * z[k];
    z[i] = acc / l(i, i);
  }
  for (std::size_t j = 0; j < rows_.size(); ++j) {
    const Vec& row = rows_[j];
    const std::size_t i = n0 + j;
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= row[k] * z[k];
    z[i] = acc / row[i];
  }
  return z;
}

void CholeskyExt::solve_lower_inplace(std::span<double> b,
                                      std::size_t m) const {
  const std::size_t n0 = base_->size();
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n * m,
                 "CholeskyExt::solve_lower_inplace size mismatch");
  // Base triangle rows, then the appended rows — solve_lower's order.
  const double* l = base_->factor().data().data();
  forward_rows([l, n0](std::size_t i) { return l + i * n0; }, 0, n0,
               b.data(), m);
  forward_rows([this, n0](std::size_t i) { return rows_[i - n0].data(); },
               n0, n, b.data(), m);
}

Vec CholeskyExt::solve(const Vec& b) const {
  const std::size_t n0 = base_->size();
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "CholeskyExt::solve size mismatch");
  Vec z = solve_lower(b);
  // Back substitution L^T x = z over the combined factor. For i >= n0
  // every sub-diagonal entry in column i lives in an appended row; for
  // i < n0 the column crosses from the base triangle into the appended
  // rows — accumulate base entries first, appended entries after, which
  // is exactly ascending-k order in the monolithic loop.
  const Matrix& l = base_->factor();
  Vec x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = z[i];
    if (i >= n0) {
      for (std::size_t k = i + 1; k < n; ++k) acc -= rows_[k - n0][i] * x[k];
      x[i] = acc / rows_[i - n0][i];
    } else {
      for (std::size_t k = i + 1; k < n0; ++k) acc -= l(k, i) * x[k];
      for (std::size_t j = 0; j < rows_.size(); ++j) {
        acc -= rows_[j][i] * x[n0 + j];
      }
      x[i] = acc / l(i, i);
    }
  }
  return x;
}

double CholeskyExt::log_det() const {
  const Matrix& l = base_->factor();
  double acc = 0.0;
  for (std::size_t i = 0; i < base_->size(); ++i) acc += std::log(l(i, i));
  for (const Vec& row : rows_) acc += std::log(row.back());
  return 2.0 * acc;
}

}  // namespace easybo::linalg
