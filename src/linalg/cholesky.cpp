#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "linalg/lanes.h"

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

/// Rows per step of the single-right-hand-side triangular kernels.
constexpr std::size_t kRows = 4;

/// Rows [begin, end) of the single-right-hand-side forward substitution
/// z_i = (b_i - sum_{k<i} l_ik z_k) / l_ii, in place on \p z, which holds
/// b from row begin on and the solved z before it. \p row(i) points at
/// factor row i. kRows rows go at a time: their sums over the solved
/// prefix z[0, i) run as independent chains, then the rows' small
/// triangle resolves in order. Each row's accumulator still takes its
/// terms k ascending, so z is the one-row-at-a-time recurrence's bit for
/// bit.
template <class RowOf>
void forward_one(const RowOf& row, std::size_t begin, std::size_t end,
                 double* z) {
  std::size_t i = begin;
  for (; i + kRows <= end; i += kRows) {
    const double* r[kRows];
    double acc[kRows];
#pragma GCC unroll kRows
    for (std::size_t t = 0; t < kRows; ++t) {
      r[t] = row(i + t);
      acc[t] = z[i + t];
    }
    for (std::size_t k = 0; k < i; ++k) {
      const double zk = z[k];
#pragma GCC unroll kRows
      for (std::size_t t = 0; t < kRows; ++t) acc[t] -= r[t][k] * zk;
    }
#pragma GCC unroll kRows
    for (std::size_t t = 0; t < kRows; ++t) {
      for (std::size_t u = 0; u < t; ++u) acc[t] -= r[t][i + u] * z[i + u];
      z[i + t] = acc[t] / r[t][i + t];
    }
  }
  for (; i < end; ++i) {
    const double* ri = row(i);
    double acc = z[i];
    for (std::size_t k = 0; k < i; ++k) acc -= ri[k] * z[k];
    z[i] = acc / ri[i];
  }
}

/// The factor row that appending column \p new_column — the n cross terms
/// b followed by the diagonal c — adds below an n x n factor whose forward
/// substitution is \p solve_lower: h = L^{-1} b, then sqrt(c - dot(h, h))
/// as its diagonal entry. Returns false, leaving \p row as it was, when
/// c - dot(h, h) is not positive and finite (the extended matrix is not
/// positive definite). Cholesky::extend and CholeskyExt::extend both
/// build their new row here.
template <class SolveLower>
bool extension_row(const SolveLower& solve_lower, const Vec& new_column,
                   Vec& row) {
  const Vec b(new_column.begin(), new_column.end() - 1);
  Vec head = solve_lower(b);
  const double d = new_column.back() - dot(head, head);
  if (!(d > 0.0) || !std::isfinite(d)) return false;
  head.push_back(std::sqrt(d));
  row = std::move(head);
  return true;
}

/// Columns per register tile of the inverse's two triangular products:
/// kInvTile / 2 two-lane accumulators.
constexpr std::size_t kInvTile = 8;
constexpr std::size_t kInvLanes = kInvTile / 2;

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
  if (n == 0) return true;
  double* l = &l_(0, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l + j * n;
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l[j * n + j] = ljj;
    // Column j below the diagonal, kRows rows at a time: each row's
    // k-ascending sum stays its own chain; the chains share l_jk.
    std::size_t i = j + 1;
    for (; i + kRows <= n; i += kRows) {
      double* r[kRows];
      double v[kRows];
#pragma GCC unroll kRows
      for (std::size_t t = 0; t < kRows; ++t) {
        r[t] = l + (i + t) * n;
        v[t] = a(i + t, j);
      }
      for (std::size_t k = 0; k < j; ++k) {
        const double ljk = lj[k];
#pragma GCC unroll kRows
        for (std::size_t t = 0; t < kRows; ++t) v[t] -= r[t][k] * ljk;
      }
#pragma GCC unroll kRows
      for (std::size_t t = 0; t < kRows; ++t) r[t][j] = v[t] / ljj;
    }
    for (; i < n; ++i) {
      double* li = l + i * n;
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= li[k] * lj[k];
      li[j] = v / ljj;
    }
  }
  return true;
}

Vec Cholesky::solve(const Vec& b) const {
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "Cholesky::solve size mismatch");
  const Vec z = solve_lower(b);
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

Vec Cholesky::solve_lower(const Vec& b) const {
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "Cholesky::solve_lower size mismatch");
  Vec z = b;
  const double* l = l_.data().data();
  forward_one([l, n](std::size_t i) { return l + i * n; }, 0, n, z.data());
  return z;
}

void Cholesky::solve_lower_inplace(std::span<double> b, std::size_t m,
                                   std::size_t begin, std::size_t end) const {
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n * m,
                 "Cholesky::solve_lower_inplace size mismatch");
  EASYBO_REQUIRE(begin <= end && end <= n,
                 "Cholesky::solve_lower_inplace row range out of bounds");
  const double* l = l_.data().data();
  forward_rows([l, n](std::size_t i) { return l + i * n; }, begin, end,
               b.data(), m);
}

bool Cholesky::extend(const Vec& new_column) {
  const std::size_t n = size();
  EASYBO_REQUIRE(new_column.size() == n + 1,
                 "Cholesky::extend: need n cross terms plus the diagonal");
  Vec row;
  if (!extension_row([this](const Vec& b) { return solve_lower(b); },
                     new_column, row)) {
    return false;
  }
  Matrix grown(n + 1, n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
  }
  for (std::size_t j = 0; j <= n; ++j) grown(n, j) = row[j];
  l_ = std::move(grown);
  return true;
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

Matrix Cholesky::inverse() const {
  const std::size_t n = size();
  const double* l = l_.data().data();
  // L^{-1}, row-major in a buffer padded to whole tiles: row i is the
  // forward substitution of the identity, every column at once. Column j
  // runs the triangular-inverse recurrence (acc = 0; acc -= l_ik linv_kj
  // for k = j..i-1; linv_ij = acc / l_ii, and linv_jj = 1 / l_jj), tile
  // by tile: a tile's sweep over k starts at its first column, so the
  // columns behind it see leading terms against entries above the
  // diagonal — exact zeros, which leave a +0 accumulator (or the
  // diagonal's 1) as it was. Only the ~n^3/6 lower-triangle work is done.
  const std::size_t stride = (n + kInvTile - 1) / kInvTile * kInvTile;
  std::vector<double> linv(n * stride, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    const F64x2 lii = splat2(li[i]);
    for (std::size_t c0 = 0; c0 <= i; c0 += kInvTile) {
      F64x2 acc[kInvLanes] = {};
      if (i < c0 + kInvTile) acc[(i - c0) / 2][(i - c0) % 2] = 1.0;
      for (std::size_t k = c0; k < i; ++k) {
        const F64x2 lik = splat2(li[k]);
        const double* zk = linv.data() + k * stride + c0;
#pragma GCC unroll kInvLanes
        for (std::size_t t = 0; t < kInvLanes; ++t) {
          acc[t] -= lik * load2(zk + 2 * t);
        }
      }
      double* out = linv.data() + i * stride + c0;
#pragma GCC unroll kInvLanes
      for (std::size_t t = 0; t < kInvLanes; ++t) {
        store2(out + 2 * t, acc[t] / lii);
      }
    }
  }
  // A^{-1} = L^{-T} L^{-1}: entry (i, j), j <= i, is acc = 0; acc +=
  // linv_ki linv_kj for k = i..n-1, one accumulator per column against
  // the broadcast linv_ki. The lower triangle is computed and mirrored;
  // tile columns past i are dropped.
  Matrix inv(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j0 = 0; j0 <= i; j0 += kInvTile) {
      F64x2 acc[kInvLanes] = {};
      for (std::size_t k = i; k < n; ++k) {
        const double* zk = linv.data() + k * stride;
        const F64x2 lki = splat2(zk[i]);
#pragma GCC unroll kInvLanes
        for (std::size_t t = 0; t < kInvLanes; ++t) {
          acc[t] += lki * load2(zk + j0 + 2 * t);
        }
      }
      double vals[kInvTile];
#pragma GCC unroll kInvLanes
      for (std::size_t t = 0; t < kInvLanes; ++t) store2(vals + 2 * t, acc[t]);
      const std::size_t j_end = std::min(j0 + kInvTile, i + 1);
      for (std::size_t j = j0; j < j_end; ++j) {
        inv(i, j) = vals[j - j0];
        inv(j, i) = vals[j - j0];
      }
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
  // Cholesky::extend's row step, run against the combined factor.
  Vec row;
  if (!extension_row([this](const Vec& b) { return solve_lower(b); },
                     new_column, row)) {
    return false;
  }
  rows_.push_back(std::move(row));
  return true;
}

Vec CholeskyExt::solve_lower(const Vec& b) const {
  const std::size_t n0 = base_->size();
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n, "CholeskyExt::solve_lower size mismatch");
  // Rows of the base triangle, then the appended rows: together this is
  // the monolithic forward substitution, element for element.
  Vec z = b;
  const double* l = base_->factor().data().data();
  forward_one([l, n0](std::size_t i) { return l + i * n0; }, 0, n0,
              z.data());
  forward_one([this, n0](std::size_t i) { return rows_[i - n0].data(); },
              n0, n, z.data());
  return z;
}

void CholeskyExt::solve_lower_inplace(std::span<double> b, std::size_t m,
                                      std::size_t begin,
                                      std::size_t end) const {
  const std::size_t n0 = base_->size();
  const std::size_t n = size();
  EASYBO_REQUIRE(b.size() == n * m,
                 "CholeskyExt::solve_lower_inplace size mismatch");
  EASYBO_REQUIRE(begin <= end && end <= n,
                 "CholeskyExt::solve_lower_inplace row range out of bounds");
  // The range's base triangle rows, then its appended rows — solve_lower's
  // order.
  const double* l = base_->factor().data().data();
  forward_rows([l, n0](std::size_t i) { return l + i * n0; }, begin,
               std::min(end, n0), b.data(), m);
  forward_rows([this, n0](std::size_t i) { return rows_[i - n0].data(); },
               std::max(begin, n0), end, b.data(), m);
}

}  // namespace easybo::linalg
