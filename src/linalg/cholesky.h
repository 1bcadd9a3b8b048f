#pragma once
/// \file cholesky.h
/// \brief Cholesky (LL^T) factorization with adaptive jitter.
///
/// The GP posterior (paper Eq. 2) needs K^{-1} y and K^{-1} k(X, x*); both
/// are computed through this factorization. GP covariance matrices become
/// near-singular when query points cluster (exactly what happens late in an
/// optimization run, and deliberately when hallucinated pseudo-points are
/// added), so the factorization retries with exponentially growing diagonal
/// jitter before giving up.
///
/// Same-order contract: the factor, the solves and the inverse run several
/// independent accumulators side by side (rows or columns at a time, two
/// lanes per vector) so they are bound by throughput rather than by one
/// serial chain, but every accumulator takes exactly the terms, in exactly
/// the order, of the one-entry-at-a-time loop. Results are bit-identical to
/// those loops (tests/test_linalg.cpp pins them against the scalar code).
/// The multi-right-hand-side forward solve also runs on a row range, so a
/// caller can step through it and drop right-hand sides between steps
/// without moving the bits of the ones it keeps.

#include <span>

#include "linalg/matrix.h"

namespace easybo::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class Cholesky {
 public:
  /// Factors \p a (symmetric; only the lower triangle is read).
  ///
  /// If the factorization encounters a non-positive pivot, \p initial_jitter
  /// (times the mean diagonal) is added to the diagonal and the factorization
  /// restarts; the jitter grows 10x per retry up to \p max_tries attempts.
  /// Throws NumericalError when all retries fail.
  explicit Cholesky(const Matrix& a, double initial_jitter = 1e-10,
                    int max_tries = 10);

  std::size_t size() const { return l_.rows(); }

  /// The lower-triangular factor L with A + jitter*I = L L^T.
  const Matrix& factor() const { return l_; }

  /// Total jitter that was added to the diagonal (0 when none was needed).
  double jitter_used() const { return jitter_used_; }

  /// Factorization attempts performed (1 = clean, each jitter escalation
  /// adds one). Observability feed for the "gp.jitter_escalation" counter.
  int attempts() const { return attempts_; }

  /// Solves A x = b through forward/back substitution.
  Vec solve(const Vec& b) const;

  /// Solves L z = b (forward substitution only): z_i = (b_i - sum_{k<i}
  /// l_ik z_k) / l_ii, each row's sum k ascending. Rows go a few at a
  /// time: their sums over the solved prefix run as independent chains,
  /// then the small triangle among them resolves in order. Serves the GP
  /// variance term k** - ||L^{-1} k*||^2, extend() and solve()'s forward
  /// half.
  Vec solve_lower(const Vec& b) const;

  /// Solves L Z = B in place for m right-hand sides at once: \p b holds B
  /// row-major (n x m, row i = entry i of every right-hand side) and is
  /// overwritten with Z. Each column replays solve_lower's operations
  /// exactly (acc = b_i; acc -= l_ik z_k for k ascending; z_i = acc / l_ii),
  /// so column c equals solve_lower(column c) bit for bit; one sweep over
  /// L serves all m columns. The batched GP posterior's variance solve.
  void solve_lower_inplace(std::span<double> b, std::size_t m) const {
    solve_lower_inplace(b, m, 0, size());
  }

  /// Rows [begin, end) of solve_lower_inplace: rows before \p begin must
  /// already hold Z (an earlier call's output) and rows from \p end on
  /// are left as they are. Row i depends only on rows k < i, so solving
  /// [0, r) and then [r, n) is the whole solve bit for bit — and a caller
  /// may drop columns between the two calls, since no column reads
  /// another. The batched GP posterior steps through its solve this way.
  void solve_lower_inplace(std::span<double> b, std::size_t m,
                           std::size_t begin, std::size_t end) const;

  /// Extends the factorization of A (n x n) to that of the (n+1) x (n+1)
  /// matrix [[A, b], [b^T, c]] in O(n^2): the new bottom row of L is
  /// [L^{-1} b; sqrt(c - ||L^{-1} b||^2)].
  ///
  /// \param new_column  the n cross terms b followed by the diagonal c
  ///                    (size n + 1).
  /// \returns false (leaving the factor unchanged) when the extended
  ///          matrix is not positive definite; the caller should fall back
  ///          to a full, jittered factorization.
  bool extend(const Vec& new_column);

  /// log(det A) = 2 * sum_i log L_ii.
  double log_det() const;

  /// Explicit inverse (used by the LML gradient, where the full K^{-1} is
  /// genuinely required, and by tests). Computed as L^{-T} L^{-1} over the
  /// lower triangles only, ~n^3/3 multiply-adds: L^{-1} is kept row-major,
  /// so both steps broadcast one entry against a contiguous register tile
  /// of columns, one two-lane accumulator per column pair.
  Matrix inverse() const;

 private:
  bool try_factor(const Matrix& a);

  Matrix l_;
  double jitter_used_ = 0.0;
  int attempts_ = 1;
};

/// Zero-copy extension of a borrowed Cholesky factor by appended rows.
///
/// Extending a factor of A to cover [[A, B], [B^T, C]] only ever ADDS rows
/// below the existing triangle — the base factor's entries are immutable.
/// Cholesky::extend still copies the whole O(n^2) factor per appended row,
/// which is exactly the cost that made hallucinated posteriors a deep copy
/// of the model. This view instead borrows the base factor and stores only
/// the appended rows (row i of the extension holds n + i + 1 entries over
/// an n x n base), so k pseudo-observations cost O(k n^2) arithmetic and O(k n)
/// memory with no copy of the base triangle.
///
/// Arithmetic parity: every solve walks the combined factor in exactly the
/// element order the monolithic Cholesky routines use, so results are
/// bit-identical to extending a copied factor — the property the
/// hallucination overlay's stream-compatibility rests on.
///
/// The base factor must outlive the view and must not be mutated while the
/// view is alive.
class CholeskyExt {
 public:
  explicit CholeskyExt(const Cholesky* base);

  std::size_t size() const { return base_->size() + rows_.size(); }

  /// Jitter baked into the borrowed base factor's diagonal; callers
  /// extending a jittered factor must include it in new diagonals so the
  /// combined factor keeps factoring one consistent matrix.
  double jitter_used() const { return base_->jitter_used(); }

  /// Appends one row: \p new_column holds the size() cross terms followed
  /// by the diagonal entry (size() + 1 values). Returns false — leaving
  /// the view unchanged — when the extended matrix is not positive
  /// definite; the caller should fall back to a full factorization.
  bool extend(const Vec& new_column);

  /// Solves (combined L) z = b, forward substitution only — the base
  /// triangle's rows, then the appended rows, under Cholesky::solve_lower's
  /// contract.
  Vec solve_lower(const Vec& b) const;

  /// Multi-right-hand-side solve_lower over the combined factor, in place
  /// on row-major n x m \p b — Cholesky::solve_lower_inplace's contract:
  /// column c equals solve_lower(column c) bit for bit.
  void solve_lower_inplace(std::span<double> b, std::size_t m) const {
    solve_lower_inplace(b, m, 0, size());
  }

  /// Rows [begin, end) of the combined solve, under Cholesky's row-range
  /// contract; a range may straddle the base/appended boundary.
  void solve_lower_inplace(std::span<double> b, std::size_t m,
                           std::size_t begin, std::size_t end) const;

 private:
  const Cholesky* base_;    // borrowed, immutable while this view lives
  std::vector<Vec> rows_;   // appended factor rows; row i has n0+i+1 entries
};

}  // namespace easybo::linalg
