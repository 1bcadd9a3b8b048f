#pragma once
/// \file sampling.h
/// \brief Sobol low-discrepancy sequence.
///
/// Acquisition maximization screens dense low-discrepancy candidates in
/// the unit hypercube [0,1)^d; callers scale to bounds. (The initial
/// design is iid uniform: the paper samples 20 random initial points.)

#include <cstdint>
#include <vector>

namespace easybo {

/// Gray-code Sobol sequence generator supporting up to kMaxDim dimensions
/// (direction numbers from the Joe–Kuo D6 table). Skips the all-zeros first
/// point by default, which otherwise degrades GP conditioning at the corner.
class SobolSequence {
 public:
  static constexpr std::size_t kMaxDim = 21;

  /// \param dim   number of dimensions, 1..kMaxDim.
  /// \param skip  number of initial points to discard (default 1: the origin).
  explicit SobolSequence(std::size_t dim, std::uint32_t skip = 1);

  std::size_t dim() const { return dim_; }

  /// Next point of the sequence, length dim, each coordinate in [0,1).
  std::vector<double> next();

 private:
  std::size_t dim_;
  std::uint32_t index_ = 0;  // zero-based index of the NEXT point
  // direction numbers v_[j][k], scaled by 2^-32 on output
  std::vector<std::vector<std::uint32_t>> v_;
  std::vector<std::uint32_t> x_;  // current Gray-code state per dimension
};

}  // namespace easybo
