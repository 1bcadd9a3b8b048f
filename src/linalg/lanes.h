#pragma once
/// \file lanes.h
/// \brief Two-lane double vectors for the GP's hot loops.
///
/// A GCC/Clang vector extension rather than a plain loop: loops written on
/// F64x2 vectorize at -O2 as well as at -O3 on baseline x86-64 (SSE2),
/// where -O2's cost model leaves the plain loop scalar. Every lane rounds
/// exactly like the scalar operation it replaces (IEEE double, no
/// contraction), so a lane-wise loop keeps the bits of its scalar form.

#include <cstring>

namespace easybo::linalg {

using F64x2 = double __attribute__((vector_size(16)));

/// Unaligned two-lane load of p[0], p[1].
inline F64x2 load2(const double* p) {
  F64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Unaligned two-lane store to p[0], p[1].
inline void store2(double* p, F64x2 v) { std::memcpy(p, &v, sizeof v); }

/// Both lanes set to x.
inline F64x2 splat2(double x) { return F64x2{x, x}; }

}  // namespace easybo::linalg
