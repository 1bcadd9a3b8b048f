#pragma once
/// \file vec.h
/// \brief Free functions on std::vector<double> used as the vector type.
///
/// Design points, observations and GP intermediates are plain
/// std::vector<double>; these helpers keep inner loops readable without
/// introducing an expression-template vector class the project doesn't need.

#include <cstddef>
#include <vector>

namespace easybo::linalg {

using Vec = std::vector<double>;

/// Inner product; requires equal sizes.
double dot(const Vec& a, const Vec& b);

/// Squared Euclidean distance between two equally sized vectors.
double dist_sq(const Vec& a, const Vec& b);

/// Euclidean distance.
double dist(const Vec& a, const Vec& b);

/// y += alpha * x (sizes must match).
void axpy(double alpha, const Vec& x, Vec& y);

/// Element-wise sum / difference / scaling (value-returning).
Vec add(const Vec& a, const Vec& b);
Vec sub(const Vec& a, const Vec& b);
Vec scale(double alpha, const Vec& a);

/// Index of the maximum element; requires non-empty input.
std::size_t argmax(const Vec& a);

/// Clamps each element into [lo[i], hi[i]] (box projection).
Vec clamp_to_box(Vec x, const Vec& lo, const Vec& hi);

/// True when every element of x lies inside the closed box [lo, hi].
bool inside_box(const Vec& x, const Vec& lo, const Vec& hi);

}  // namespace easybo::linalg
