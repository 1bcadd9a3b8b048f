#include "linalg/vec.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace easybo::linalg {

double dot(const Vec& a, const Vec& b) {
  EASYBO_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double dist_sq(const Vec& a, const Vec& b) {
  EASYBO_REQUIRE(a.size() == b.size(), "dist_sq: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double dist(const Vec& a, const Vec& b) { return std::sqrt(dist_sq(a, b)); }

void axpy(double alpha, const Vec& x, Vec& y) {
  EASYBO_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vec add(const Vec& a, const Vec& b) {
  EASYBO_REQUIRE(a.size() == b.size(), "add: size mismatch");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec sub(const Vec& a, const Vec& b) {
  EASYBO_REQUIRE(a.size() == b.size(), "sub: size mismatch");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec scale(double alpha, const Vec& a) {
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = alpha * a[i];
  return out;
}

std::size_t argmax(const Vec& a) {
  EASYBO_REQUIRE(!a.empty(), "argmax of empty vector");
  return static_cast<std::size_t>(
      std::max_element(a.begin(), a.end()) - a.begin());
}

Vec clamp_to_box(Vec x, const Vec& lo, const Vec& hi) {
  EASYBO_REQUIRE(x.size() == lo.size() && x.size() == hi.size(),
                 "clamp_to_box: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lo[i], hi[i]);
  }
  return x;
}

bool inside_box(const Vec& x, const Vec& lo, const Vec& hi) {
  EASYBO_REQUIRE(x.size() == lo.size() && x.size() == hi.size(),
                 "inside_box: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < lo[i] || x[i] > hi[i]) return false;
  }
  return true;
}

}  // namespace easybo::linalg
