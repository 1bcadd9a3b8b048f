#include "circuit/testfunc.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace easybo::circuit {

using linalg::Vec;

TestFunction branin() {
  TestFunction f;
  f.name = "branin";
  f.bounds.lower = {-5.0, 0.0};
  f.bounds.upper = {10.0, 15.0};
  f.fn = [](const Vec& x) {
    constexpr double a = 1.0;
    const double b = 5.1 / (4.0 * std::numbers::pi * std::numbers::pi);
    const double c = 5.0 / std::numbers::pi;
    constexpr double r = 6.0;
    constexpr double s = 10.0;
    const double t = 1.0 / (8.0 * std::numbers::pi);
    const double term = x[1] - b * x[0] * x[0] + c * x[0] - r;
    const double value =
        a * term * term + s * (1.0 - t) * std::cos(x[0]) + s;
    return -value;
  };
  f.max_value = -0.397887;
  f.max_location = {std::numbers::pi, 2.275};
  return f;
}

TestFunction ackley(std::size_t dim) {
  EASYBO_REQUIRE(dim >= 1, "ackley: dim >= 1");
  TestFunction f;
  f.name = "ackley" + std::to_string(dim);
  f.bounds.lower = Vec(dim, -32.768);
  f.bounds.upper = Vec(dim, 32.768);
  f.fn = [dim](const Vec& x) {
    constexpr double a = 20.0;
    constexpr double b = 0.2;
    const double c = 2.0 * std::numbers::pi;
    double sum_sq = 0.0, sum_cos = 0.0;
    for (double v : x) {
      sum_sq += v * v;
      sum_cos += std::cos(c * v);
    }
    const double n = static_cast<double>(dim);
    const double value = -a * std::exp(-b * std::sqrt(sum_sq / n)) -
                         std::exp(sum_cos / n) + a + std::numbers::e;
    return -value;
  };
  f.max_value = 0.0;
  f.max_location = Vec(dim, 0.0);
  return f;
}

TestFunction hartmann6() {
  TestFunction f;
  f.name = "hartmann6";
  f.bounds.lower = Vec(6, 0.0);
  f.bounds.upper = Vec(6, 1.0);
  f.fn = [](const Vec& x) {
    static const double alpha[4] = {1.0, 1.2, 3.0, 3.2};
    static const double A[4][6] = {
        {10, 3, 17, 3.5, 1.7, 8},
        {0.05, 10, 17, 0.1, 8, 14},
        {3, 3.5, 1.7, 10, 17, 8},
        {17, 8, 0.05, 10, 0.1, 14}};
    static const double P[4][6] = {
        {0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886},
        {0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991},
        {0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650},
        {0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381}};
    double outer = 0.0;
    for (int i = 0; i < 4; ++i) {
      double inner = 0.0;
      for (int j = 0; j < 6; ++j) {
        const double diff = x[static_cast<std::size_t>(j)] - P[i][j];
        inner += A[i][j] * diff * diff;
      }
      outer += alpha[i] * std::exp(-inner);
    }
    return outer;  // Hartmann-6 is conventionally maximized as-is
  };
  f.max_value = 3.32237;
  f.max_location = {0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573};
  return f;
}

TestFunction sphere(std::size_t dim) {
  EASYBO_REQUIRE(dim >= 1, "sphere: dim >= 1");
  TestFunction f;
  f.name = "sphere" + std::to_string(dim);
  f.bounds.lower = Vec(dim, -5.0);
  f.bounds.upper = Vec(dim, 5.0);
  f.fn = [](const Vec& x) {
    double value = 0.0;
    for (double v : x) value += v * v;
    return -value;
  };
  f.max_value = 0.0;
  f.max_location = Vec(dim, 0.0);
  return f;
}

}  // namespace easybo::circuit
