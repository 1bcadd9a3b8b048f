#include "opt/nelder_mead.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace easybo::opt {

namespace {

constexpr double kInitialStep = 0.05;  ///< simplex edge, fraction of width
constexpr double kXTol = 1e-7;         ///< stop when the simplex collapses
constexpr double kFTol = 1e-10;        ///< stop when f-spread collapses
// Standard coefficients (reflection/expansion/contraction/shrink).
constexpr double kAlpha = 1.0;
constexpr double kGamma = 2.0;
constexpr double kRho = 0.5;
constexpr double kSigma = 0.5;

}  // namespace

OptResult nelder_mead_maximize(const Objective& fn, const Bounds& bounds,
                               const Vec& start, std::size_t max_evals) {
  bounds.validate();
  const std::size_t d = bounds.dim();
  EASYBO_REQUIRE(start.size() == d, "nelder_mead: start dim mismatch");
  EASYBO_REQUIRE(max_evals >= d + 2,
                 "nelder_mead: budget too small for the initial simplex");

  OptResult result;
  auto evaluate = [&](const Vec& x) {
    const double y = fn(x);
    ++result.num_evals;
    if (result.history.empty()) {
      result.history.push_back(y);
      result.best_x = x;
      result.best_y = y;
    } else {
      const double best = std::max(result.history.back(), y);
      result.history.push_back(best);
      if (y > result.best_y) {
        result.best_y = y;
        result.best_x = x;
      }
    }
    return y;
  };
  auto clamp = [&](Vec x) {
    return linalg::clamp_to_box(std::move(x), bounds.lower, bounds.upper);
  };

  // Initial simplex: start plus a step along each coordinate.
  std::vector<Vec> simplex;
  Vec values;
  simplex.reserve(d + 1);
  simplex.push_back(clamp(start));
  for (std::size_t i = 0; i < d; ++i) {
    Vec v = simplex.front();
    const double width = bounds.upper[i] - bounds.lower[i];
    double step = kInitialStep * width;
    // Flip direction if the step would leave the box entirely.
    if (v[i] + step > bounds.upper[i]) step = -step;
    v[i] += step;
    simplex.push_back(clamp(std::move(v)));
  }
  values.resize(d + 1);
  for (std::size_t i = 0; i <= d; ++i) values[i] = evaluate(simplex[i]);

  std::vector<std::size_t> order(d + 1);
  while (result.num_evals < max_evals) {
    // Sort indices: order[0] = best (largest), order[d] = worst.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return values[a] > values[b]; });

    // Convergence checks on the sorted simplex.
    const double f_spread = values[order[0]] - values[order[d]];
    double x_spread = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      double lo = simplex[order[0]][i], hi = lo;
      for (std::size_t v = 1; v <= d; ++v) {
        lo = std::min(lo, simplex[order[v]][i]);
        hi = std::max(hi, simplex[order[v]][i]);
      }
      x_spread = std::max(x_spread, hi - lo);
    }
    if (f_spread < kFTol || x_spread < kXTol) break;

    // Centroid of all but the worst vertex.
    Vec centroid(d, 0.0);
    for (std::size_t v = 0; v < d; ++v) {
      linalg::axpy(1.0 / static_cast<double>(d), simplex[order[v]], centroid);
    }
    const std::size_t worst = order[d];

    auto affine = [&](double coeff) {
      Vec x(d);
      for (std::size_t i = 0; i < d; ++i) {
        x[i] = centroid[i] + coeff * (centroid[i] - simplex[worst][i]);
      }
      return clamp(std::move(x));
    };

    const Vec reflected = affine(kAlpha);
    const double fr = evaluate(reflected);

    if (fr > values[order[0]]) {
      // Try to expand further in the same direction.
      if (result.num_evals >= max_evals) break;
      const Vec expanded = affine(kAlpha * kGamma);
      const double fe = evaluate(expanded);
      if (fe > fr) {
        simplex[worst] = expanded;
        values[worst] = fe;
      } else {
        simplex[worst] = reflected;
        values[worst] = fr;
      }
      continue;
    }
    if (fr > values[order[d - 1]]) {
      simplex[worst] = reflected;
      values[worst] = fr;
      continue;
    }

    // Contraction (outside if reflection improved on worst, else inside).
    if (result.num_evals >= max_evals) break;
    const bool outside = fr > values[worst];
    const Vec contracted = affine(outside ? kAlpha * kRho : -kRho);
    const double fc = evaluate(contracted);
    if (fc > (outside ? fr : values[worst])) {
      simplex[worst] = contracted;
      values[worst] = fc;
      continue;
    }

    // Shrink toward the best vertex.
    const Vec& best_vertex = simplex[order[0]];
    for (std::size_t v = 1; v <= d; ++v) {
      const std::size_t idx = order[v];
      for (std::size_t i = 0; i < d; ++i) {
        simplex[idx][i] =
            best_vertex[i] + kSigma * (simplex[idx][i] - best_vertex[i]);
      }
      if (result.num_evals >= max_evals) break;
      values[idx] = evaluate(simplex[idx]);
    }
  }

  return result;
}

}  // namespace easybo::opt
