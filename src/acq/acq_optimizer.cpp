#include "acq/acq_optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "common/error.h"
#include "common/sampling.h"

namespace easybo::acq {

using linalg::Vec;

namespace {

/// Screening candidates per evaluate_batch call — also the cancellation
/// poll stride.
constexpr std::size_t kScreenChunk = 32;

}  // namespace

AcqOptResult maximize_acquisition(const AcquisitionFn& fn, std::size_t dim,
                                  easybo::Rng& rng,
                                  const std::vector<Vec>& anchors,
                                  const AcqOptOptions& opt,
                                  obs::TraceSink* sink,
                                  const common::StopToken* stop) {
  obs::ScopedTimer span(sink, obs::Phase::AcqMaximize);
  EASYBO_REQUIRE(dim >= 1, "maximize_acquisition: dim must be >= 1");
  EASYBO_REQUIRE(opt.sobol_candidates + opt.random_candidates > 0,
                 "maximize_acquisition: no screening candidates configured");

  AcqOptResult result;
  result.best_value = -std::numeric_limits<double>::infinity();

  std::vector<Vec> candidates;
  candidates.reserve(opt.sobol_candidates + opt.random_candidates +
                     anchors.size() * (1 + opt.anchor_jitter));

  if (opt.sobol_candidates > 0 && dim <= SobolSequence::kMaxDim) {
    // Random-shifted Sobol (Cranley–Patterson rotation): deterministic
    // stratification, decorrelated between calls.
    SobolSequence sobol(dim);
    Vec shift(dim);
    for (auto& s : shift) s = rng.uniform();
    for (std::size_t i = 0; i < opt.sobol_candidates; ++i) {
      Vec p = sobol.next();
      for (std::size_t j = 0; j < dim; ++j) {
        p[j] += shift[j];
        if (p[j] >= 1.0) p[j] -= 1.0;
      }
      candidates.push_back(std::move(p));
    }
  }
  const std::size_t random_count =
      opt.random_candidates +
      (dim > SobolSequence::kMaxDim ? opt.sobol_candidates : 0);
  for (std::size_t i = 0; i < random_count; ++i) {
    candidates.push_back(rng.uniform_vector(dim));
  }
  for (const auto& anchor : anchors) {
    EASYBO_REQUIRE(anchor.size() == dim,
                   "maximize_acquisition: anchor dim mismatch");
    candidates.push_back(anchor);
    for (std::size_t k = 0; k < opt.anchor_jitter; ++k) {
      Vec p = anchor;
      for (std::size_t j = 0; j < dim; ++j) {
        p[j] = std::clamp(p[j] + rng.normal(0.0, opt.jitter_scale), 0.0, 1.0);
      }
      candidates.push_back(std::move(p));
    }
  }

  // The screened argmax is order.front() after a partial sort, so at least
  // one element is sorted even when no refinement starts are configured.
  const std::size_t k =
      std::min(std::max<std::size_t>(opt.refine_top_k, 1), candidates.size());

  // Screen in chunks of kScreenChunk through evaluate_batch, in index
  // order (one batched posterior query per chunk for acquisitions that
  // support it). Each chunk gets a floor: the k-th largest value of the
  // earlier chunks, kept in the min-heap `top`. A candidate below it is
  // below the least of the k values partial_sort's scan holds when it
  // reaches that candidate, so the scan would never admit it: it may read
  // -inf without changing the chosen indices or their order, ties
  // included. A NaN breaks that ordering argument, so the first one seen
  // turns the floor off for the rest of the sweep. The cancellation poll
  // sits before every chunk — before candidates 0, 32, 64, ... — so an
  // expired token never starts the sweep; it reads no RNG, so surviving
  // the token leaves the stream untouched.
  const std::span<const Vec> screen(candidates);
  Vec values(candidates.size());
  std::priority_queue<double, std::vector<double>, std::greater<>> top;
  bool use_floor = true;
  std::size_t var_solves = 0;
  for (std::size_t i = 0; i < candidates.size(); i += kScreenChunk) {
    if (stop != nullptr) stop->check("acquisition screening");
    const std::size_t m = std::min(kScreenChunk, candidates.size() - i);
    const double floor = use_floor && top.size() == k ? top.top() : kNoFloor;
    const std::span<double> chunk = std::span<double>(values).subspan(i, m);
    var_solves += fn.evaluate_batch(screen.subspan(i, m), chunk, floor);
    result.num_evals += m;
    for (const double v : chunk) {
      if (std::isnan(v)) {
        use_floor = false;
      } else if (top.size() < k) {
        top.push(v);
      } else if (v > top.top()) {
        top.pop();
        top.push(v);
      }
    }
  }

  // Indices of the top-k screened candidates.
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return values[a] > values[b];
                    });

  const std::size_t best_screen = order.front();
  result.best_x = candidates[best_screen];
  result.best_value = values[best_screen];

  // Local refinement.
  if (opt.refine_evals > dim + 2) {
    opt::Bounds unit{Vec(dim, 0.0), Vec(dim, 1.0)};
    const std::size_t starts = std::min(opt.refine_top_k, order.size());
    for (std::size_t i = 0; i < starts; ++i) {
      if (stop != nullptr) stop->check("acquisition refinement");
      const auto local = opt::nelder_mead_maximize(
          [&fn](const Vec& x) { return fn(x); }, unit, candidates[order[i]],
          opt.refine_evals);
      result.num_evals += local.num_evals;
      if (local.best_y > result.best_value) {
        result.best_value = local.best_y;
        result.best_x = local.best_x;
      }
    }
  }
  obs::count(sink, "acq.inner_evals", result.num_evals);
  obs::count(sink, "acq.var_solves", var_solves);
  return result;
}

}  // namespace easybo::acq
