#include "bo/result.h"

#include <algorithm>

#include "common/error.h"

namespace easybo::bo {

double BoResult::utilization(std::size_t workers) const {
  EASYBO_REQUIRE(workers >= 1, "utilization: workers must be >= 1");
  if (makespan <= 0.0) return 0.0;
  return total_sim_time / (makespan * static_cast<double>(workers));
}

std::vector<std::pair<double, double>> BoResult::best_vs_time() const {
  std::vector<const EvalRecord*> ordered;
  ordered.reserve(evals.size());
  for (const auto& e : evals) {
    if (!e.failed) ordered.push_back(&e);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const EvalRecord* a, const EvalRecord* b) {
              return a->finish < b->finish;
            });
  std::vector<std::pair<double, double>> series;
  series.reserve(ordered.size());
  double best = 0.0;
  bool first = true;
  for (const auto* e : ordered) {
    best = first ? e->y : std::max(best, e->y);
    first = false;
    series.emplace_back(e->finish, best);
  }
  return series;
}

double BoResult::time_to_target(double target) const {
  for (const auto& [time, best] : best_vs_time()) {
    if (best >= target) return time;
  }
  return -1.0;
}

}  // namespace easybo::bo
