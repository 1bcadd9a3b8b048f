/// \file fig1_schedule.cpp
/// \brief Reproduces Fig. 1: the asynchronous-vs-synchronous schedule
/// illustration for batch size 3.
///
/// The paper's figure shows per-worker timelines where the synchronous
/// policy leaves workers idle at every batch barrier while the async
/// policy backfills. We render both schedules as ASCII Gantt charts from
/// the same set of job durations, plus utilization/makespan numbers, and
/// repeat the comparison with op-amp- and class-E-like duration
/// distributions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/format.h"
#include "common/rng.h"
#include "sched/executor.h"

namespace {

using easybo::sched::Completion;

/// Renders one schedule as per-worker ASCII timelines; each job is drawn
/// as its tag repeated over its duration (1 column per time unit).
void draw_gantt(const std::vector<Completion>& trace, std::size_t workers,
                double makespan, double unit) {
  const auto width = static_cast<std::size_t>(std::ceil(makespan / unit));
  std::vector<std::string> lanes(workers, std::string(width, '.'));
  for (const auto& job : trace) {
    const auto from = static_cast<std::size_t>(job.start / unit);
    const auto to = std::max(
        from + 1, static_cast<std::size_t>(std::ceil(job.finish / unit)));
    const char symbol =
        static_cast<char>((job.tag < 10 ? '0' : 'a' - 10) +
                          static_cast<char>(job.tag % 36));
    for (std::size_t c = from; c < to && c < width; ++c) {
      lanes[job.worker][c] = symbol;
    }
  }
  for (std::size_t w = 0; w < workers; ++w) {
    std::printf("  worker %zu |%s|\n", w, lanes[w].c_str());
  }
}

void compare_and_print(const char* title,
                       const std::vector<double>& durations,
                       std::size_t workers, double unit) {
  const auto cmp = easybo::sched::compare_policies(durations, workers);
  std::printf("--- %s (%zu jobs, %zu workers) ---\n", title,
              durations.size(), workers);
  std::printf("synchronous  (makespan %s, utilization %.0f%%):\n",
              easybo::format_duration(cmp.sync_makespan).c_str(),
              100.0 * cmp.sync_utilization);
  draw_gantt(cmp.sync_trace, workers, cmp.sync_makespan, unit);
  std::printf("asynchronous (makespan %s, utilization %.0f%%):\n",
              easybo::format_duration(cmp.async_makespan).c_str(),
              100.0 * cmp.async_utilization);
  draw_gantt(cmp.async_trace, workers, cmp.async_makespan, unit);
  std::printf("async saves %.1f%% of wall-clock at the same #sims\n\n",
              100.0 * (1.0 - cmp.async_makespan / cmp.sync_makespan));
}

}  // namespace

int main() {
  std::printf(
      "=== Fig. 1: asynchronous vs synchronous batch execution ===\n\n");

  // The didactic B=3 example of the figure: mixed short/long simulations.
  compare_and_print("Fig. 1 illustration, B = 3",
                    {5, 2, 3, 1, 6, 2, 4, 2, 3}, 3, 1.0);

  // Op-amp-like durations: mean ~39 s, small spread.
  {
    easybo::Rng rng(1);
    std::vector<double> durations(30);
    for (auto& d : durations) d = 36.0 * std::exp(0.12 * rng.normal());
    compare_and_print("op-amp-like durations (CV ~ 12%), B = 5", durations,
                      5, 10.0);
  }

  // Class-E-like durations: mean ~53 s, large spread -> big async win.
  {
    easybo::Rng rng(2);
    std::vector<double> durations(45);
    for (auto& d : durations) d = 44.0 * std::exp(0.40 * rng.normal());
    compare_and_print("class-E-like durations (CV ~ 45%), B = 15",
                      durations, 15, 10.0);
  }
  return 0;
}
