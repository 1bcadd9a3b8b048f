/// \file fig6_classe_trace.cpp
/// \brief Reproduces Fig. 6: class-E best-FOM-so-far vs simulation
/// wall-clock for B = 15, and the headline 7.35x speed-up claim.
///
/// Same layout as fig4_opamp_trace on the class-E benchmark. The paper's
/// headline: at matched final quality, EasyBO-15 cuts 80.0% / 86.4% of
/// simulation time vs pBO-15 / pHCBO-15, i.e. up to 7.35x speed-up.
///
/// Environment: EASYBO_RUNS (default 3), EASYBO_SIMS (default 450).

#include <algorithm>
#include <cstdio>

#include "harness.h"

int main() {
  using namespace easybo;
  using namespace easybo::bench;

  const auto circuit_bench = circuit::make_classe_benchmark();
  const std::size_t runs = env_size("EASYBO_RUNS", 3);
  const std::size_t sims = env_size("EASYBO_SIMS", circuit_bench.max_sims);

  std::printf(
      "=== Fig. 6: class-E best FOM vs wall-clock, B = 15 (%zu runs, %zu "
      "sims) ===\n\n",
      runs, sims);

  auto make = [&](bo::Mode mode, bo::AcqKind acq, bool penalize) {
    bo::BoConfig c;
    c.mode = mode;
    c.acq = acq;
    c.penalize = penalize;
    c.batch = 15;
    c.init_points = circuit_bench.init_points;
    c.max_sims = sims;
    apply_bench_budgets(c);
    return c;
  };

  const auto pbo = run_bo_repeated(
      circuit_bench, make(bo::Mode::SyncBatch, bo::AcqKind::Pbo, false),
      runs);
  const auto phcbo = run_bo_repeated(
      circuit_bench, make(bo::Mode::SyncBatch, bo::AcqKind::Phcbo, false),
      runs);
  const auto easybo = run_bo_repeated(
      circuit_bench, make(bo::Mode::AsyncBatch, bo::AcqKind::EasyBo, true),
      runs);

  double horizon = 0.0;
  for (const auto* s : {&pbo, &phcbo, &easybo}) {
    horizon = std::max(horizon, s->mean_makespan);
  }

  std::printf("%-10s %-12s %-12s %-12s\n", "time", "pBO-15", "pHCBO-15",
              "EasyBO-15");
  constexpr int kPoints = 20;
  for (int i = 1; i <= kPoints; ++i) {
    const double t = horizon * i / kPoints;
    std::printf("%-10s %-12.2f %-12.2f %-12.2f\n",
                format_duration(t).c_str(), mean_best_at(pbo, t),
                mean_best_at(phcbo, t), mean_best_at(easybo, t));
  }

  std::printf(
      "\nTime for EasyBO-15 to match the competitors' final mean FOM "
      "(paper: 80.0%% / 86.4%% reduction = up to 7.35x speed-up):\n");
  for (const auto* other : {&pbo, &phcbo}) {
    const double target = other->fom.mean;
    const double t_easybo = mean_time_to(easybo, target);
    const double t_other = other->mean_makespan;
    const double speedup = t_easybo > 0.0 ? t_other / t_easybo : 0.0;
    std::printf("  vs %-9s: target FOM %.2f, EasyBO %s vs %s  (%.1f%% "
                "reduction, %.2fx speed-up)\n",
                other->label.c_str(), target,
                format_duration(t_easybo).c_str(),
                format_duration(t_other).c_str(),
                100.0 * (1.0 - t_easybo / t_other), speedup);
  }
  return 0;
}
