/// \file classe_pa.cpp
/// \brief Sizes the class-E power amplifier (§IV-B) and demonstrates the
/// point of asynchronous batching: the same 200-simulation budget is run
/// sequentially, synchronously (B = 10) and asynchronously (B = 10), and
/// the three virtual wall-clocks are compared. The class-E transient
/// simulation times vary a lot between design points, which is exactly
/// where the asynchronous policy pays off.

#include <cstdio>

#include "common/format.h"
#include "core/easybo.h"

int main() {
  using namespace easybo;

  const auto bench = circuit::make_classe_benchmark();
  const auto sim_time = [&bench](const linalg::Vec& x) {
    return bench.sim_time(x);
  };

  auto run = [&](bo::Mode mode, std::size_t batch, const char* label) {
    bo::BoConfig config;
    config.mode = mode;
    config.acq = bo::AcqKind::EasyBo;
    config.penalize = mode != bo::Mode::Sequential;
    config.batch = batch;
    config.init_points = 20;
    config.max_sims = 200;
    config.seed = 11;
    const auto result = bo::run_bo(config, bench.bounds, bench.fom, sim_time);
    const auto perf = circuit::evaluate_classe(result.best_x);
    std::printf("%-18s FOM %.2f (PAE %.0f%%, Pout %.2f W)  wall-clock %s"
                "  utilization %.0f%%\n",
                label, result.best_y, 100.0 * perf.pae, perf.pout_w,
                format_duration(result.makespan).c_str(),
                100.0 * result.utilization(
                            mode == bo::Mode::Sequential ? 1 : batch));
    return result.makespan;
  };

  std::printf("class-E PA sizing, 200 simulations each:\n\n");
  const double seq = run(bo::Mode::Sequential, 1, "sequential");
  const double sync = run(bo::Mode::SyncBatch, 10, "sync batch (B=10)");
  const double async = run(bo::Mode::AsyncBatch, 10, "async batch (B=10)");

  std::printf("\nasync saves %.1f%% vs sync at the same budget; %.1fx "
              "faster than sequential\n",
              100.0 * (1.0 - async / sync), seq / async);
  return 0;
}
