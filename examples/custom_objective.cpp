/// \file custom_objective.cpp
/// \brief Using EasyBO on your own objective, two ways:
///   1. composing a weighted FOM from separate metrics (paper Eq. 1);
///   2. running with REAL threads (BoEngine::run on a
///      sched::ThreadExecutor) when the objective is genuinely expensive —
///      here a deliberately slow callable.
///
/// The threaded run is the same BoEngine that bo::run_bo drives on virtual
/// time, just through sched::ThreadExecutor: any mode/acquisition works,
/// times are wall-clock, and an objective that throws aborts the run with
/// that exception (no hang).
///
/// The toy "circuit" is an RC low-pass filter evaluated on the built-in
/// MNA simulator: we trade bandwidth against component cost.

#include <chrono>
#include <cstdio>
#include <thread>

#include "core/easybo.h"
#include "spice/measure.h"
#include "spice/mna.h"

namespace {

/// Metric 1: -3 dB bandwidth of an RC low-pass, in MHz (computed with the
/// library's MNA AC simulator — x = {R in kohm, C in nF}).
double bandwidth_mhz(const easybo::linalg::Vec& x) {
  easybo::spice::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_voltage_source(in, easybo::spice::kGround, 1.0);
  ckt.add_resistor(in, out, x[0] * 1e3);
  ckt.add_capacitor(out, easybo::spice::kGround, x[1] * 1e-9);
  // -3 dB frequency of the single pole: 1/(2 pi R C); measure it from the
  // sweep like a real flow would instead of trusting the formula.
  const auto freqs = easybo::spice::log_frequency_grid(1e2, 1e9, 20);
  const auto sweep = easybo::spice::sweep_ac(ckt, freqs, out);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    if (sweep.points[i].magnitude_db() < -3.0) {
      return sweep.points[i].freq_hz / 1e6;
    }
  }
  return freqs.back() / 1e6;
}

/// Metric 2: negative component "cost" (small R and C are cheap).
double neg_cost(const easybo::linalg::Vec& x) { return -(x[0] + 2.0 * x[1]); }

}  // namespace

int main() {
  using namespace easybo;

  // --- 1. Weighted FOM composition (Eq. 1). ---
  opt::Bounds bounds{{0.1, 0.1}, {100.0, 100.0}};  // R in kohm, C in nF
  auto fom = opt::make_weighted_fom({bandwidth_mhz, neg_cost}, {1.0, 0.05});

  bo::BoConfig config;
  config.batch = 4;
  config.init_points = 10;
  config.max_sims = 40;
  config.seed = 3;

  const auto result = bo::run_bo(config, bounds, fom);
  std::printf("weighted-FOM optimum: R = %.2f kohm, C = %.2f nF, FOM = "
              "%.2f (bandwidth %.1f MHz)\n",
              result.best_x[0], result.best_x[1], result.best_y,
              bandwidth_mhz(result.best_x));

  // --- 2. Real-threads execution for expensive objectives. ---
  const opt::Objective slow = [fom](const linalg::Vec& x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return fom(x);
  };
  // The executor's worker count is the degree of parallelism.
  sched::ThreadExecutor threads(4);
  bo::BoEngine parallel(config, bounds, slow);

  const auto t0 = std::chrono::steady_clock::now();
  const auto preal = parallel.run(threads);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("real-threads run: 40 x 20 ms evaluations on 4 workers in "
              "%.2f s wall (sequential would need %.2f s); best FOM %.2f\n",
              wall, 40 * 0.020, preal.best_y);
  return 0;
}
