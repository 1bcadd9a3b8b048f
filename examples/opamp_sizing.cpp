/// \file opamp_sizing.cpp
/// \brief Sizes the paper's two-stage operational amplifier (§IV-A) with
/// asynchronous EasyBO and reports the found design like a sizing flow
/// would: device geometries, bias currents, compensation network, and the
/// measured GAIN / UGF / PM.

#include <cstdio>

#include "common/format.h"
#include "core/easybo.h"

int main() {
  using namespace easybo;

  const auto bench = circuit::make_opamp_benchmark();

  bo::BoConfig config;
  config.mode = bo::Mode::AsyncBatch;
  config.acq = bo::AcqKind::EasyBo;
  config.penalize = true;
  config.batch = 10;
  config.init_points = bench.init_points;
  config.max_sims = bench.max_sims;  // the paper's 150-simulation budget
  config.seed = 7;

  std::printf("sizing the two-stage Miller op-amp (10 variables, %zu "
              "simulations, %zu workers)...\n",
              config.max_sims, config.batch);
  const auto result = bo::run_bo(
      config, bench.bounds, bench.fom,
      [&bench](const linalg::Vec& x) { return bench.sim_time(x); });

  const auto perf = circuit::evaluate_opamp(result.best_x);
  static const char* kNames[] = {"W1,2 [um]", "L1,2 [um]", "W3,4 [um]",
                                 "L3,4 [um]", "W6 [um]",   "L6 [um]",
                                 "Itail [A]", "I2 [A]",    "Cc [F]",
                                 "Rz [ohm]"};
  std::printf("\nbest design (FOM %.2f):\n", result.best_y);
  for (std::size_t j = 0; j < result.best_x.size(); ++j) {
    std::printf("  %-10s = %.4g\n", kNames[j], result.best_x[j]);
  }
  std::printf("\nmeasured performance:\n");
  std::printf("  gain          = %.1f dB\n", perf.gain_db);
  std::printf("  UGF           = %.1f MHz\n", perf.ugf_hz / 1e6);
  std::printf("  phase margin  = %.1f deg\n", perf.pm_deg);
  std::printf("\nHSPICE-equivalent wall-clock (virtual): %s, pool "
              "utilization %.0f%%\n",
              format_duration(result.makespan).c_str(),
              100.0 * result.utilization(config.batch));
  return 0;
}
