/// \file ext_baselines.cpp
/// \brief Extension comparison beyond the paper's roster: EasyBO vs BUCB
/// (hallucinated-variance UCB [32]) and LP (local penalization [33]) — the
/// two penalization strategies §III-C discusses — plus PSO and SA from the
/// intro's prior-art list, all on the op-amp benchmark at B = 10.
///
/// Environment: EASYBO_RUNS (default 3), EASYBO_SIMS (default 150).

#include <cstdio>

#include "common/rng.h"
#include "harness.h"
#include "opt/pso.h"
#include "opt/sa.h"

int main() {
  using namespace easybo;
  using namespace easybo::bench;

  const auto circuit_bench = circuit::make_opamp_benchmark();
  const std::size_t runs = env_size("EASYBO_RUNS", 3);
  const std::size_t sims = env_size("EASYBO_SIMS", circuit_bench.max_sims);

  std::printf("=== Extension baselines (op-amp, B = 10, %zu runs, %zu "
              "sims) ===\n\n",
              runs, sims);

  AsciiTable table({"Algo", "Best", "Worst", "Mean", "Std", "Time"});

  auto make = [&](bo::Mode mode, bo::AcqKind acq, bool penalize) {
    bo::BoConfig c;
    c.mode = mode;
    c.acq = acq;
    c.penalize = penalize;
    c.batch = 10;
    c.init_points = circuit_bench.init_points;
    c.max_sims = sims;
    apply_bench_budgets(c);
    return c;
  };

  for (const auto& config :
       {make(bo::Mode::AsyncBatch, bo::AcqKind::EasyBo, true),
        make(bo::Mode::AsyncBatch, bo::AcqKind::Bucb, false),
        make(bo::Mode::AsyncBatch, bo::AcqKind::Lp, false),
        make(bo::Mode::SyncBatch, bo::AcqKind::Bucb, false)}) {
    auto stats = run_bo_repeated(circuit_bench, config, runs);
    // The engine label does not encode sync/async for the extensions.
    if (config.mode == bo::Mode::SyncBatch) stats.label += " (sync)";
    add_table_row(table, stats, 2);
    std::fflush(stdout);
  }

  // Swarm / annealing baselines at the same simulation budget (sequential
  // evaluation; their wall-clock is the sum of simulation durations).
  for (const char* name : {"PSO", "SA"}) {
    std::vector<double> bests;
    double time_sum = 0.0;
    for (std::size_t r = 0; r < runs; ++r) {
      Rng rng(3000 + r);
      double virtual_time = 0.0;
      opt::EvalObserver observer = [&](const linalg::Vec& x, double,
                                       std::size_t) {
        virtual_time += circuit_bench.sim_time(x);
      };
      opt::OptResult result;
      if (std::string(name) == "PSO") {
        opt::PsoOptions o;
        o.max_evals = sims;
        o.swarm = 20;
        result = opt::pso_maximize(circuit_bench.fom, circuit_bench.bounds,
                                   rng, o, observer);
      } else {
        result = opt::sa_maximize(circuit_bench.fom, circuit_bench.bounds,
                                  rng, sims, observer);
      }
      bests.push_back(result.best_y);
      time_sum += virtual_time;
    }
    AlgoStats stats;
    stats.label = name;
    stats.fom = summarize(bests);
    stats.mean_makespan = time_sum / static_cast<double>(runs);
    add_table_row(table, stats, 2);
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("(EasyBO's sigma-hat penalization generalizes BUCB's "
              "hallucination to the randomized-weight acquisition; LP "
              "penalizes multiplicatively around busy points instead)\n");
  return 0;
}
