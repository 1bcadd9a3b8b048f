/// \file fault_policies.cpp
/// \brief Failure-policy study (beyond the paper): what does a flaky
/// simulator farm cost, and which BoConfig::on_eval_failure policy
/// recovers most of the clean-run quality?
///
/// Async EasyBO (B = 5) on the op-amp benchmark, with roughly 10% of
/// simulator calls crashing (FaultInjector, every 10th call throws),
/// compared against the clean run under the default Abort policy:
///
///   clean/abort     no faults injected — the reference quality
///   faulty/discard  failed points dropped (budget still consumed)
///   faulty/penalize failed points absorbed at the worst observed FOM
///   + each faulty policy with 2 retries (the crash is deterministic per
///     call slot, not per point, so a retry usually succeeds)
///
/// Environment: EASYBO_RUNS (default 3), EASYBO_SIMS (default 150).

#include <cstdio>
#include <vector>

#include "circuit/fault_injection.h"
#include "harness.h"

int main() {
  using namespace easybo;
  using namespace easybo::bench;

  const auto circuit_bench = circuit::make_opamp_benchmark();
  const std::size_t runs = env_size("EASYBO_RUNS", 3);
  const std::size_t sims = env_size("EASYBO_SIMS", circuit_bench.max_sims);

  auto base = [&] {
    bo::BoConfig c;
    c.mode = bo::Mode::AsyncBatch;
    c.acq = bo::AcqKind::EasyBo;
    c.penalize = true;
    c.batch = 5;
    c.init_points = circuit_bench.init_points;
    c.max_sims = sims;
    apply_bench_budgets(c);
    return c;
  };

  struct Case {
    const char* label;
    bool inject;
    bo::EvalFailurePolicy policy;
    std::size_t retries;
  };
  const std::vector<Case> cases = {
      {"clean/abort", false, bo::EvalFailurePolicy::Abort, 0},
      {"faulty/discard", true, bo::EvalFailurePolicy::Discard, 0},
      {"faulty/penalize", true, bo::EvalFailurePolicy::Penalize, 0},
      {"faulty/discard+r2", true, bo::EvalFailurePolicy::Discard, 2},
      {"faulty/penalize+r2", true, bo::EvalFailurePolicy::Penalize, 2},
  };

  std::printf(
      "=== Failure policies (op-amp, async B = 5, every 10th sim call "
      "crashes, %zu runs, %zu sims) ===\n\n",
      runs, sims);

  AsciiTable table({"Case", "Best", "Worst", "Mean", "Std", "Failures",
                    "Retries", "Time"});
  for (const auto& kase : cases) {
    auto config = base();
    config.on_eval_failure = kase.policy;
    config.eval_max_retries = kase.retries;

    std::vector<double> best;
    obs::MetricsReport merged;
    double makespan = 0.0;
    for (std::size_t r = 0; r < runs; ++r) {
      config.seed = 1000 + r;
      circuit::FaultPlan plan;
      if (kase.inject) plan.throw_every = 10;
      circuit::FaultInjector injector(plan);
      const opt::Objective fn = kase.inject
                                    ? injector.wrap(circuit_bench.fom)
                                    : circuit_bench.fom;
      obs::RecordingSink recorder;  // the failure and retry counters
      bo::BoEngine engine(config, circuit_bench.bounds, fn,
                          [&](const linalg::Vec& x) {
                            return circuit_bench.sim_time(x);
                          });
      engine.set_trace(&recorder);
      const auto result = engine.run();
      best.push_back(result.best_y);
      makespan += result.makespan;
      merged.merge(result.metrics);
    }

    const Summary s = summarize(best);
    table.add_row({kase.label, format_double(s.best, 2),
                   format_double(s.worst, 2), format_double(s.mean, 2),
                   format_double(s.stddev, 2),
                   std::to_string(merged.counter("eval.failures")),
                   std::to_string(merged.counter("eval.retries")),
                   format_duration(makespan / double(runs))});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Failures/Retries are totals over the %zu runs. See "
      "docs/failure-model.md for the policy semantics and EXPERIMENTS.md "
      "for the CLI recipe.\n",
      runs);
  return 0;
}
