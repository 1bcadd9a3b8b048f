// Tests for the public entry points a user starts from: problem and config
// validation, bo::run_bo on virtual time, and bo::BoEngine on a
// sched::ThreadExecutor for real threads — including an executor that
// outlives its engine.

#include "core/easybo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/error.h"

namespace easybo {
namespace {

const circuit::TestFunction& sphere2() {
  static const circuit::TestFunction tf = circuit::sphere(2);
  return tf;
}

bo::BoConfig quick_config() {
  bo::BoConfig c;
  c.mode = bo::Mode::AsyncBatch;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 3;
  c.init_points = 8;
  c.max_sims = 24;
  c.seed = 2;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 40;
  c.trainer.max_iters = 15;
  c.trainer.restarts = 1;
  return c;
}

/// One engine run on \p threads real workers; the worker count, not
/// config.batch, is the degree of parallelism.
bo::BoResult run_on_threads(const bo::BoConfig& config,
                            const opt::Objective& objective,
                            std::size_t threads,
                            const opt::Bounds& bounds = sphere2().bounds) {
  bo::BoEngine engine(config, bounds, objective);
  sched::ThreadExecutor executor(threads);
  return engine.run(executor);
}

TEST(Problem, ValidatesEagerly) {
  // A problem is an objective over a box; BoEngine refuses a null
  // objective or a degenerate box at construction, before any evaluation.
  std::atomic<int> calls{0};
  const opt::Objective counted = [&calls](const linalg::Vec& x) {
    ++calls;
    return sphere2().fn(x);
  };
  EXPECT_NO_THROW(bo::BoEngine(quick_config(), sphere2().bounds, counted));
  EXPECT_THROW(bo::BoEngine(quick_config(), sphere2().bounds, nullptr),
               InvalidArgument);
  opt::Bounds flat = sphere2().bounds;
  flat.lower[0] = flat.upper[0];
  EXPECT_THROW(bo::BoEngine(quick_config(), flat, counted), InvalidArgument);
  EXPECT_EQ(calls.load(), 0);
}

TEST(Optimizer, RunsVirtualTime) {
  const auto r = bo::run_bo(quick_config(), sphere2().bounds, sphere2().fn);
  EXPECT_EQ(r.num_evals(), 24u);
  EXPECT_GT(r.best_y, -3.0);
  // Null sim_time -> every evaluation costs 1 virtual second.
  for (const auto& e : r.evals) {
    EXPECT_NEAR(e.finish - e.start, 1.0, 1e-12);
  }
}

TEST(Optimizer, ConstructionValidates) {
  // A bad config is refused before a single evaluation runs.
  std::atomic<int> calls{0};
  const opt::Objective counted = [&calls](const linalg::Vec& x) {
    ++calls;
    return sphere2().fn(x);
  };
  auto cfg = quick_config();
  cfg.max_sims = 4;  // below init_points
  EXPECT_THROW(bo::BoEngine(cfg, sphere2().bounds, counted), InvalidArgument);
  EXPECT_THROW(bo::run_bo(cfg, sphere2().bounds, counted), InvalidArgument);
  EXPECT_EQ(calls.load(), 0);
}

TEST(OptimizeParallel, RunsWithRealThreads) {
  // Objective sleeps a few ms so evaluations genuinely overlap.
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  const auto base = sphere2().fn;
  const opt::Objective fn = [&, base](const linalg::Vec& x) {
    const int now = ++concurrent;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    --concurrent;
    return base(x);
  };

  const auto r = run_on_threads(quick_config(), fn, 3);
  EXPECT_EQ(r.num_evals(), 24u);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.best_y, -3.0);
  // With 3 workers and a 3 ms objective, some overlap must have occurred.
  EXPECT_GE(peak.load(), 2);
  // Worker slots within range; start/finish ordered.
  for (const auto& e : r.evals) {
    EXPECT_LT(e.worker, 3u);
    EXPECT_LE(e.start, e.finish);
  }
}

TEST(OptimizeParallel, RunsFullAcquisitionRoster) {
  // Pre-seam, the hand-rolled real-threads loop supported only async
  // EasyBO; through the shared engine every batch configuration runs on
  // real threads too.
  struct Case {
    bo::Mode mode;
    bo::AcqKind acq;
  };
  for (const Case& c : {Case{bo::Mode::AsyncBatch, bo::AcqKind::Bucb},
                        Case{bo::Mode::SyncBatch, bo::AcqKind::EasyBo}}) {
    auto cfg = quick_config();
    cfg.mode = c.mode;
    cfg.acq = c.acq;
    const auto r = run_on_threads(cfg, sphere2().fn, 2);
    EXPECT_EQ(r.num_evals(), 24u) << bo::to_string(c.acq);
    for (const auto& e : r.evals) EXPECT_LT(e.worker, 2u);
  }
}

TEST(OptimizeParallel, ThrowingObjectiveAbortsRunWithThatException) {
  // Regression: the pre-seam loop discarded the worker future, so a
  // throwing objective never produced a completion and the proposer
  // blocked forever. Now the exception must surface to the caller.
  std::atomic<int> calls{0};
  const auto base = sphere2().fn;
  const opt::Objective fn = [&calls, base](const linalg::Vec& x) {
    if (++calls == 5) throw std::runtime_error("simulator crashed");
    return base(x);
  };
  EXPECT_THROW(run_on_threads(quick_config(), fn, 3), std::runtime_error);
}

TEST(OptimizeParallel, DiscardPolicySurvivesThrowingObjective) {
  // Same crashing objective as above, but with the fault-tolerant policy
  // switched on: the run must complete its full budget on real threads
  // with the crashes recorded as failed evals instead of aborting.
  std::atomic<int> calls{0};
  const auto base = sphere2().fn;
  const opt::Objective fn = [&calls, base](const linalg::Vec& x) {
    if (++calls % 5 == 0) throw std::runtime_error("simulator crashed");
    return base(x);
  };
  auto cfg = quick_config();
  cfg.on_eval_failure = bo::EvalFailurePolicy::Discard;
  const auto r = run_on_threads(cfg, fn, 3);
  EXPECT_EQ(r.num_evals(), cfg.max_sims);
  std::size_t failed = 0;
  for (const auto& e : r.evals) failed += e.failed;
  EXPECT_EQ(failed, cfg.max_sims / 5);
  EXPECT_TRUE(std::isfinite(r.best_y));
}

TEST(OptimizeParallel, ConstantObjectiveWithTightBoundsCompletes) {
  // Regression: the pre-seam loop skipped proposal dedup, so a constant
  // objective (every acquisition maximizer lands on the same point in a
  // tiny box) pushed duplicate rows into the Gram matrix until the
  // Cholesky jitter escalation gave up. The shared engine nudges
  // duplicates, so the run must finish without NumericalError.
  const opt::Bounds tiny{{0.0, 0.0}, {1e-4, 1e-4}};
  const auto r = run_on_threads(
      quick_config(), [](const linalg::Vec&) { return 1.0; }, 2, tiny);
  EXPECT_EQ(r.num_evals(), 24u);
  EXPECT_DOUBLE_EQ(r.best_y, 1.0);
}

TEST(OptimizeParallel, FindsSameQualityAsVirtual) {
  const auto virt =
      bo::run_bo(quick_config(), sphere2().bounds, sphere2().fn);
  const auto real = run_on_threads(quick_config(), sphere2().fn, 2);
  // Different schedules, same machinery: both should be in the same
  // quality regime on an easy problem.
  EXPECT_GT(real.best_y, virt.best_y - 2.0);
}

TEST(OptimizeParallel, ExecutorMayOutliveItsEngine) {
  // The executor is declared first, so it outlives the engine. The second
  // objective call throws under the default Abort policy while calls 1
  // and 3 are held inside the objective; run() rethrows and the engine is
  // destroyed. Only then are the siblings released, to finish while the
  // executor drains. They must touch only what their work owns.
  std::atomic<int> calls{0};
  std::atomic<int> finished{0};
  std::atomic<bool> engine_gone{false};
  {
    sched::ThreadExecutor executor(3);
    const auto base = sphere2().fn;
    auto engine = std::make_unique<bo::BoEngine>(
        quick_config(), sphere2().bounds,
        [&calls, &finished, &engine_gone, base](const linalg::Vec& x) {
          if (++calls == 2) throw std::runtime_error("simulator crashed");
          for (int ms = 0; ms < 10000 && !engine_gone.load(); ++ms) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          ++finished;
          return base(x);
        });
    EXPECT_THROW(engine->run(executor), std::runtime_error);
    engine.reset();
    engine_gone.store(true);
  }
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(finished.load(), 2);
}

}  // namespace
}  // namespace easybo
