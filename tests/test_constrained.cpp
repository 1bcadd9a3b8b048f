// Tests for constrained EasyBO (bo/constrained.h) — the feasibility
// results, and constrained runs on the shared engine machinery (thread
// executor, failure policies, checkpoint files) — and the BUCB / LP
// extension acquisitions in the engine.

#include "bo/constrained.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/error.h"
#include "common/stats.h"
#include "temp_dir.h"

namespace easybo::bo {
namespace {

using tests::temp_dir;

BoConfig quick_config(std::uint64_t seed) {
  BoConfig c;
  c.mode = Mode::AsyncBatch;
  c.acq = AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 4;
  c.init_points = 12;
  c.max_sims = 60;
  c.seed = seed;
  c.acq_opt.sobol_candidates = 128;
  c.acq_opt.random_candidates = 64;
  c.acq_opt.refine_evals = 60;
  c.trainer.max_iters = 20;
  c.trainer.restarts = 1;
  return c;
}

// Maximize x+y on [0,1]^2 subject to x + y <= 1 (feasible optimum: the
// x+y=1 line, value 1).
TEST(ConstrainedBo, FindsConstrainedOptimumOnSimplex) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};

  const auto r = run_constrained_bo(quick_config(1), bounds, objective, cons);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_GT(r.best_y, 0.9);
  EXPECT_LE(r.best_y, 1.0 + 1e-9);
  EXPECT_GE(r.best_constraints[0], 0.0);
}

TEST(ConstrainedBo, BestIsActuallyFeasible) {
  // Unconstrained optimum of the sphere is at 0, but we require x0 >= 1:
  // the feasible optimum sits on the constraint boundary.
  opt::Bounds bounds{{-3.0, -3.0}, {3.0, 3.0}};
  auto objective = [](const linalg::Vec& x) {
    return -(x[0] * x[0] + x[1] * x[1]);
  };
  std::vector<Constraint> cons = {
      {"x0>=1", [](const linalg::Vec& x) { return x[0] - 1.0; }}};

  const auto r = run_constrained_bo(quick_config(2), bounds, objective, cons);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_GE(r.best_x[0], 1.0 - 1e-9);
  // Feasible optimum is -1 (at x = (1, 0)).
  EXPECT_GT(r.best_y, -1.6);
}

TEST(ConstrainedBo, MultipleConstraintsAllRespected) {
  opt::Bounds bounds{{0.0, 0.0}, {2.0, 2.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] * x[1]; };
  std::vector<Constraint> cons = {
      {"x0<=1.5", [](const linalg::Vec& x) { return 1.5 - x[0]; }},
      {"x1<=1.0", [](const linalg::Vec& x) { return 1.0 - x[1]; }},
  };
  const auto r = run_constrained_bo(quick_config(3), bounds, objective, cons);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_LE(r.best_x[0], 1.5 + 1e-9);
  EXPECT_LE(r.best_x[1], 1.0 + 1e-9);
  EXPECT_GT(r.best_y, 1.0);  // feasible max is 1.5
}

TEST(ConstrainedBo, ReportsInfeasibleWhenNothingSatisfies) {
  opt::Bounds bounds{{0.0}, {1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0]; };
  // Impossible constraint.
  std::vector<Constraint> cons = {
      {"impossible", [](const linalg::Vec&) { return -1.0; }}};
  auto cfg = quick_config(4);
  cfg.max_sims = 30;
  const auto r = run_constrained_bo(cfg, bounds, objective, cons);
  EXPECT_FALSE(r.found_feasible);
  EXPECT_EQ(r.num_feasible, 0u);
  EXPECT_EQ(r.num_evals(), 30u);
}

TEST(ConstrainedBo, SequentialModeWorks) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};
  auto cfg = quick_config(5);
  cfg.mode = Mode::Sequential;
  cfg.batch = 1;
  const auto r = run_constrained_bo(cfg, bounds, objective, cons);
  EXPECT_TRUE(r.found_feasible);
  EXPECT_GT(r.best_y, 0.85);
}

TEST(ConstrainedBo, RejectsBadSetups) {
  opt::Bounds bounds{{0.0}, {1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0]; };
  std::vector<Constraint> cons = {
      {"ok", [](const linalg::Vec&) { return 1.0; }}};

  EXPECT_THROW(run_constrained_bo(quick_config(6), bounds, objective, {}),
               InvalidArgument);
  auto sync = quick_config(7);
  sync.mode = Mode::SyncBatch;
  EXPECT_THROW(run_constrained_bo(sync, bounds, objective, cons),
               InvalidArgument);
  std::vector<Constraint> null_con = {{"null", nullptr}};
  EXPECT_THROW(
      run_constrained_bo(quick_config(8), bounds, objective, null_con),
      InvalidArgument);
}

// The loop routes every proposal through bo::dedup_proposal, as the
// ask/tell core does: with the optimum on the constraint boundary the
// incumbent anchor survives refinement and concurrent maxima coincide, so
// without it this run evaluates dozens of exact repeats.
TEST(ConstrainedBo, NeverEvaluatesAPointTwice) {
  opt::Bounds bounds{{-3.0, -3.0}, {3.0, 3.0}};
  auto objective = [](const linalg::Vec& x) {
    return -(x[0] * x[0] + x[1] * x[1]);
  };
  std::vector<Constraint> cons = {
      {"x0>=1", [](const linalg::Vec& x) { return x[0] - 1.0; }}};

  const auto r = run_constrained_bo(quick_config(2), bounds, objective, cons);
  ASSERT_EQ(r.num_evals(), 60u);
  for (std::size_t i = 0; i < r.num_evals(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      double d2 = 0.0;  // squared distance in the unit cube dedup works in
      for (std::size_t k = 0; k < 2; ++k) {
        const double s = (r.evals[i].x[k] - r.evals[j].x[k]) / 6.0;
        d2 += s * s;
      }
      EXPECT_GE(d2, 1e-12) << "evaluations " << j << " and " << i;
    }
  }
}

TEST(ConstrainedBo, DeterministicForFixedSeed) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};
  const auto a = run_constrained_bo(quick_config(9), bounds, objective, cons);
  const auto b = run_constrained_bo(quick_config(9), bounds, objective, cons);
  EXPECT_DOUBLE_EQ(a.best_y, b.best_y);
  EXPECT_EQ(a.num_feasible, b.num_feasible);
}

// ---------------------------------------------------------------------------
// Constrained runs on the shared engine machinery
// ---------------------------------------------------------------------------

// Maximize x+y subject to x + y <= 1, where the constraint's simulator
// returns NaN for x > 0.8.
std::vector<Constraint> sum_le_1_nan_above(double x_max) {
  return {{"sum<=1", [x_max](const linalg::Vec& x) {
             return x[0] > x_max ? std::numeric_limits<double>::quiet_NaN()
                                 : 1.0 - x[0] - x[1];
           }}};
}

TEST(ConstrainedEngine, SequentialOnThreadsProposesTheVirtualStream) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  const std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};
  auto cfg = quick_config(13);
  cfg.mode = Mode::Sequential;
  cfg.max_sims = 30;

  const BoResult virt = BoEngine(cfg, bounds, objective, nullptr, cons).run();
  sched::ThreadExecutor exec(1);
  BoEngine threaded(cfg, bounds, objective, nullptr, cons);
  const BoResult real = threaded.run(exec);
  ASSERT_EQ(real.num_evals(), virt.num_evals());
  for (std::size_t i = 0; i < virt.num_evals(); ++i) {
    EXPECT_EQ(real.evals[i].x, virt.evals[i].x) << "eval " << i;
    EXPECT_EQ(real.evals[i].y, virt.evals[i].y) << "eval " << i;
    EXPECT_EQ(real.evals[i].g, virt.evals[i].g) << "eval " << i;
  }
  EXPECT_EQ(real.best_x, virt.best_x);
}

// Concurrent evaluations on four threads: each record's constraint
// value belongs to its own point, never to a neighbour's evaluation.
TEST(ConstrainedEngine, AsyncOnThreadsKeepsEachPointsConstraintValues) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  const std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};
  auto cfg = quick_config(14);
  cfg.max_sims = 30;
  sched::ThreadExecutor exec(4);
  BoEngine engine(cfg, bounds, objective, nullptr, cons);
  const BoResult r = engine.run(exec);
  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  for (const EvalRecord& e : r.evals) {
    ASSERT_EQ(e.g.size(), 1u);
    EXPECT_EQ(e.g[0], 1.0 - e.x[0] - e.x[1]);
  }
}

// A non-finite constraint value fails its evaluation exactly as a
// non-finite objective would: under discard the point is recorded failed
// and no model sees it, so every model target stays finite.
TEST(ConstrainedEngine, NonFiniteConstraintIsAFailedEvaluation) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  auto cfg = quick_config(1);
  cfg.on_eval_failure = EvalFailurePolicy::Discard;
  cfg.checkpoint_path = temp_dir("nan_discard") + "/run";

  BoEngine engine(cfg, bounds, objective, nullptr, sum_le_1_nan_above(0.8));
  const BoResult r = engine.run();
  std::size_t failed = 0;
  for (const EvalRecord& e : r.evals) {
    EXPECT_EQ(e.failed, e.x[0] > 0.8) << "x0 = " << e.x[0];
    if (e.failed) {
      ++failed;
      EXPECT_EQ(e.failure, "non_finite");
      EXPECT_TRUE(e.g.empty());
    } else {
      ASSERT_EQ(e.g.size(), 1u);
      EXPECT_TRUE(std::isfinite(e.g[0]));
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(total_violation(engine.core().best_g()), 0.0);  // feasible
  EXPECT_LE(r.best_x[0], 0.8);

  // The final model state, as a snapshot would hold it.
  const BoCheckpoint snap = engine.core().make_snapshot();
  ASSERT_EQ(snap.obs_g.size(), snap.obs_x.size());
  EXPECT_EQ(snap.obs_x.size() + failed, r.num_evals());
  EXPECT_EQ(snap.failed_x.size(), failed);
  for (std::size_t k = 0; k < snap.obs_x.size(); ++k) {
    EXPECT_TRUE(std::isfinite(snap.obs_y[k])) << "observation " << k;
    EXPECT_TRUE(std::isfinite(snap.obs_g[k][0])) << "observation " << k;
  }
}

TEST(ConstrainedEngine, NonFiniteConstraintAbortsUnderTheDefaultPolicy) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  EXPECT_THROW(run_constrained_bo(quick_config(1), bounds, objective,
                                  sum_le_1_nan_above(0.8)),
               Error);
}

// Under penalize each constraint model receives its own
// eval_failure_quantile, and a penalty pseudo point never becomes the
// incumbent.
TEST(ConstrainedEngine, PenalizeGivesEachConstraintModelItsQuantile) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  auto cfg = quick_config(3);
  cfg.on_eval_failure = EvalFailurePolicy::Penalize;
  cfg.eval_failure_quantile = 0.75;
  cfg.checkpoint_path = temp_dir("nan_penalize") + "/run";

  BoEngine engine(cfg, bounds, objective, nullptr, sum_le_1_nan_above(0.6));
  const BoResult r = engine.run();
  const BoCheckpoint snap = engine.core().make_snapshot();
  ASSERT_EQ(snap.obs_g.size(), snap.obs_x.size());
  ASSERT_EQ(snap.obs_penalized.size(), snap.obs_x.size());
  std::size_t penalized = 0;
  for (std::size_t k = 0; k < snap.obs_x.size(); ++k) {
    if (!snap.obs_penalized[k]) continue;
    ++penalized;
    Vec ys(snap.obs_y.begin(), snap.obs_y.begin() + k);
    Vec gs;
    for (std::size_t j = 0; j < k; ++j) gs.push_back(snap.obs_g[j][0]);
    EXPECT_EQ(snap.obs_y[k], quantile_of(ys, 0.75)) << "observation " << k;
    EXPECT_EQ(snap.obs_g[k][0], quantile_of(gs, 0.75)) << "observation " << k;
  }
  EXPECT_GT(penalized, 0u);
  ASSERT_EQ(total_violation(engine.core().best_g()), 0.0);  // feasible
  EXPECT_LE(r.best_x[0], 0.6);
  EXPECT_LE(r.best_y, 1.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// BUCB / LP extension acquisitions through the engine
// ---------------------------------------------------------------------------

TEST(ExtensionAcq, BucbRunsInBothBatchModes) {
  const auto tf = easybo::circuit::sphere(2);
  for (Mode mode : {Mode::SyncBatch, Mode::AsyncBatch}) {
    auto cfg = quick_config(10);
    cfg.acq = AcqKind::Bucb;
    cfg.mode = mode;
    const auto r = run_bo(cfg, tf.bounds, tf.fn);
    EXPECT_EQ(r.num_evals(), cfg.max_sims);
    EXPECT_GT(r.best_y, -1.0) << to_string(mode);
  }
}

TEST(ExtensionAcq, LpRunsAndConverges) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick_config(11);
  cfg.acq = AcqKind::Lp;
  cfg.mode = Mode::AsyncBatch;
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  EXPECT_EQ(r.num_evals(), cfg.max_sims);
  EXPECT_GT(r.best_y, -1.0);
}

TEST(ExtensionAcq, LabelsAndValidation) {
  auto cfg = quick_config(12);
  cfg.acq = AcqKind::Bucb;
  cfg.mode = Mode::AsyncBatch;
  cfg.batch = 7;
  EXPECT_EQ(cfg.label(), "BUCB-7");
  cfg.acq = AcqKind::Lp;
  EXPECT_EQ(cfg.label(), "LP-7");
  cfg.mode = Mode::Sequential;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

}  // namespace
}  // namespace easybo::bo
