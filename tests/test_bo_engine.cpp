// Tests for the BO engine: convergence across all algorithm
// configurations, scheduling/accounting invariants, reproducibility, and
// the algorithm-level properties the paper claims (batch diversity under
// penalization, async never slower than sync at equal budgets).

#include "bo/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "circuit/fault_injection.h"
#include "circuit/testfunc.h"
#include "common/error.h"
#include "common/rng.h"

namespace easybo::bo {
namespace {

/// Small-budget config for fast tests.
BoConfig quick(Mode mode, AcqKind acq, bool penalize, std::size_t batch,
               std::uint64_t seed) {
  BoConfig c;
  c.mode = mode;
  c.acq = acq;
  c.penalize = penalize;
  c.batch = batch;
  c.init_points = 10;
  c.max_sims = 40;
  c.seed = seed;
  // Slim the inner loops: the landscape below is 2-D and easy.
  c.acq_opt.sobol_candidates = 128;
  c.acq_opt.random_candidates = 64;
  c.acq_opt.refine_evals = 60;
  c.trainer.max_iters = 20;
  c.trainer.restarts = 1;
  return c;
}

/// Runs \p engine (on \p exec when given, else on its own virtual
/// executor) with an obs::RecordingSink installed, so BoResult::metrics
/// holds the run report.
BoResult run_recorded(BoEngine& engine, sched::Executor* exec = nullptr) {
  obs::RecordingSink sink;
  engine.set_trace(&sink);
  BoResult r = exec != nullptr ? engine.run(*exec) : engine.run();
  engine.set_trace(nullptr);
  return r;
}

TEST(BoEngine, SequentialEasyBoSolvesBranin) {
  const auto tf = easybo::circuit::branin();
  auto cfg = quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 1);
  cfg.max_sims = 60;
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  EXPECT_NEAR(r.best_y, tf.max_value, 0.05);
}

TEST(BoEngine, EiAndLcbAlsoConverge) {
  const auto tf = easybo::circuit::branin();
  for (AcqKind acq : {AcqKind::Ei, AcqKind::Lcb}) {
    auto cfg = quick(Mode::Sequential, acq, false, 1, 2);
    cfg.max_sims = 60;
    const auto r = run_bo(cfg, tf.bounds, tf.fn);
    EXPECT_NEAR(r.best_y, tf.max_value, 0.2)
        << "acq=" << to_string(acq);
  }
}

// All batch algorithm configurations converge reasonably on an easy
// landscape and satisfy the structural invariants.
struct AlgoCase {
  const char* name;
  Mode mode;
  AcqKind acq;
  bool penalize;
};

// Print a case by its name. Without this gtest prints the struct's raw
// bytes, which include the address of `name`, so the test names that
// gtest_discover_tests registers would change from one build to the next.
void PrintTo(const AlgoCase& c, std::ostream* os) { *os << c.name; }

class BatchAlgos : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(BatchAlgos, RunsAndSatisfiesInvariants) {
  const auto& p = GetParam();
  const auto tf = easybo::circuit::sphere(2);
  const auto cfg = quick(p.mode, p.acq, p.penalize, 4, 3);
  const auto r = run_bo(cfg, tf.bounds, tf.fn);

  // Budget exactly honored.
  EXPECT_EQ(r.num_evals(), cfg.max_sims);
  // Init points flagged.
  std::size_t inits = 0;
  for (const auto& e : r.evals) inits += e.is_init;
  EXPECT_EQ(inits, cfg.init_points);
  // Times sane: starts < finishes <= makespan; worker ids in range.
  for (const auto& e : r.evals) {
    EXPECT_LT(e.start, e.finish);
    EXPECT_LE(e.finish, r.makespan + 1e-9);
    EXPECT_LT(e.worker, cfg.batch);
  }
  // Accounting: total sim time = sum of durations; utilization in (0, 1].
  double total = 0.0;
  for (const auto& e : r.evals) total += e.finish - e.start;
  EXPECT_NEAR(total, r.total_sim_time, 1e-6);
  EXPECT_GT(r.utilization(cfg.batch), 0.0);
  EXPECT_LE(r.utilization(cfg.batch), 1.0 + 1e-12);
  // best_y consistent with the evals.
  double best = r.evals.front().y;
  for (const auto& e : r.evals) best = std::max(best, e.y);
  EXPECT_DOUBLE_EQ(best, r.best_y);
  // Converged decently on the easy sphere.
  EXPECT_GT(r.best_y, -1.0);
}

TEST_P(BatchAlgos, ReproducibleForFixedSeed) {
  const auto& p = GetParam();
  const auto tf = easybo::circuit::sphere(2);
  const auto cfg = quick(p.mode, p.acq, p.penalize, 4, 7);
  const auto a = run_bo(cfg, tf.bounds, tf.fn);
  const auto b = run_bo(cfg, tf.bounds, tf.fn);
  EXPECT_DOUBLE_EQ(a.best_y, b.best_y);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.num_evals(), b.num_evals());
  for (std::size_t i = 0; i < a.num_evals(); ++i) {
    EXPECT_EQ(a.evals[i].x, b.evals[i].x);
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, BatchAlgos,
    ::testing::Values(AlgoCase{"pBO", Mode::SyncBatch, AcqKind::Pbo, false},
                      AlgoCase{"pHCBO", Mode::SyncBatch, AcqKind::Phcbo,
                               false},
                      AlgoCase{"EasyBO_S", Mode::SyncBatch, AcqKind::EasyBo,
                               false},
                      AlgoCase{"EasyBO_SP", Mode::SyncBatch,
                               AcqKind::EasyBo, true},
                      AlgoCase{"EasyBO_A", Mode::AsyncBatch,
                               AcqKind::EasyBo, false},
                      AlgoCase{"EasyBO", Mode::AsyncBatch, AcqKind::EasyBo,
                               true}),
    [](const ::testing::TestParamInfo<AlgoCase>& info) {
      return info.param.name;
    });

TEST(BoEngine, AsyncMakespanNeverExceedsSyncAtEqualBudget) {
  // The paper's core scheduling claim, on a heterogeneous sim-time model.
  const auto tf = easybo::circuit::sphere(3);
  auto sim = [](const linalg::Vec& x) {
    return 1.0 + 5.0 * std::abs(std::sin(40.0 * x[0]));
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto sync_cfg = quick(Mode::SyncBatch, AcqKind::EasyBo, true, 5, seed);
    auto async_cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 5, seed);
    const auto sync = run_bo(sync_cfg, tf.bounds, tf.fn, sim);
    const auto async = run_bo(async_cfg, tf.bounds, tf.fn, sim);
    // Not an exact theorem per-seed (different proposals -> different
    // durations), but utilization must structurally favor async.
    EXPECT_GT(async.utilization(5), sync.utilization(5) - 0.02)
        << "seed " << seed;
  }
}

TEST(BoEngine, PenalizationKeepsBatchDiverse) {
  // EasyBO-SP vs EasyBO-S: within each synchronous batch, the penalized
  // variant must keep query points separated. We measure the minimum
  // intra-batch distance across the run.
  const auto tf = easybo::circuit::sphere(2);

  auto min_intra_batch_dist = [&](bool penalize) {
    auto cfg = quick(Mode::SyncBatch, AcqKind::EasyBo, penalize, 5, 11);
    cfg.max_sims = 35;
    const auto r = run_bo(cfg, tf.bounds, tf.fn);
    // Batches start after the 10 init points, in groups of 5 by start time.
    double min_dist = 1e300;
    for (std::size_t b = cfg.init_points; b + 5 <= r.num_evals(); b += 5) {
      for (std::size_t i = b; i < b + 5; ++i) {
        for (std::size_t j = i + 1; j < b + 5; ++j) {
          min_dist = std::min(
              min_dist, easybo::linalg::dist(r.evals[i].x, r.evals[j].x));
        }
      }
    }
    return min_dist;
  };

  EXPECT_GT(min_intra_batch_dist(true), 1e-6);
}

TEST(BoEngine, SequentialForcesOneWorker) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 5);
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  for (const auto& e : r.evals) EXPECT_EQ(e.worker, 0u);
  // Sequential: no two evaluations overlap in time.
  for (std::size_t i = 1; i < r.num_evals(); ++i) {
    EXPECT_GE(r.evals[i].start, r.evals[i - 1].finish - 1e-9);
  }
  EXPECT_NEAR(r.utilization(1), 1.0, 1e-9);
}

TEST(BoEngine, BestVsTimeSeriesIsMonotone) {
  const auto tf = easybo::circuit::sphere(2);
  const auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 4, 6);
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  const auto series = r.best_vs_time();
  ASSERT_EQ(series.size(), r.num_evals());
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].first, series[i - 1].first);
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, r.best_y);
}

TEST(BoEngine, TimeToTargetSemantics) {
  const auto tf = easybo::circuit::sphere(1);
  const auto cfg = quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 8);
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  // A target below the first observation is reached at the first finish.
  const auto series = r.best_vs_time();
  EXPECT_DOUBLE_EQ(r.time_to_target(series.front().second),
                   series.front().first);
  // An unreachable target reports failure.
  EXPECT_LT(r.time_to_target(1e9), 0.0);
}

TEST(BoEngine, RunIsSingleUse) {
  const auto tf = easybo::circuit::sphere(1);
  BoEngine engine(quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 9),
                  tf.bounds, tf.fn);
  engine.run();
  EXPECT_THROW(engine.run(), InvalidArgument);
}

TEST(BoEngine, RejectsNullObjective) {
  const auto tf = easybo::circuit::sphere(1);
  EXPECT_THROW(BoEngine(quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 1),
                        tf.bounds, nullptr),
               InvalidArgument);
}

// A config whose first model proposal could only fail is refused when the
// engine is built, before a single simulation of the initial design runs.
TEST(BoEngine, RefusesConfigsThatCanNeverPropose) {
  const auto tf = easybo::circuit::sphere(2);
  BoConfig lcb = quick(Mode::Sequential, AcqKind::Lcb, false, 1, 1);
  lcb.lcb_kappa = -1.0;
  BoConfig iters = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 4, 1);
  iters.trainer.max_iters = 0;
  BoConfig restarts = iters;
  restarts.trainer.max_iters = 20;
  restarts.trainer.restarts = -1;
  BoConfig screening = restarts;
  screening.trainer.restarts = 1;
  screening.acq_opt.sobol_candidates = 0;
  screening.acq_opt.random_candidates = 0;
  for (const BoConfig& cfg : {lcb, iters, restarts, screening}) {
    EXPECT_THROW(BoEngine(cfg, tf.bounds, tf.fn), InvalidArgument);
  }
}

TEST(BoEngine, MaternKernelOptionWorks) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 10);
  cfg.kernel = "matern52";
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  EXPECT_GT(r.best_y, -2.0);
}

TEST(BoEngine, VirtualAndRealExecutorsProposeIdentically) {
  // The executor seam guarantees one algorithm, two backends: with a
  // deterministic objective and serialized completions (one worker on
  // each side), the virtual-time run and the real-threads run must make
  // exactly the same proposals for the same seed.
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 4, 21);
  cfg.init_points = 6;
  cfg.max_sims = 18;

  BoEngine virt_engine(cfg, tf.bounds, tf.fn);
  sched::VirtualExecutor virt_exec(1);
  const auto virt = virt_engine.run(virt_exec);

  BoEngine real_engine(cfg, tf.bounds, tf.fn);
  sched::ThreadExecutor real_exec(1);
  const auto real = real_engine.run(real_exec);

  ASSERT_EQ(virt.num_evals(), real.num_evals());
  for (std::size_t i = 0; i < virt.num_evals(); ++i) {
    EXPECT_EQ(virt.evals[i].x, real.evals[i].x) << "eval " << i;
    EXPECT_DOUBLE_EQ(virt.evals[i].y, real.evals[i].y) << "eval " << i;
  }
  EXPECT_DOUBLE_EQ(virt.best_y, real.best_y);
  EXPECT_EQ(virt.best_x, real.best_x);
  EXPECT_EQ(virt.hyper_refits, real.hyper_refits);
}

TEST(BoEngine, NoDuplicateQueryPointsUnderPenalization) {
  // The dedup guard + hallucination should prevent exact duplicates.
  const auto tf = easybo::circuit::sphere(2);
  const auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 4, 12);
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  std::set<std::vector<double>> seen;
  for (const auto& e : r.evals) seen.insert(e.x);
  EXPECT_EQ(seen.size(), r.num_evals());
}

TEST(DedupProposal, LeavesNonCollidingPointsAndTheirRngAlone) {
  Rng rng(3);
  const std::vector<linalg::Vec> observed = {{0.2, 0.2}};
  const linalg::Vec x = {0.7, 0.7};
  Rng reference(3);
  const auto out = dedup_proposal(x, observed, {}, rng);
  EXPECT_EQ(out, x);
  // No collision -> no RNG draws: later proposals stay seed-identical.
  EXPECT_DOUBLE_EQ(rng.uniform(), reference.uniform());
}

TEST(DedupProposal, ClearsBoundaryDuplicatesForEverySeed) {
  // Regression: the old single clamped Gaussian nudge could land right
  // back on a duplicate sitting on the unit-cube boundary — from the
  // corner {1,1}, any nudge with two non-negative draws clamps back to
  // {1,1} (~25% of seeds). The retry + uniform-resample fallback must
  // clear every seed.
  const linalg::Vec corner = {1.0, 1.0};
  const std::vector<linalg::Vec> observed = {corner};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const auto out = dedup_proposal(corner, observed, {}, rng);
    EXPECT_GT(linalg::dist_sq(out, corner), 1e-12) << "seed " << seed;
    for (double v : out) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(DedupProposal, ChecksPendingPointsAndCountsNudges) {
  obs::RecordingSink sink;
  Rng rng(4);
  const linalg::Vec x = {0.5, 0.5};
  const std::vector<linalg::Vec> pending = {x};
  const auto out = dedup_proposal(x, {}, pending, rng, &sink);
  EXPECT_GT(linalg::dist_sq(out, x), 1e-12);
  EXPECT_GE(sink.counter("bo.dedup_nudge"), 1u);
}

TEST(BoEngine, MetricsCollectionIsBehaviorallyInert) {
  // Recording metrics must not change a single proposal: the
  // instrumentation draws no RNG and takes no branch that depends on it.
  const auto tf = easybo::circuit::sphere(2);
  const auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 4, 17);
  const auto plain = run_bo(cfg, tf.bounds, tf.fn);
  BoEngine engine(cfg, tf.bounds, tf.fn);
  const auto traced = run_recorded(engine);

  EXPECT_TRUE(plain.metrics.empty());
  EXPECT_FALSE(traced.metrics.empty());
  ASSERT_EQ(plain.num_evals(), traced.num_evals());
  for (std::size_t i = 0; i < plain.num_evals(); ++i) {
    EXPECT_EQ(plain.evals[i].x, traced.evals[i].x) << "eval " << i;
  }
  EXPECT_DOUBLE_EQ(plain.best_y, traced.best_y);
  EXPECT_DOUBLE_EQ(plain.makespan, traced.makespan);
}

TEST(BoEngine, MetricsReportAccountsTheRun) {
  // Sequential run with the refit schedule pushed past the horizon: one
  // forced MLE training after the init design, then every later update is
  // exactly one incremental Cholesky extend. This pins the engine-level
  // counter totals to the run structure.
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 23);
  cfg.refit_every = 1000;
  BoEngine engine(cfg, tf.bounds, tf.fn);
  const auto r = run_recorded(engine);
  const auto& m = r.metrics;
  const std::uint64_t proposals = cfg.max_sims - cfg.init_points;

  EXPECT_EQ(m.counter("bo.hyper_refit"), r.hyper_refits);
  EXPECT_EQ(r.hyper_refits, 1u);
  EXPECT_EQ(m.counter("bo.proposals.EasyBO"), proposals);
  EXPECT_EQ(m.counter("gp.chol_extend"), proposals);
  EXPECT_GE(m.counter("gp.chol_refactor"), 1u);  // inside train_mle
  EXPECT_GT(m.counter("acq.inner_evals"), 0u);

  // Phase accounting: the init design ran once, the MLE training once,
  // one acquisition maximization per proposal, and the executor clock
  // booked every evaluation (1 virtual second each by default).
  EXPECT_EQ(m.phases[static_cast<std::size_t>(obs::Phase::InitDesign)].spans,
            1u);
  EXPECT_EQ(m.phases[static_cast<std::size_t>(obs::Phase::HyperRefit)].spans,
            1u);
  EXPECT_EQ(
      m.phases[static_cast<std::size_t>(obs::Phase::AcqMaximize)].spans,
      proposals);
  EXPECT_DOUBLE_EQ(m.phase_seconds("objective_eval"),
                   static_cast<double>(cfg.max_sims));
  EXPECT_GT(m.phase_seconds("model_fit"), 0.0);

  // Worker stats grafted from the executor: one worker, fully busy.
  ASSERT_EQ(m.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(m.workers[0].busy_seconds,
                   static_cast<double>(cfg.max_sims));
  EXPECT_NEAR(m.workers[0].idle_seconds, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.makespan_seconds, r.makespan);
}

TEST(BoEngine, ExternalRecordingSinkPopulatesMetricsToo) {
  // The caller keeps its RecordingSink: the engine fills BoResult::metrics
  // from it and leaves the sink's own totals readable after the run.
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::Sequential, AcqKind::EasyBo, false, 1, 29);
  BoEngine engine(cfg, tf.bounds, tf.fn);
  obs::RecordingSink sink;
  engine.set_trace(&sink);
  const auto r = engine.run();
  EXPECT_FALSE(r.metrics.empty());
  EXPECT_EQ(sink.counter("bo.hyper_refit"), r.hyper_refits);
  EXPECT_EQ(r.metrics.counter("bo.hyper_refit"), r.hyper_refits);
}

// ---------------------------------------------------------------------------
// Fault-tolerant evaluation pipeline (docs/failure-model.md)
// ---------------------------------------------------------------------------

/// Objective that throws on the given (1-based) call numbers.
opt::Objective throw_on_calls(opt::Objective base, std::size_t every) {
  auto calls = std::make_shared<std::atomic<std::size_t>>(0);
  return [base = std::move(base), calls, every](const Vec& x) -> double {
    if (calls->fetch_add(1) % every == every - 1) {
      throw std::runtime_error("simulator crashed");
    }
    return base(x);
  };
}

TEST(FaultPolicy, AbortPreservesThrowingBehaviorOnBothBackends) {
  // Regression for the pre-supervision contract: with the default Abort
  // policy, the objective's own exception must still surface out of
  // run(), on both executor backends (DESIGN.md §5.0 parity).
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 5);
  cfg.init_points = 6;
  cfg.max_sims = 20;
  ASSERT_EQ(cfg.on_eval_failure, EvalFailurePolicy::Abort);

  {
    BoEngine engine(cfg, tf.bounds, throw_on_calls(tf.fn, 7));
    sched::VirtualExecutor exec(3);
    EXPECT_THROW(engine.run(exec), std::runtime_error);
  }
  {
    BoEngine engine(cfg, tf.bounds, throw_on_calls(tf.fn, 7));
    sched::ThreadExecutor exec(3);
    EXPECT_THROW(engine.run(exec), std::runtime_error);
  }
}

TEST(FaultPolicy, NonAbortPoliciesWithCleanObjectiveMatchAbortRun) {
  // The budget clock changed from observations to issued evaluations;
  // with no failures the two must coincide, so Discard/Penalize runs of a
  // clean objective must reproduce the Abort run eval for eval.
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 11);
  cfg.init_points = 6;
  cfg.max_sims = 20;
  const auto reference = run_bo(cfg, tf.bounds, tf.fn);

  for (const auto policy :
       {EvalFailurePolicy::Discard, EvalFailurePolicy::Penalize}) {
    auto c = cfg;
    c.on_eval_failure = policy;
    const auto r = run_bo(c, tf.bounds, tf.fn);
    ASSERT_EQ(r.num_evals(), reference.num_evals());
    for (std::size_t i = 0; i < r.num_evals(); ++i) {
      EXPECT_EQ(r.evals[i].x, reference.evals[i].x) << "eval " << i;
    }
    EXPECT_DOUBLE_EQ(r.best_y, reference.best_y);
  }
}

TEST(FaultPolicy, DiscardCompletesFullBudgetAndNeverReproposesFailures) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 13);
  cfg.init_points = 8;
  cfg.max_sims = 30;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;

  easybo::circuit::FaultPlan plan;
  plan.throw_every = 5;
  easybo::circuit::FaultInjector injector(plan);
  BoEngine engine(cfg, tf.bounds, injector.wrap(tf.fn));
  const auto r = run_recorded(engine);

  // Full budget consumed despite the failures — one record per issued
  // evaluation, failed ones flagged with NaN y and their status.
  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  std::size_t failed = 0;
  std::set<std::vector<double>> seen;
  for (const auto& e : r.evals) {
    seen.insert(e.x);
    if (e.failed) {
      ++failed;
      EXPECT_TRUE(std::isnan(e.y));
      EXPECT_EQ(e.failure, "exception");
    }
  }
  EXPECT_EQ(failed, injector.faults_injected());
  EXPECT_EQ(failed, cfg.max_sims / plan.throw_every);
  // Failed locations must never be re-proposed verbatim.
  EXPECT_EQ(seen.size(), r.num_evals());

  // Metrics agree with the record-level view.
  EXPECT_EQ(r.metrics.counter("eval.failures"), failed);
  EXPECT_EQ(r.metrics.counter("eval.discarded"), failed);
  EXPECT_EQ(r.metrics.counter("eval.exceptions"), failed);
  EXPECT_EQ(r.metrics.counter("eval.penalized"), 0u);
  EXPECT_EQ(r.metrics.counter("eval.retries"), 0u);
  ASSERT_EQ(r.metrics.evals.size(), r.num_evals());
  std::size_t log_discarded = 0;
  for (const auto& e : r.metrics.evals) {
    log_discarded += e.action == "discarded";
  }
  EXPECT_EQ(log_discarded, failed);

  // The convergence series only tracks real observations.
  const auto series = r.best_vs_time();
  ASSERT_EQ(series.size(), r.num_evals() - failed);
  EXPECT_DOUBLE_EQ(series.back().second, r.best_y);
  for (const auto& [t, best] : series) {
    EXPECT_TRUE(std::isfinite(best));
  }
}

TEST(FaultPolicy, PenalizeAbsorbsFailuresAsPseudoObservations) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 17);
  cfg.init_points = 8;
  cfg.max_sims = 30;
  cfg.on_eval_failure = EvalFailurePolicy::Penalize;
  cfg.eval_failure_quantile = 0.0;  // worst observed

  BoEngine engine(cfg, tf.bounds, throw_on_calls(tf.fn, 6));
  const auto r = run_recorded(engine);

  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  std::size_t penalized = 0;
  double min_ok = std::numeric_limits<double>::infinity();
  for (const auto& e : r.evals) {
    if (!e.failed) min_ok = std::min(min_ok, e.y);
  }
  for (const auto& e : r.evals) {
    if (e.failed) {
      ++penalized;
      // The pseudo-observation anchors at the worst REAL observation so
      // far; it can never beat the incumbent.
      EXPECT_TRUE(std::isfinite(e.y));
      EXPECT_LE(e.y, r.best_y);
      EXPECT_GE(e.y, min_ok);
    }
  }
  EXPECT_GT(penalized, 0u);
  EXPECT_EQ(r.metrics.counter("eval.penalized"), penalized);
  EXPECT_EQ(r.metrics.counter("eval.failures"), penalized);
  EXPECT_TRUE(std::isfinite(r.best_y));
}

TEST(FaultPolicy, RetriesRecoverTransientFailuresWithoutPolicyAction) {
  // Every 5th call crashes but the crash is per-call, not per-point, so
  // one retry always recovers. No eval may reach the failure policy.
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 19);
  cfg.init_points = 6;
  cfg.max_sims = 20;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;
  cfg.eval_max_retries = 2;

  easybo::circuit::FaultPlan plan;
  plan.throw_every = 5;
  easybo::circuit::FaultInjector injector(plan);
  BoEngine engine(cfg, tf.bounds, injector.wrap(tf.fn));
  const auto r = run_recorded(engine);

  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  EXPECT_EQ(r.metrics.counter("eval.failures"), 0u);
  EXPECT_GT(r.metrics.counter("eval.retries"), 0u);
  EXPECT_EQ(r.metrics.counter("eval.retries"),
            r.metrics.counter("eval.exceptions"));
  std::size_t retried = 0;
  for (const auto& e : r.evals) {
    EXPECT_FALSE(e.failed);
    retried += e.attempts > 1;
  }
  EXPECT_EQ(retried, r.metrics.counter("eval.retries"));
}

TEST(FaultPolicy, NonFiniteValuesAreFailuresNotObservations) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 23);
  cfg.init_points = 6;
  cfg.max_sims = 20;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;

  easybo::circuit::FaultPlan plan;
  plan.nan_every = 6;
  easybo::circuit::FaultInjector injector(plan);
  BoEngine engine(cfg, tf.bounds, injector.wrap(tf.fn));
  const auto r = run_recorded(engine);

  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  EXPECT_GT(r.metrics.counter("eval.nonfinite"), 0u);
  EXPECT_EQ(r.metrics.counter("eval.nonfinite"),
            r.metrics.counter("eval.failures"));
  for (const auto& e : r.evals) {
    if (e.failed) {
      EXPECT_EQ(e.failure, "non_finite");
    }
  }
  EXPECT_TRUE(std::isfinite(r.best_y));
}

TEST(FaultPolicy, VirtualTimeoutsAreCutAtTheDeadline) {
  // Every 4th simulation takes 100x its nominal (1s) virtual duration;
  // with a 2s deadline those must come back as timeouts cut at 2s.
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 27);
  cfg.init_points = 6;
  cfg.max_sims = 20;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;
  cfg.eval_timeout = 2.0;

  easybo::circuit::FaultPlan plan;
  plan.slow_every = 4;
  easybo::circuit::FaultInjector injector(plan);
  BoEngine engine(cfg, tf.bounds, tf.fn,
                  injector.wrap_sim_time([](const Vec&) { return 1.0; }));
  const auto r = run_recorded(engine);

  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  const std::size_t expected = cfg.max_sims / plan.slow_every;
  EXPECT_EQ(r.metrics.counter("eval.timeouts"), expected);
  std::size_t timed_out = 0;
  for (const auto& e : r.evals) {
    if (e.failed) {
      ++timed_out;
      EXPECT_EQ(e.failure, "timeout");
      // Cut at the deadline: occupied the worker for exactly 2s.
      EXPECT_DOUBLE_EQ(e.finish - e.start, cfg.eval_timeout);
    }
  }
  EXPECT_EQ(timed_out, expected);
}

TEST(FaultPolicy, AllInitFailuresAbortWithDescriptiveError) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 3, 31);
  cfg.init_points = 6;
  cfg.max_sims = 20;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;
  const auto always_throw = [](const Vec&) -> double {
    throw std::runtime_error("dead simulator");
  };
  BoEngine engine(cfg, tf.bounds, always_throw);
  EXPECT_THROW(engine.run(), Error);
}

TEST(FaultPolicy, FaultPipelineWorksOnRealThreadsToo) {
  // The same discard run on a ThreadExecutor: full budget, matching
  // counters, no exception escaping — backend parity for failures.
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, AcqKind::EasyBo, true, 2, 37);
  cfg.init_points = 6;
  cfg.max_sims = 20;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;

  easybo::circuit::FaultPlan plan;
  plan.throw_every = 5;
  easybo::circuit::FaultInjector injector(plan);
  BoEngine engine(cfg, tf.bounds, injector.wrap(tf.fn));
  sched::ThreadExecutor exec(2);
  const auto r = run_recorded(engine, &exec);

  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  EXPECT_EQ(r.metrics.counter("eval.failures"),
            injector.faults_injected());
  EXPECT_EQ(r.metrics.counter("eval.discarded"),
            injector.faults_injected());
  EXPECT_TRUE(std::isfinite(r.best_y));
}

TEST(FaultInjector, CountsAndChannelsAreDeterministic) {
  easybo::circuit::FaultPlan plan;
  plan.throw_every = 3;
  plan.nan_every = 4;
  easybo::circuit::FaultInjector injector(plan);
  const auto fn =
      injector.wrap([](const Vec&) { return 1.0; });
  const Vec x{0.5};
  std::size_t throws = 0, nans = 0, ok = 0;
  for (int i = 1; i <= 12; ++i) {
    try {
      const double y = fn(x);
      if (std::isnan(y)) ++nans;
      else ++ok;
    } catch (const std::runtime_error&) {
      ++throws;
    }
  }
  EXPECT_EQ(throws, 4u);  // calls 3, 6, 9, 12
  EXPECT_EQ(nans, 2u);    // calls 4, 8 (12 hits throw first: precedence)
  EXPECT_EQ(ok, 6u);
  EXPECT_EQ(injector.calls(), 12u);
  EXPECT_EQ(injector.faults_injected(), 6u);
}

}  // namespace
}  // namespace easybo::bo
