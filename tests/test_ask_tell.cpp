// Tests for the ask/tell core (bo/ask_tell): hand-driven suggest/observe
// schedules reproduce BoEngine::run bit for bit across Sequential/Sync/
// Async modes and Virtual/Thread executors; out-of-order observes are
// deterministic; a mid-stream snapshot/restore cut (including mid-batch
// in sync mode, where the deferred-update flag must survive) continues
// identically; the tag-keyed pending set keeps coincidentally equal
// pending points distinct; and the async weight-slot rotation flag is
// off by default, fingerprinted, and spreads pHCBO penalty histories
// across slots when enabled.

#include "bo/ask_tell.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/error.h"
#include "common/rng.h"
#include "sched/executor.h"

namespace easybo::bo {
namespace {

BoConfig quick(Mode mode, std::size_t batch, std::uint64_t seed) {
  BoConfig c;
  c.mode = mode;
  c.acq = AcqKind::EasyBo;
  c.penalize = true;
  c.batch = batch;
  c.init_points = 6;
  c.max_sims = 18;
  c.seed = seed;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  return c;
}

/// Distinct virtual durations so async completions genuinely interleave.
double varied_sim_time(const Vec& x) {
  return 0.6 + 0.05 * std::abs(x[0]);
}

/// A worker-pool emulation around AskTellCore that re-enacts BoEngine's
/// pump schedules by hand: greedy init fill, then the per-mode loop, with
/// completions delivered in finish-time order exactly as a
/// VirtualExecutor would. Everything BoEngine adds on top of the core —
/// and nothing else — lives here, so an eval-for-eval match against
/// BoEngine::run proves the extraction moved state without changing it.
class HandDriver {
 public:
  HandDriver(const BoConfig& cfg, const opt::Bounds& bounds,
             std::function<double(const Vec&)> objective,
             std::size_t workers)
      : core_(cfg, bounds, varied_sim_time),
        objective_(std::move(objective)),
        workers_(workers) {}

  AskTellCore& core() { return core_; }

  void run() {
    const BoConfig& cfg = core_.config();
    while (core_.num_observations() < cfg.init_points) {
      while (fly_.size() < workers_ && core_.issued() < cfg.max_sims &&
             core_.num_observations() + fly_.size() < cfg.init_points) {
        submit();
      }
      if (fly_.empty()) break;
      observe_earliest();
    }
    core_.finish_init();
    switch (cfg.mode) {
      case Mode::Sequential:
        while (core_.issued() < cfg.max_sims) {
          submit();
          observe_earliest();
        }
        break;
      case Mode::SyncBatch:
        while (core_.issued() < cfg.max_sims) {
          const std::size_t k = std::min(
              {cfg.batch, cfg.max_sims - core_.issued(), workers_});
          for (std::size_t i = 0; i < k; ++i) submit();
          while (!fly_.empty()) observe_earliest();
        }
        break;
      case Mode::AsyncBatch:
        while (fly_.size() < workers_ && core_.issued() < cfg.max_sims) {
          submit();
        }
        while (!fly_.empty()) {
          observe_earliest();
          if (core_.issued() < cfg.max_sims) submit();
        }
        break;
    }
  }

 private:
  struct Job {
    std::size_t tag = 0;
    double start = 0.0;
    double finish = 0.0;
    double value = 0.0;
  };

  void submit() {
    const Suggestion s = core_.suggest(now_);
    Job j;
    j.tag = s.tag;
    j.start = now_;
    j.finish = now_ + s.duration;
    j.value = objective_(s.x);
    fly_.push_back(j);
  }

  void observe_earliest() {
    const auto it =
        std::min_element(fly_.begin(), fly_.end(),
                         [](const Job& a, const Job& b) {
                           return a.finish < b.finish;
                         });
    const Job j = *it;
    fly_.erase(it);
    now_ = j.finish;
    Outcome o;
    o.value = j.value;
    o.start = j.start;
    o.finish = j.finish;
    core_.observe(j.tag, o);
  }

  AskTellCore core_;
  std::function<double(const Vec&)> objective_;
  std::size_t workers_;
  double now_ = 0.0;
  std::vector<Job> fly_;
};

/// Bit-identical evaluation streams: same points, same values, same
/// init/BO split, in the same completion order.
void expect_same_evals(const std::vector<EvalRecord>& hand,
                       const std::vector<EvalRecord>& engine) {
  ASSERT_EQ(hand.size(), engine.size());
  for (std::size_t i = 0; i < hand.size(); ++i) {
    EXPECT_EQ(hand[i].x, engine[i].x) << "eval " << i;
    EXPECT_DOUBLE_EQ(hand[i].y, engine[i].y) << "eval " << i;
    EXPECT_EQ(hand[i].is_init, engine[i].is_init) << "eval " << i;
  }
}

Outcome ok_outcome(double y) {
  Outcome o;
  o.value = y;
  return o;
}

Outcome failed_outcome() {
  Outcome o;
  o.status = sched::EvalStatus::Exception;
  o.value = std::numeric_limits<double>::quiet_NaN();
  o.error = "synthetic failure";
  return o;
}

// ---------------------------------------------------------------------------
// Parity: hand-driven core vs BoEngine::run, per mode and executor
// ---------------------------------------------------------------------------

TEST(AskTellParity, SequentialMatchesEngineOnBothExecutors) {
  const auto tf = circuit::sphere(2);
  const auto cfg = quick(Mode::Sequential, 1, 101);

  HandDriver hand(cfg, tf.bounds, tf.fn, 1);
  hand.run();

  BoEngine virt_engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult virt = virt_engine.run();
  expect_same_evals(hand.core().evals(), virt.evals);

  BoEngine real_engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  sched::ThreadExecutor real_exec(1);
  const BoResult real = real_engine.run(real_exec);
  expect_same_evals(hand.core().evals(), real.evals);
}

TEST(AskTellParity, SyncBatchMatchesEngineOnBothExecutors) {
  const auto tf = circuit::sphere(2);
  const auto cfg = quick(Mode::SyncBatch, 3, 202);

  HandDriver hand(cfg, tf.bounds, tf.fn, cfg.batch);
  hand.run();

  BoEngine virt_engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult virt = virt_engine.run();
  expect_same_evals(hand.core().evals(), virt.evals);

  // One real thread serializes completions, which shrinks the sync batch
  // to k=1 on both sides: the hand driver must be given the same pool.
  HandDriver serial_hand(cfg, tf.bounds, tf.fn, 1);
  serial_hand.run();
  BoEngine real_engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  sched::ThreadExecutor real_exec(1);
  const BoResult real = real_engine.run(real_exec);
  expect_same_evals(serial_hand.core().evals(), real.evals);
}

TEST(AskTellParity, AsyncBatchMatchesEngineOnBothExecutors) {
  const auto tf = circuit::sphere(2);
  const auto cfg = quick(Mode::AsyncBatch, 3, 303);

  HandDriver hand(cfg, tf.bounds, tf.fn, cfg.batch);
  hand.run();

  BoEngine virt_engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult virt = virt_engine.run();
  expect_same_evals(hand.core().evals(), virt.evals);

  HandDriver serial_hand(cfg, tf.bounds, tf.fn, 1);
  serial_hand.run();
  BoEngine real_engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  sched::ThreadExecutor real_exec(1);
  const BoResult real = real_engine.run(real_exec);
  expect_same_evals(serial_hand.core().evals(), real.evals);
}

// ---------------------------------------------------------------------------
// Observe ordering and the suggest/observe contract
// ---------------------------------------------------------------------------

TEST(AskTellCoreTest, OutOfOrderObservesAreAcceptedAndDeterministic) {
  const auto tf = circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, 4, 7);
  cfg.init_points = 4;
  cfg.max_sims = 12;

  // The same scrambled delivery twice must give the same stream.
  auto drive = [&](AskTellCore& core) {
    std::vector<Vec> suggested;
    auto batch = [&](const std::vector<std::size_t>& order) {
      std::vector<Suggestion> s;
      for (std::size_t i = 0; i < order.size(); ++i) {
        s.push_back(core.suggest());
        suggested.push_back(s.back().x);
      }
      for (const std::size_t idx : order) {
        core.observe(s[idx].tag, ok_outcome(tf.fn(s[idx].x)));
      }
    };
    batch({3, 1, 0, 2});  // the whole init design, scrambled
    core.finish_init();
    batch({1, 3, 2, 0});
    batch({2, 0, 3, 1});
    return suggested;
  };

  AskTellCore a(cfg, tf.bounds);
  AskTellCore b(cfg, tf.bounds);
  const std::vector<Vec> xa = drive(a);
  const std::vector<Vec> xb = drive(b);
  ASSERT_EQ(xa.size(), 12u);
  for (std::size_t i = 0; i < xa.size(); ++i) {
    EXPECT_EQ(xa[i], xb[i]) << "suggestion " << i;
  }
  EXPECT_TRUE(a.pending_tags().empty());
}

TEST(AskTellCoreTest, ObserveRejectsUnknownAndNonPendingTags) {
  const auto tf = circuit::sphere(2);
  auto cfg = quick(Mode::Sequential, 1, 9);
  cfg.init_points = 2;
  AskTellCore core(cfg, tf.bounds);

  EXPECT_THROW(core.observe(0, ok_outcome(1.0)), Error);  // never suggested

  const Suggestion s = core.suggest();
  core.observe(s.tag, ok_outcome(1.0));
  EXPECT_THROW(core.observe(s.tag, ok_outcome(1.0)), Error);  // not pending
}

TEST(AskTellCoreTest, SuggestGuardsBudgetAndInFlightInitDesign) {
  const auto tf = circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, 2, 11);
  cfg.init_points = 2;
  cfg.max_sims = 3;
  AskTellCore core(cfg, tf.bounds);

  const Suggestion s0 = core.suggest();
  const Suggestion s1 = core.suggest();
  // The whole initial design is in flight: a BO proposal has no model.
  EXPECT_THROW(core.suggest(), Error);

  core.observe(s0.tag, ok_outcome(1.0));
  core.observe(s1.tag, ok_outcome(2.0));
  core.suggest();  // issued == max_sims
  EXPECT_THROW(core.suggest(), Error);  // budget exhausted
}

// ---------------------------------------------------------------------------
// Pending-set identity (the value-equality erase bug)
// ---------------------------------------------------------------------------

TEST(AskTellCoreTest, CoincidentallyEqualPendingPointsStayDistinct) {
  const auto tf = circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, 2, 13);
  cfg.init_points = 2;
  AskTellCore seed_core(cfg, tf.bounds);
  seed_core.suggest();
  seed_core.suggest();

  // Forge the situation the old Vec-equality erase got wrong: two
  // pending proposals at the exact same point.
  BoCheckpoint snap = seed_core.make_snapshot();
  ASSERT_EQ(snap.prop_x.size(), 2u);
  snap.prop_x[1] = snap.prop_x[0];

  AskTellCore core(cfg, tf.bounds);
  core.restore_snapshot(snap, "forged");
  ASSERT_EQ(core.pending_tags().size(), 2u);
  EXPECT_EQ(core.proposal(0), core.proposal(1));

  // Observing tag 1 must retire exactly tag 1 — not whichever entry
  // happens to compare equal first.
  core.observe(1, ok_outcome(1.0));
  EXPECT_EQ(core.pending_tags().count(0), 1u);
  EXPECT_EQ(core.pending_tags().count(1), 0u);
  EXPECT_THROW(core.observe(1, ok_outcome(1.0)), Error);
  core.observe(0, ok_outcome(2.0));
  EXPECT_TRUE(core.pending_tags().empty());
  EXPECT_EQ(core.num_observations(), 2u);
}

// ---------------------------------------------------------------------------
// Mid-stream snapshot/restore (including mid-batch sync_dirty)
// ---------------------------------------------------------------------------

TEST(AskTellCoreTest, MidBatchSnapshotRestoreContinuesIdentically) {
  const auto tf = circuit::sphere(2);
  auto cfg = quick(Mode::SyncBatch, 4, 17);
  cfg.init_points = 4;
  cfg.max_sims = 16;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;

  AskTellCore a(cfg, tf.bounds);
  for (std::size_t i = 0; i < 4; ++i) {
    const Suggestion s = a.suggest();
    a.observe(s.tag, ok_outcome(tf.fn(s.x)));
  }
  a.finish_init();
  std::vector<Suggestion> batch;
  for (std::size_t i = 0; i < 4; ++i) batch.push_back(a.suggest());
  a.observe(batch[0].tag, ok_outcome(tf.fn(batch[0].x)));
  a.observe(batch[1].tag, ok_outcome(tf.fn(batch[1].x)));

  // Cut mid-batch: two observations absorbed (sync's deferred-update
  // flag is set), two still pending.
  const BoCheckpoint snap = a.make_snapshot();
  EXPECT_TRUE(snap.sync_dirty);
  ASSERT_EQ(snap.pending.size(), 2u);

  AskTellCore b(cfg, tf.bounds);
  b.restore_snapshot(snap, "midbatch");

  // Finish the batch identically on both sides. Both remaining outcomes
  // are discarded failures (changed=false): only a restored sync_dirty
  // makes side B run the barrier model update side A runs.
  for (AskTellCore* core : {&a, &b}) {
    core->observe(batch[2].tag, failed_outcome());
    core->observe(batch[3].tag, failed_outcome());
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const Suggestion sa = a.suggest();
    const Suggestion sb = b.suggest();
    EXPECT_EQ(sa.unit_x, sb.unit_x) << "post-restore suggestion " << i;
    EXPECT_EQ(sa.tag, sb.tag);
  }
}

TEST(BoCheckpointJson, SyncDirtyRoundTripsAndDefaultsFalse) {
  BoCheckpoint snap;
  snap.rng = Rng(1).save();
  snap.sup_rng = Rng(2).save();
  snap.sync_dirty = true;
  const std::string payload = snap.to_payload();
  EXPECT_TRUE(BoCheckpoint::parse(payload).sync_dirty);

  // Files written before the field existed: absent means false.
  std::string legacy = payload;
  const std::string field = "\"sync_dirty\":true,";
  const std::size_t pos = legacy.find(field);
  ASSERT_NE(pos, std::string::npos);
  legacy.erase(pos, field.size());
  EXPECT_FALSE(BoCheckpoint::parse(legacy).sync_dirty);
}

// ---------------------------------------------------------------------------
// Async weight slots: the per-slot grid is a synchronous-batch construct
// ---------------------------------------------------------------------------

// Every asynchronous pHCBO proposal uses slot 0, so all of its penalties
// land in one shared history and the other slots stay empty.
TEST(AsyncSlots, PhcboFillsSlotZeroOnly) {
  const auto tf = circuit::sphere(2);
  auto cfg = quick(Mode::AsyncBatch, 3, 23);
  cfg.acq = AcqKind::Phcbo;
  cfg.init_points = 6;
  cfg.max_sims = 15;
  HandDriver hand(cfg, tf.bounds, tf.fn, cfg.batch);
  hand.run();
  const BoCheckpoint snap =
      hand.core().make_snapshot();
  ASSERT_EQ(snap.hc_histories.size(), 3u);
  EXPECT_GT(snap.hc_histories[0].size(), 0u);
  EXPECT_EQ(snap.hc_histories[1].size(), 0u);
  EXPECT_EQ(snap.hc_histories[2].size(), 0u);
}

}  // namespace
}  // namespace easybo::bo
