// Tests for the fault-tolerant evaluation supervisor: outcome
// classification (ok / exception / timeout / non-finite), per-attempt
// deadlines on both executor backends (virtual cut vs wall watchdog +
// worker abandonment), capped exponential backoff with jitter keyed on
// (seed, tag, retry), resuming interrupted work, and the pass-through
// guarantee of the default config.

#include "sched/supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"

namespace easybo::sched {
namespace {

// ---------------------------------------------------------------------------
// backoff_delay
// ---------------------------------------------------------------------------

/// The unjittered schedule: 0.5 s doubling per retry, capped at 30 s.
double nominal(std::size_t retry) {
  return std::min(30.0, 0.5 * std::pow(2.0, double(retry - 1)));
}

TEST(BackoffDelay, ExponentialThenCapped) {
  for (const std::size_t retry : {1u, 2u, 3u, 6u, 7u, 8u, 50u}) {
    const double d = backoff_delay(retry, 1, 0);
    EXPECT_GE(d, 0.9 * nominal(retry)) << "retry " << retry;
    EXPECT_LE(d, 1.1 * nominal(retry)) << "retry " << retry;
  }
  EXPECT_DOUBLE_EQ(nominal(7), 30.0);  // 0.5 * 2^6 = 32 is capped
}

TEST(BackoffDelay, JitterStaysWithinFractionAndIsDeterministic) {
  double lo = 1.0;
  double hi = 1.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (std::size_t tag = 0; tag < 50; ++tag) {
      for (std::size_t retry = 1; retry <= 6; ++retry) {
        const double d = backoff_delay(retry, seed, tag);
        EXPECT_EQ(d, backoff_delay(retry, seed, tag));  // a pure function
        lo = std::min(lo, d / nominal(retry));
        hi = std::max(hi, d / nominal(retry));
      }
    }
  }
  EXPECT_GE(lo, 0.9);
  EXPECT_LE(hi, 1.1);
  // 1200 keys spread over the whole +-10% band.
  EXPECT_LT(lo, 0.91);
  EXPECT_GT(hi, 1.09);
  // Each of seed, tag and retry moves the draw.
  EXPECT_NE(backoff_delay(1, 1, 0), backoff_delay(1, 2, 0));
  EXPECT_NE(backoff_delay(1, 1, 0), backoff_delay(1, 1, 1));
  EXPECT_NE(backoff_delay(2, 1, 0) / 2.0, backoff_delay(1, 1, 0));
}

TEST(BackoffDelay, RetriesAreOneBased) {
  EXPECT_THROW(backoff_delay(0, 1, 0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Pass-through behavior (default config)
// ---------------------------------------------------------------------------

TEST(EvalSupervisor, PassThroughMatchesRawExecutorOnVirtualTime) {
  VirtualExecutor raw(2);
  raw.submit(0, [] { return 10.0; }, 4.0);
  raw.submit(1, [] { return 20.0; }, 2.0);
  const auto raw_first = raw.wait_next();
  const auto raw_second = raw.wait_next();

  VirtualExecutor exec(2);
  EvalSupervisor sup(exec, SupervisorConfig{});
  sup.submit(0, [] { return 10.0; }, 4.0);
  sup.submit(1, [] { return 20.0; }, 2.0);
  const auto first = sup.wait_next();
  const auto second = sup.wait_next();

  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.attempts, 1u);
  EXPECT_EQ(first.completion.tag, raw_first.tag);
  EXPECT_DOUBLE_EQ(first.completion.value, raw_first.value);
  EXPECT_DOUBLE_EQ(first.completion.start, raw_first.start);
  EXPECT_DOUBLE_EQ(first.completion.finish, raw_first.finish);
  EXPECT_EQ(second.completion.tag, raw_second.tag);
  EXPECT_DOUBLE_EQ(second.completion.finish, raw_second.finish);
  EXPECT_DOUBLE_EQ(exec.now(), raw.now());
}

TEST(EvalSupervisor, PassThroughDeliversValuesOnThreads) {
  ThreadExecutor exec(2);
  EvalSupervisor sup(exec, SupervisorConfig{});
  sup.submit(3, [] { return 7.0; }, 1.0);
  sup.submit(4, [] { return 9.0; }, 1.0);
  const auto a = sup.wait_next();
  const auto b = sup.wait_next();
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.completion.value + b.completion.value, 16.0);
  EXPECT_EQ(sup.num_running(), 0u);
}

TEST(EvalSupervisor, WaitNextWithNothingRunningThrows) {
  VirtualExecutor exec(1);
  EvalSupervisor sup(exec, SupervisorConfig{});
  EXPECT_THROW(sup.wait_next(), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Exception and non-finite classification + retries
// ---------------------------------------------------------------------------

TEST(EvalSupervisor, ClassifiesExceptionWithoutRethrowing) {
  VirtualExecutor exec(1);
  EvalSupervisor sup(exec, SupervisorConfig{});
  sup.submit(5, []() -> double { throw std::runtime_error("boom"); }, 1.0);
  const auto out = sup.wait_next();
  EXPECT_EQ(out.status, EvalStatus::Exception);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.error, "boom");
  ASSERT_TRUE(out.exception != nullptr);
  EXPECT_THROW(std::rethrow_exception(out.exception), std::runtime_error);
}

TEST(EvalSupervisor, ClassifiesNonFiniteValues) {
  VirtualExecutor exec(1);
  EvalSupervisor sup(exec, SupervisorConfig{});
  sup.submit(0, [] { return std::numeric_limits<double>::quiet_NaN(); },
             1.0);
  EXPECT_EQ(sup.wait_next().status, EvalStatus::NonFinite);
  sup.submit(1, [] { return std::numeric_limits<double>::infinity(); },
             1.0);
  EXPECT_EQ(sup.wait_next().status, EvalStatus::NonFinite);
}

TEST(EvalSupervisor, TransientFailureRecoversWithinRetryBudget) {
  for (const bool threads : {false, true}) {
    std::unique_ptr<Executor> exec;
    if (threads) exec = std::make_unique<ThreadExecutor>(1);
    else exec = std::make_unique<VirtualExecutor>(1);

    SupervisorConfig cfg;
    cfg.max_retries = 3;
    auto attempts = std::make_shared<std::atomic<int>>(0);
    EvalSupervisor sup(*exec, cfg);
    sup.submit(9,
               [attempts]() -> double {
                 if (attempts->fetch_add(1) < 2) {
                   throw std::runtime_error("flaky");
                 }
                 return 42.0;
               },
               1.0);
    const auto out = sup.wait_next();
    EXPECT_TRUE(out.ok()) << (threads ? "threads" : "virtual");
    EXPECT_DOUBLE_EQ(out.completion.value, 42.0);
    EXPECT_EQ(out.completion.tag, 9u);
    EXPECT_EQ(out.attempts, 3u);  // 2 failures + 1 success
  }
}

TEST(EvalSupervisor, RetryExhaustionReportsLastFailure) {
  VirtualExecutor exec(1);
  SupervisorConfig cfg;
  cfg.max_retries = 2;
  EvalSupervisor sup(exec, cfg);
  auto attempts = std::make_shared<std::atomic<int>>(0);
  sup.submit(1,
             [attempts]() -> double {
               attempts->fetch_add(1);
               throw std::runtime_error("always");
             },
             1.0);
  const auto out = sup.wait_next();
  EXPECT_EQ(out.status, EvalStatus::Exception);
  EXPECT_EQ(out.attempts, 3u);  // 1 + 2 retries, every one made
  EXPECT_EQ(attempts->load(), 3);
  EXPECT_EQ(out.error, "always");
}

TEST(EvalSupervisor, RetryBackoffOccupiesVirtualTime) {
  VirtualExecutor exec(1);
  SupervisorConfig cfg;
  cfg.max_retries = 1;
  EvalSupervisor sup(exec, cfg);
  auto attempts = std::make_shared<std::atomic<int>>(0);
  sup.submit(0,
             [attempts]() -> double {
               if (attempts->fetch_add(1) == 0) {
                 throw std::runtime_error("once");
               }
               return 1.0;
             },
             2.0);
  const auto out = sup.wait_next();
  EXPECT_TRUE(out.ok());
  // attempt (2s) + backoff (0.5s +- 10%) + retry (2s); start is the
  // FIRST start.
  EXPECT_DOUBLE_EQ(out.completion.start, 0.0);
  EXPECT_DOUBLE_EQ(out.completion.finish,
                   4.0 + backoff_delay(1, cfg.seed, 0));
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(EvalSupervisor, VirtualTimeoutCutsTheJobAtItsDeadline) {
  VirtualExecutor exec(2);
  SupervisorConfig cfg;
  cfg.timeout = 3.0;
  EvalSupervisor sup(exec, cfg);
  sup.submit(0, [] { return 1.0; }, 10.0);  // would run way past deadline
  sup.submit(1, [] { return 2.0; }, 1.0);

  const auto fast = sup.wait_next();
  EXPECT_TRUE(fast.ok());
  EXPECT_EQ(fast.completion.tag, 1u);

  const auto slow = sup.wait_next();
  EXPECT_EQ(slow.status, EvalStatus::Timeout);
  EXPECT_EQ(slow.completion.tag, 0u);
  // The worker was occupied until exactly the deadline, not 10s.
  EXPECT_DOUBLE_EQ(slow.completion.finish, 3.0);
  EXPECT_DOUBLE_EQ(exec.now(), 3.0);
}

TEST(EvalSupervisor, VirtualTimeoutIsNeverRetried) {
  VirtualExecutor exec(1);
  SupervisorConfig cfg;
  cfg.timeout = 3.0;
  cfg.max_retries = 1;
  EvalSupervisor sup(exec, cfg);
  sup.submit(0, [] { return 1.0; }, 10.0);  // deterministic straggler
  const auto out = sup.wait_next();
  // The retry budget is for transient failures: the cut attempt is
  // reported at once, with no backoff and no second attempt.
  EXPECT_EQ(out.status, EvalStatus::Timeout);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_DOUBLE_EQ(out.completion.finish, 3.0);
  EXPECT_DOUBLE_EQ(exec.now(), 3.0);
}

/// A ThreadExecutor whose clock moves only when the test sets it: real
/// worker threads, but a deadline passes exactly when the test says so.
/// Every completion is stamped at the current setting; taken() counts the
/// completions the supervisor has pulled.
class SteppedClockExecutor final : public Executor {
 public:
  explicit SteppedClockExecutor(std::size_t workers) : threads_(workers) {}
  void set_now(double t) { now_ = t; }
  std::size_t taken() const { return taken_.load(); }

  std::size_t num_workers() const override { return threads_.num_workers(); }
  std::size_t num_running() const override { return threads_.num_running(); }
  void submit(std::size_t tag, std::function<double()> work,
              double duration) override {
    threads_.submit(tag, std::move(work), duration);
  }
  Completion wait_next() override {
    Completion c = threads_.wait_next();
    c.start = c.finish = now_;
    ++taken_;
    return c;
  }
  /// No time passes while waiting, so a bounded wait is a wait for the
  /// next completion.
  std::optional<Completion> try_wait_next(double) override {
    return wait_next();
  }
  bool wall_clock() const override { return true; }
  double now() const override { return now_; }
  double total_busy_time() const override {
    return threads_.total_busy_time();
  }
  std::vector<double> per_worker_busy() const override {
    return threads_.per_worker_busy();
  }

 private:
  ThreadExecutor threads_;
  double now_ = 0.0;
  std::atomic<std::size_t> taken_{0};
};

/// Polls \p done every millisecond until it holds. Gives up after 10 s,
/// so a broken supervisor fails the assertions instead of hanging.
template <typename Done>
void wait_until(Done done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The clock moves only when the test moves it and the jobs wait on flags,
// so neither the trivial job's deadline nor the order of the last two
// completions depends on how the worker threads are scheduled.
TEST(EvalSupervisor, WallWatchdogAbandonsHungWorker) {
  SteppedClockExecutor exec(2);
  SupervisorConfig cfg;
  cfg.timeout = 0.05;
  EvalSupervisor sup(exec, cfg);

  std::atomic<bool> release{false};
  sup.submit(0,
             [&release]() -> double {
               wait_until([&release] { return release.load(); });
               return 1.0;
             },
             1.0);
  sup.submit(1, [] { return 2.0; }, 1.0);

  // Before any deadline passes, the trivial job completes.
  const SupervisedCompletion good = sup.wait_next();
  // Past job 0's deadline the watchdog abandons its hung worker.
  exec.set_now(1.0);
  const SupervisedCompletion timed_out = sup.wait_next();
  EXPECT_EQ(timed_out.status, EvalStatus::Timeout);
  EXPECT_EQ(timed_out.completion.tag, 0u);
  // The worker id is unknown for an abandoned job: sentinel num_workers().
  EXPECT_EQ(timed_out.completion.worker, exec.num_workers());
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.completion.tag, 1u);
  EXPECT_EQ(sup.num_running(), 0u);
  // The abandoned worker is visible as an orphan (feeds the engine's
  // "sched.orphaned_workers" counter and the CLI warning).
  EXPECT_EQ(sup.orphans(), 1u);

  // Unhang the objective; the stale completion must be swallowed, the
  // slot rejoining the pool without a visible completion. Job 2 finishes
  // only once the supervisor has pulled that stale completion.
  release.store(true);
  sup.submit(2,
             [&exec] {
               wait_until([&exec] { return exec.taken() >= 2; });
               return 3.0;
             },
             1.0);
  const auto after = sup.wait_next();
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.completion.tag, 2u);
  // Swallowing the stale completion reclaims the orphan.
  EXPECT_EQ(sup.orphans(), 0u);
}

TEST(EvalSupervisor, OrphansStartAtZeroOnVirtualTime) {
  VirtualExecutor exec(2);
  EvalSupervisor sup(exec, SupervisorConfig{});
  EXPECT_EQ(sup.orphans(), 0u);
  sup.submit(0, [] { return 1.0; }, 1.0);
  (void)sup.wait_next();
  // Virtual-time timeouts cut the job, they never abandon a worker.
  EXPECT_EQ(sup.orphans(), 0u);
}

// ---------------------------------------------------------------------------
// Resuming interrupted work (checkpoint resume)
// ---------------------------------------------------------------------------

TEST(EvalSupervisor, AdvanceClockRetriesWhereTheFailedAttemptEnded) {
  VirtualExecutor exec(2);
  SupervisorConfig cfg;
  cfg.max_retries = 1;
  EvalSupervisor sup(exec, cfg);
  auto calls = std::make_shared<int>(0);
  sup.submit(0,
             [calls]() -> double {
               if ((*calls)++ == 0) throw std::runtime_error("once");
               return 1.0;
             },
             1.0);
  // The attempt failed at 1.0, so the retry starts there, not at 5.0; its
  // outcome, settled on the way, is held for the next wait_next().
  sup.advance_clock(5.0);
  EXPECT_DOUBLE_EQ(exec.now(), 5.0);
  EXPECT_EQ(sup.num_running(), 1u);
  const auto out = sup.wait_next();
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_DOUBLE_EQ(out.completion.finish,
                   1.0 + backoff_delay(1, cfg.seed, 0) + 1.0);
  EXPECT_EQ(sup.num_running(), 0u);
}

TEST(EvalSupervisor, RetryOccupancyMatchesWhatTheExecutorBooked) {
  VirtualExecutor exec(1);
  SupervisorConfig cfg;
  cfg.max_retries = 2;
  EvalSupervisor sup(exec, cfg);
  auto calls = std::make_shared<int>(0);
  sup.submit(7,
             [calls]() -> double {
               if ((*calls)++ < 2) throw std::runtime_error("twice");
               return 1.0;
             },
             1.5);
  const auto out = sup.wait_next();
  ASSERT_EQ(out.attempts, 3u);
  // Every attempt and the backoff before each retry.
  EXPECT_NEAR(sup.chain_occupancy(7, 1.5, 3), exec.total_busy_time(),
              1e-12);
  EXPECT_DOUBLE_EQ(sup.chain_occupancy(7, 1.5, 2),
                   3.0 + backoff_delay(1, cfg.seed, 7));
  EXPECT_DOUBLE_EQ(sup.chain_occupancy(7, 1.5, 1), 1.5);
}

TEST(EvalSupervisor, ChainOccupancyCutsEachAttemptAtTheDeadline) {
  VirtualExecutor exec(1);
  SupervisorConfig cfg;
  cfg.timeout = 1.0;
  cfg.max_retries = 1;
  EvalSupervisor sup(exec, cfg);
  sup.submit(3, []() -> double { throw std::runtime_error("always"); }, 0.5);
  ASSERT_EQ(sup.wait_next().attempts, 2u);
  EXPECT_NEAR(sup.chain_occupancy(3, 0.5, 2), exec.total_busy_time(), 1e-12);
  // A timeout is never retried: one attempt, cut at the deadline.
  EXPECT_DOUBLE_EQ(sup.chain_occupancy(4, 7.0, 1), 1.0);
}

// ---------------------------------------------------------------------------
// draining
// ---------------------------------------------------------------------------

TEST(EvalSupervisor, WaitAllDrainsMixedOutcomes) {
  VirtualExecutor exec(3);
  SupervisorConfig cfg;
  cfg.timeout = 5.0;
  EvalSupervisor sup(exec, cfg);
  sup.submit(0, [] { return 1.0; }, 1.0);
  sup.submit(1, []() -> double { throw std::runtime_error("x"); }, 2.0);
  sup.submit(2, [] { return 3.0; }, 99.0);  // timeout

  std::vector<SupervisedCompletion> done;
  while (sup.num_running() > 0) done.push_back(sup.wait_next());
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(sup.num_running(), 0u);
  int ok = 0, exception = 0, timeout = 0;
  for (const auto& d : done) {
    ok += d.ok();
    exception += d.status == EvalStatus::Exception;
    timeout += d.status == EvalStatus::Timeout;
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(exception, 1);
  EXPECT_EQ(timeout, 1);
}

TEST(EvalStatusToString, StableNames) {
  EXPECT_STREQ(to_string(EvalStatus::Ok), "ok");
  EXPECT_STREQ(to_string(EvalStatus::Exception), "exception");
  EXPECT_STREQ(to_string(EvalStatus::Timeout), "timeout");
  EXPECT_STREQ(to_string(EvalStatus::NonFinite), "non_finite");
}

}  // namespace
}  // namespace easybo::sched
