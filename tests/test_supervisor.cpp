// Tests for the fault-tolerant evaluation supervisor: outcome
// classification (ok / exception / timeout / non-finite), per-attempt
// deadlines on both executor backends (virtual cut vs wall watchdog +
// worker abandonment), capped exponential backoff with deterministic
// jitter, and the pass-through guarantee of the default config.

#include "sched/supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"

namespace easybo::sched {
namespace {

// ---------------------------------------------------------------------------
// backoff_delay
// ---------------------------------------------------------------------------

SupervisorConfig no_jitter() {
  SupervisorConfig cfg;
  cfg.backoff_init = 0.5;
  cfg.backoff_factor = 2.0;
  cfg.backoff_max = 3.0;
  cfg.backoff_jitter = 0.0;
  return cfg;
}

TEST(BackoffDelay, ExponentialThenCapped) {
  const SupervisorConfig cfg = no_jitter();
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 1, rng), 0.5);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 2, rng), 1.0);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 3, rng), 2.0);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 4, rng), 3.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 50, rng), 3.0);
}

TEST(BackoffDelay, JitterStaysWithinFractionAndIsDeterministic) {
  SupervisorConfig cfg = no_jitter();
  cfg.backoff_jitter = 0.2;
  Rng rng_a(7);
  Rng rng_b(7);
  for (std::size_t retry = 1; retry <= 6; ++retry) {
    const double nominal =
        std::min(cfg.backoff_max,
                 cfg.backoff_init * std::pow(cfg.backoff_factor,
                                             double(retry - 1)));
    const double d = backoff_delay(cfg, retry, rng_a);
    EXPECT_GE(d, nominal * 0.8);
    EXPECT_LE(d, nominal * 1.2);
    EXPECT_DOUBLE_EQ(d, backoff_delay(cfg, retry, rng_b));  // same stream
  }
}

TEST(BackoffDelay, RetriesAreOneBased) {
  const SupervisorConfig cfg = no_jitter();
  Rng rng(1);
  EXPECT_THROW(backoff_delay(cfg, 0, rng), InvalidArgument);
}

TEST(SupervisorConfigValidate, RejectsBadKnobs) {
  SupervisorConfig cfg;
  cfg.backoff_factor = 0.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = SupervisorConfig{};
  cfg.backoff_jitter = 1.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = SupervisorConfig{};
  cfg.backoff_init = -1.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
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
    cfg.backoff_init = threads ? 1e-4 : 0.5;  // keep wall tests fast
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
  cfg.backoff_init = 0.5;
  cfg.backoff_jitter = 0.0;
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
  // attempt (2s) + backoff (0.5s) + retry (2s); start is the FIRST start.
  EXPECT_DOUBLE_EQ(out.completion.start, 0.0);
  EXPECT_DOUBLE_EQ(out.completion.finish, 4.5);
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
  cfg.backoff_init = 1.0;
  cfg.backoff_jitter = 0.0;
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

TEST(EvalSupervisor, WallWatchdogAbandonsHungWorker) {
  ThreadExecutor exec(2);
  SupervisorConfig cfg;
  cfg.timeout = 0.05;
  EvalSupervisor sup(exec, cfg);

  std::atomic<bool> release{false};
  sup.submit(0,
             [&release]() -> double {
               while (!release.load()) {
                 std::this_thread::sleep_for(std::chrono::milliseconds(1));
               }
               return 1.0;
             },
             1.0);
  sup.submit(1, [] { return 2.0; }, 1.0);

  SupervisedCompletion timed_out;
  SupervisedCompletion good;
  for (int i = 0; i < 2; ++i) {
    auto out = sup.wait_next();
    if (out.status == EvalStatus::Timeout) timed_out = out;
    else good = out;
  }
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
  // slot rejoining the pool without a visible completion.
  release.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sup.submit(2, [] { return 3.0; }, 1.0);
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
