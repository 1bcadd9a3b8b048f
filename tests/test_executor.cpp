// Tests for the execution seam: the VirtualExecutor and ThreadExecutor
// must present the same contract to the BO engine — idle accounting,
// FIFO-serialized completions on one worker, worker exceptions delivered
// to the SAME call site (wait_next) on both backends, and per-worker
// busy accounting for the observability layer. Also the virtual schedule
// itself (event order, ties, worker reuse, clock) and the
// synchronous-vs-asynchronous policy comparison behind the paper's Fig. 1.

#include "sched/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace easybo::sched {
namespace {

TEST(VirtualExecutor, DeliversValuesWithSchedulerTiming) {
  VirtualExecutor exec(2);
  EXPECT_EQ(exec.num_workers(), 2u);
  EXPECT_TRUE(exec.has_idle_worker());

  exec.submit(0, [] { return 10.0; }, 4.0);
  exec.submit(1, [] { return 20.0; }, 2.0);
  EXPECT_FALSE(exec.has_idle_worker());

  const auto first = exec.wait_next();  // shorter job finishes first
  EXPECT_EQ(first.tag, 1u);
  EXPECT_DOUBLE_EQ(first.value, 20.0);
  EXPECT_DOUBLE_EQ(first.finish, 2.0);
  const auto second = exec.wait_next();
  EXPECT_EQ(second.tag, 0u);
  EXPECT_DOUBLE_EQ(second.value, 10.0);
  EXPECT_DOUBLE_EQ(exec.now(), 4.0);
  EXPECT_DOUBLE_EQ(exec.total_busy_time(), 6.0);
}

TEST(VirtualExecutor, WaitAllIsABarrier) {
  VirtualExecutor exec(3);
  exec.submit(0, [] { return 1.0; }, 1.0);
  exec.submit(1, [] { return 2.0; }, 3.0);
  const auto done = exec.wait_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(exec.num_running(), 0u);
  EXPECT_DOUBLE_EQ(exec.now(), 3.0);
}

TEST(VirtualExecutor, AdvanceToNeverPassesARunningFinish) {
  VirtualExecutor exec(2);
  exec.advance_to(2.0);  // idle pool: the clock simply moves
  EXPECT_DOUBLE_EQ(exec.now(), 2.0);
  exec.advance_to(1.0);  // never backward
  EXPECT_DOUBLE_EQ(exec.now(), 2.0);
  exec.submit(0, [] { return 0.0; }, 3.0);  // finishes at 5
  exec.advance_to(9.0);                     // capped at the finish
  EXPECT_DOUBLE_EQ(exec.now(), 5.0);
  const auto c = exec.wait_next();
  EXPECT_DOUBLE_EQ(c.start, 2.0);
  EXPECT_DOUBLE_EQ(c.finish, 5.0);
}

TEST(ThreadExecutor, RunsWorkOnWorkersAndRecordsWallTime) {
  ThreadExecutor exec(2);
  EXPECT_EQ(exec.num_workers(), 2u);
  exec.submit(3, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return 7.0;
  }, 1.0);
  exec.submit(4, [] { return 9.0; }, 1.0);
  EXPECT_FALSE(exec.has_idle_worker());

  double sum = 0.0;
  for (int i = 0; i < 2; ++i) {
    const auto c = exec.wait_next();
    EXPECT_TRUE(c.tag == 3u || c.tag == 4u);
    EXPECT_LT(c.worker, 2u);
    EXPECT_LE(c.start, c.finish);
    EXPECT_LE(c.finish, exec.now() + 1e-9);
    sum += c.value;
  }
  EXPECT_DOUBLE_EQ(sum, 16.0);
  EXPECT_TRUE(exec.has_idle_worker());
  EXPECT_GT(exec.total_busy_time(), 0.0);
}

TEST(ThreadExecutor, SingleWorkerCompletesFifo) {
  ThreadExecutor exec(1);
  for (std::size_t round = 0; round < 8; ++round) {
    exec.submit(round, [round] { return static_cast<double>(round); }, 1.0);
    const auto c = exec.wait_next();
    EXPECT_EQ(c.tag, round);
    EXPECT_DOUBLE_EQ(c.value, static_cast<double>(round));
  }
}

TEST(ThreadExecutor, WorkerExceptionReachesTheWaiter) {
  // A throwing work item must not hang wait_next (the pre-seam real
  // threads loop dropped the future and deadlocked) and must surface the
  // original exception type.
  ThreadExecutor exec(2);
  exec.submit(0, []() -> double { throw std::runtime_error("boom"); }, 1.0);
  EXPECT_THROW(exec.wait_next(), std::runtime_error);
  EXPECT_EQ(exec.num_running(), 0u);

  // The executor stays usable after a failed job.
  exec.submit(1, [] { return 5.0; }, 1.0);
  EXPECT_DOUBLE_EQ(exec.wait_next().value, 5.0);
}

TEST(Executors, ExceptionsSurfaceAtWaitNextOnBothBackends) {
  // Regression: VirtualExecutor used to run the work eagerly inside
  // submit(), so a throwing objective escaped from submit() there but
  // from wait_next() on real threads — engine error handling could not be
  // backend-agnostic. Both backends must now deliver the exception at
  // wait_next(), with the original type, and stay usable afterwards.
  VirtualExecutor virt(2);
  EXPECT_NO_THROW(virt.submit(
      0, []() -> double { throw std::runtime_error("virtual boom"); }, 1.0));
  EXPECT_THROW(virt.wait_next(), std::runtime_error);
  virt.submit(1, [] { return 5.0; }, 1.0);
  EXPECT_DOUBLE_EQ(virt.wait_next().value, 5.0);

  ThreadExecutor threads(2);
  EXPECT_NO_THROW(threads.submit(
      0, []() -> double { throw std::runtime_error("thread boom"); }, 1.0));
  EXPECT_THROW(threads.wait_next(), std::runtime_error);
  threads.submit(1, [] { return 5.0; }, 1.0);
  EXPECT_DOUBLE_EQ(threads.wait_next().value, 5.0);
}

TEST(VirtualExecutor, FailedJobStillAdvancesTheClock) {
  // The failed evaluation occupied its worker for the full duration; the
  // schedule (and every later completion's timing) must reflect that.
  VirtualExecutor exec(1);
  exec.submit(0, []() -> double { throw std::runtime_error("boom"); }, 3.0);
  EXPECT_THROW(exec.wait_next(), std::runtime_error);
  exec.submit(1, [] { return 1.0; }, 2.0);
  const auto c = exec.wait_next();
  EXPECT_DOUBLE_EQ(c.start, 3.0);
  EXPECT_DOUBLE_EQ(c.finish, 5.0);
}

TEST(VirtualExecutor, PerWorkerBusyMatchesSubmittedDurations) {
  VirtualExecutor exec(2);
  exec.submit(0, [] { return 1.0; }, 4.0);  // worker 1 (back of idle list)
  exec.submit(1, [] { return 2.0; }, 2.0);  // worker 0
  exec.wait_all();
  const auto busy = exec.per_worker_busy();
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_DOUBLE_EQ(busy[0], 2.0);
  EXPECT_DOUBLE_EQ(busy[1], 4.0);
  EXPECT_DOUBLE_EQ(exec.total_busy_time(), 6.0);
}

TEST(ThreadExecutor, PerWorkerBusySumsToTotal) {
  ThreadExecutor exec(2);
  for (std::size_t tag = 0; tag < 4; ++tag) {
    exec.submit(tag, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return 1.0;
    }, 1.0);
    if (tag % 2 == 1) {
      exec.wait_next();
      exec.wait_next();
    }
  }
  const auto busy = exec.per_worker_busy();
  ASSERT_EQ(busy.size(), 2u);
  double sum = 0.0;
  for (double b : busy) {
    EXPECT_GE(b, 0.0);
    sum += b;
  }
  EXPECT_NEAR(sum, exec.total_busy_time(), 1e-9);
  EXPECT_GT(sum, 0.0);
}

TEST(ThreadExecutor, AbandonedWorkIsJoinedOnDestruction) {
  std::atomic<int> finished{0};
  {
    ThreadExecutor exec(2);
    exec.submit(0, [&finished] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++finished;
      return 0.0;
    }, 1.0);
    exec.submit(1, [&finished] {
      ++finished;
      return 0.0;
    }, 1.0);
    // Destroyed with jobs in flight (the run aborted) — must join cleanly.
  }
  EXPECT_EQ(finished.load(), 2);
}

TEST(Executors, ReportTheirClockDiscipline) {
  VirtualExecutor v(1);
  EXPECT_FALSE(v.wall_clock());
  ThreadExecutor t(1);
  EXPECT_TRUE(t.wall_clock());
}

TEST(VirtualExecutor, TryWaitNextNeverTimesOut) {
  VirtualExecutor exec(1);
  exec.submit(7, [] { return 5.0; }, 3.0);
  // Virtual completions are always computable: a zero budget still
  // delivers.
  const auto c = exec.try_wait_next(0.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->tag, 7u);
  EXPECT_DOUBLE_EQ(c->value, 5.0);
}

TEST(ThreadExecutor, TryWaitNextDeliversAndTimesOut) {
  ThreadExecutor exec(1);
  std::atomic<bool> release{false};
  exec.submit(3, [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 8.0;
  }, 1.0);

  // Still hung: the bounded wait gives up...
  EXPECT_FALSE(exec.try_wait_next(0.01).has_value());
  EXPECT_EQ(exec.num_running(), 1u);

  // ...and delivers once the work finishes.
  release.store(true);
  const auto c = exec.try_wait_next(5.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->tag, 3u);
  EXPECT_DOUBLE_EQ(c->value, 8.0);
  EXPECT_EQ(exec.num_running(), 0u);
}

TEST(ThreadExecutor, TryWaitNextRethrowsWorkerExceptions) {
  ThreadExecutor exec(1);
  exec.submit(0, []() -> double { throw std::runtime_error("worker"); },
              1.0);
  EXPECT_THROW(
      {
        while (!exec.try_wait_next(0.05).has_value()) {
        }
      },
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Schedule pin: the virtual schedule is part of every journal, snapshot and
// async proposal stream, so its exact order and timing are pinned.
// ---------------------------------------------------------------------------

/// FNV-1a 64 over the little-endian bytes of each added word.
class ScheduleHash {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

TEST(VirtualExecutor, ScheduleMatchesPinnedHash) {
  // 4000 seeded jobs on 7 workers through the Executor interface.
  // Durations come from a small set, so exact finish-time ties (FIFO) are
  // common; every 97th job throws; advance_to requests land before, at
  // and beyond the earliest running finish.
  constexpr std::size_t kJobs = 4000;
  const double kDurations[] = {0.5, 1.0, 1.0, 1.5, 2.0, 3.0, 0.25};
  VirtualExecutor virt(7);
  Executor& exec = virt;
  Rng rng(20);
  ScheduleHash hash;
  std::size_t issued = 0;
  while (issued < kJobs || exec.num_running() > 0) {
    const std::size_t idle = exec.num_workers() - exec.num_running();
    const std::size_t fill = idle == 0 ? 0 : 1 + rng.index(idle);
    for (std::size_t i = 0; i < fill && issued < kJobs; ++i) {
      const std::size_t tag = issued++;
      exec.submit(
          tag,
          [tag]() -> double {
            if (tag % 97 == 96) throw std::runtime_error("pinned failure");
            return 0.25 * static_cast<double>(tag);
          },
          kDurations[rng.index(7)]);
    }
    if (rng.uniform() < 0.2) {
      exec.advance_to(exec.now() + rng.uniform(-1.0, 2.0));
    }
    if (exec.num_running() == 0) continue;
    try {
      const Completion c = exec.wait_next();
      hash.add(static_cast<std::uint64_t>(c.tag));
      hash.add(static_cast<std::uint64_t>(c.worker));
      hash.add(c.start);
      hash.add(c.finish);
      hash.add(c.value);
    } catch (const std::runtime_error&) {
      hash.add(std::uint64_t{0xFA11ED});
      hash.add(exec.now());
    }
  }
  hash.add(exec.total_busy_time());
  for (const double busy : exec.per_worker_busy()) hash.add(busy);
  // Any change to tie order, worker choice, the clock or busy accounting
  // moves this value.
  EXPECT_EQ(hash.value(), 1510906873160185599ull);
}

TEST(Executors, RejectMisuse) {
  VirtualExecutor v(1);
  EXPECT_THROW(v.wait_next(), InvalidArgument);
  v.submit(0, [] { return 0.0; }, 1.0);
  EXPECT_THROW(v.submit(1, [] { return 0.0; }, 1.0), InvalidArgument);

  ThreadExecutor t(1);
  EXPECT_THROW(t.wait_next(), InvalidArgument);
  t.submit(0, [] { return 0.0; }, 1.0);
  EXPECT_THROW(t.submit(1, [] { return 0.0; }, 1.0), InvalidArgument);
  t.wait_next();
}

// ---------------------------------------------------------------------------
// VirtualScheduler: the virtual-time schedule VirtualExecutor keeps — event
// order, ties, worker reuse, the clock and busy accounting.
// ---------------------------------------------------------------------------

TEST(VirtualScheduler, SingleJobLifecycle) {
  VirtualExecutor exec(2);
  EXPECT_EQ(exec.num_workers(), 2u);
  EXPECT_TRUE(exec.has_idle_worker());
  EXPECT_DOUBLE_EQ(exec.now(), 0.0);

  exec.submit(/*tag=*/7, [] { return 1.5; }, /*duration=*/5.0);
  EXPECT_EQ(exec.num_running(), 1u);
  const auto job = exec.wait_next();
  EXPECT_EQ(job.tag, 7u);
  EXPECT_DOUBLE_EQ(job.value, 1.5);
  EXPECT_DOUBLE_EQ(job.start, 0.0);
  EXPECT_DOUBLE_EQ(job.finish, 5.0);
  EXPECT_DOUBLE_EQ(exec.now(), 5.0);
  EXPECT_EQ(exec.num_running(), 0u);
}

TEST(VirtualScheduler, CompletionsInFinishOrder) {
  VirtualExecutor exec(3);
  exec.submit(0, [] { return 0.0; }, 9.0);
  exec.submit(1, [] { return 0.0; }, 3.0);
  exec.submit(2, [] { return 0.0; }, 6.0);
  EXPECT_EQ(exec.wait_next().tag, 1u);
  EXPECT_EQ(exec.wait_next().tag, 2u);
  EXPECT_EQ(exec.wait_next().tag, 0u);
  EXPECT_DOUBLE_EQ(exec.now(), 9.0);
}

TEST(VirtualScheduler, AsyncReuseOfFreedWorker) {
  // Submit takes the worker at the back of the idle list; a completed
  // worker goes back on the back, so the next submit reuses it.
  VirtualExecutor exec(2);
  exec.submit(0, [] { return 0.0; }, 4.0);
  exec.submit(1, [] { return 0.0; }, 10.0);
  const auto first = exec.wait_next();  // tag 0 at t=4
  EXPECT_EQ(first.tag, 0u);
  EXPECT_EQ(first.worker, 1u);
  exec.submit(2, [] { return 0.0; }, 2.0);  // starts at t=4 on that worker
  const auto second = exec.wait_next();
  EXPECT_EQ(second.tag, 2u);
  EXPECT_EQ(second.worker, first.worker);
  EXPECT_DOUBLE_EQ(second.start, 4.0);
  EXPECT_DOUBLE_EQ(second.finish, 6.0);
}

TEST(VirtualScheduler, EqualFinishTimesCompleteFifo) {
  // Equal-duration jobs (the norm under a constant sim_time) tie on
  // finish time; completion must follow submission order, not the heap's
  // internal order.
  VirtualExecutor exec(4);
  for (std::size_t tag = 0; tag < 4; ++tag) {
    exec.submit(tag, [] { return 0.0; }, 2.0);
  }
  for (std::size_t tag = 0; tag < 4; ++tag) {
    EXPECT_EQ(exec.wait_next().tag, tag);
  }
  // Also across a refill: freed workers keep FIFO order within the tie.
  for (std::size_t tag = 10; tag < 14; ++tag) {
    exec.submit(tag, [] { return 0.0; }, 1.0);
  }
  for (std::size_t tag = 10; tag < 14; ++tag) {
    EXPECT_EQ(exec.wait_next().tag, tag);
  }
}

TEST(VirtualScheduler, RejectsMisuse) {
  EXPECT_THROW(VirtualExecutor(0), InvalidArgument);
  VirtualExecutor exec(1);
  int calls = 0;
  const auto work = [&calls] {
    ++calls;
    return 0.0;
  };
  EXPECT_THROW(exec.submit(0, work, 0.0), InvalidArgument);
  EXPECT_THROW(exec.submit(0, work, -1.0), InvalidArgument);
  // A refused submit runs nothing, takes no worker and books no time.
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(exec.num_running(), 0u);
  EXPECT_DOUBLE_EQ(exec.total_busy_time(), 0.0);
  exec.submit(1, work, 1.0);
  EXPECT_EQ(exec.wait_next().tag, 1u);
  EXPECT_EQ(calls, 1);
}

TEST(VirtualScheduler, WaitAllIsABarrier) {
  VirtualExecutor exec(3);
  exec.submit(0, [] { return 1.0; }, 1.0);
  exec.submit(1, [] { return 2.0; }, 7.0);
  exec.submit(2, [] { return 3.0; }, 3.0);
  const auto done = exec.wait_all();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(exec.num_running(), 0u);
  EXPECT_DOUBLE_EQ(exec.now(), 7.0);
  // Drained in completion order.
  EXPECT_EQ(done[0].tag, 0u);
  EXPECT_EQ(done[1].tag, 2u);
  EXPECT_EQ(done[2].tag, 1u);
  // The next batch starts at the barrier, not at its worker's last finish.
  exec.submit(3, [] { return 4.0; }, 2.0);
  EXPECT_DOUBLE_EQ(exec.wait_next().start, 7.0);
}

TEST(VirtualScheduler, BusyTimeAndUtilization) {
  VirtualExecutor exec(2);
  exec.submit(0, [] { return 0.0; }, 4.0);
  exec.submit(1, [] { return 0.0; }, 8.0);
  // Busy time is booked in full at submit.
  EXPECT_DOUBLE_EQ(exec.total_busy_time(), 12.0);
  exec.wait_all();
  EXPECT_DOUBLE_EQ(exec.total_busy_time(), 12.0);
  EXPECT_DOUBLE_EQ(exec.now(), 8.0);
  // 12 busy seconds over 2 workers * 8s horizon, under either policy.
  const auto cmp = compare_policies({4.0, 8.0}, 2);
  EXPECT_DOUBLE_EQ(cmp.sync_utilization, 0.75);
  EXPECT_DOUBLE_EQ(cmp.async_utilization, 0.75);
}

TEST(VirtualScheduler, WorkersNeverOverlap) {
  // Property: on each worker, job intervals are disjoint.
  Rng rng(1);
  VirtualExecutor exec(4);
  std::vector<Completion> trace;
  std::size_t issued = 0;
  while (issued < 100 || exec.num_running() > 0) {
    while (exec.has_idle_worker() && issued < 100) {
      exec.submit(issued++, [] { return 0.0; }, rng.uniform(0.5, 10.0));
    }
    if (exec.num_running() > 0) trace.push_back(exec.wait_next());
  }
  ASSERT_EQ(trace.size(), 100u);
  std::sort(trace.begin(), trace.end(),
            [](const Completion& a, const Completion& b) {
              return a.worker == b.worker ? a.start < b.start
                                          : a.worker < b.worker;
            });
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].worker == trace[i - 1].worker) {
      EXPECT_GE(trace[i].start, trace[i - 1].finish - 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// ThreadPool: the worker threads and the FIFO job queue ThreadExecutor owns.
// ---------------------------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedTasks) {
  // Work runs on the pool's own threads, never inline on the caller's.
  ThreadExecutor exec(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  const auto job = [&on_caller, caller](double value) {
    return [&on_caller, caller, value] {
      if (std::this_thread::get_id() == caller) ++on_caller;
      return value;
    };
  };
  exec.submit(0, job(21.0 * 2), 1.0);
  exec.submit(1, job(-1.5), 1.0);
  double values[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    const Completion c = exec.wait_next();
    ASSERT_LT(c.tag, 2u);
    values[c.tag] = c.value;
  }
  EXPECT_DOUBLE_EQ(values[0], 42.0);
  EXPECT_DOUBLE_EQ(values[1], -1.5);
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ThreadPool, RunsManyTasksExactlyOnce) {
  constexpr std::size_t kJobs = 200;
  ThreadExecutor exec(4);
  std::vector<std::atomic<int>> runs(kJobs);
  std::vector<int> completed(kJobs, 0);
  std::size_t issued = 0;
  while (issued < kJobs || exec.num_running() > 0) {
    while (exec.has_idle_worker() && issued < kJobs) {
      const std::size_t tag = issued++;
      exec.submit(tag, [&runs, tag] {
        ++runs[tag];
        return static_cast<double>(tag);
      }, 1.0);
    }
    const Completion c = exec.wait_next();
    ASSERT_LT(c.tag, kJobs);
    EXPECT_LT(c.worker, 4u);
    EXPECT_DOUBLE_EQ(c.value, static_cast<double>(c.tag));
    ++completed[c.tag];
  }
  for (std::size_t tag = 0; tag < kJobs; ++tag) {
    EXPECT_EQ(runs[tag].load(), 1) << tag;
    EXPECT_EQ(completed[tag], 1) << tag;
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  // Every submitted job runs before the threads join: one waited for, one
  // finished but never waited for, one possibly still queued.
  std::atomic<int> finished{0};
  const auto job = [&finished] {
    ++finished;
    return 0.0;
  };
  for (int round = 0; round < 10; ++round) {
    ThreadExecutor exec(2);
    exec.submit(0, job, 1.0);
    exec.submit(1, job, 1.0);
    exec.wait_next();
    exec.submit(2, job, 1.0);
  }  // each destructor joins
  EXPECT_EQ(finished.load(), 30);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadExecutor(0), InvalidArgument);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadExecutor exec(3);
  EXPECT_EQ(exec.num_workers(), 3u);
  EXPECT_EQ(exec.num_running(), 0u);
  for (std::size_t tag = 0; tag < 3; ++tag) {
    exec.submit(tag, [] { return 0.0; }, 1.0);
  }
  EXPECT_EQ(exec.num_running(), 3u);
  EXPECT_FALSE(exec.has_idle_worker());
  EXPECT_EQ(exec.wait_all().size(), 3u);
  EXPECT_EQ(exec.per_worker_busy().size(), 3u);
}

// ---------------------------------------------------------------------------
// compare_policies — the Fig. 1 story
// ---------------------------------------------------------------------------

TEST(ComparePolicies, Fig1Example) {
  // Batch of 3 workers; heterogeneous durations make the sync schedule
  // wait for stragglers every batch.
  const std::vector<double> durations = {5, 1, 1, 5, 1, 1, 5, 1, 1};
  const auto cmp = compare_policies(durations, 3);
  // Sync: 3 batches, each dominated by the 5s job -> 15s.
  EXPECT_DOUBLE_EQ(cmp.sync_makespan, 15.0);
  // Async: total work 21s over 3 workers; the greedy schedule packs the
  // short jobs behind the long ones.
  EXPECT_LT(cmp.async_makespan, cmp.sync_makespan);
  EXPECT_GT(cmp.async_utilization, cmp.sync_utilization);
  // Each trace holds every job once, in completion order.
  ASSERT_EQ(cmp.sync_trace.size(), durations.size());
  ASSERT_EQ(cmp.async_trace.size(), durations.size());
  for (std::size_t i = 1; i < durations.size(); ++i) {
    EXPECT_GE(cmp.sync_trace[i].finish, cmp.sync_trace[i - 1].finish);
    EXPECT_GE(cmp.async_trace[i].finish, cmp.async_trace[i - 1].finish);
  }
}

TEST(ComparePolicies, UniformDurationsShowNoGap) {
  const std::vector<double> durations(12, 2.0);
  const auto cmp = compare_policies(durations, 4);
  EXPECT_DOUBLE_EQ(cmp.sync_makespan, cmp.async_makespan);
  EXPECT_DOUBLE_EQ(cmp.sync_utilization, 1.0);
  EXPECT_DOUBLE_EQ(cmp.async_utilization, 1.0);
}

TEST(ComparePolicies, AsyncNeverSlower) {
  // Property over random workloads: async makespan <= sync makespan, and
  // both respect the trivial lower bounds.
  Rng rng(2);
  for (int rep = 0; rep < 25; ++rep) {
    const std::size_t n = 10 + rng.index(40);
    const std::size_t workers = 2 + rng.index(6);
    std::vector<double> durations(n);
    double total = 0.0, longest = 0.0;
    for (auto& d : durations) {
      d = rng.uniform(0.1, 20.0);
      total += d;
      longest = std::max(longest, d);
    }
    const auto cmp = compare_policies(durations, workers);
    EXPECT_LE(cmp.async_makespan, cmp.sync_makespan + 1e-9);
    EXPECT_GE(cmp.async_makespan,
              std::max(longest, total / static_cast<double>(workers)) -
                  1e-9);
    EXPECT_LE(cmp.async_utilization, 1.0 + 1e-12);
  }
}

TEST(ComparePolicies, GapGrowsWithBatchSizeOnSkewedWork) {
  // The paper: "the time reduction effect will deteriorate quickly" for
  // sync as B grows. With heavy-tailed durations, the relative async
  // saving should be larger at B=15 than at B=5.
  Rng rng(3);
  std::vector<double> durations(300);
  for (auto& d : durations) d = std::exp(rng.normal(0.0, 0.6));
  const auto b5 = compare_policies(durations, 5);
  const auto b15 = compare_policies(durations, 15);
  const double saving5 = 1.0 - b5.async_makespan / b5.sync_makespan;
  const double saving15 = 1.0 - b15.async_makespan / b15.sync_makespan;
  EXPECT_GT(saving15, saving5);
}

}  // namespace
}  // namespace easybo::sched
