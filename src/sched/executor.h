#pragma once
/// \file executor.h
/// \brief The execution seam between the BO algorithm and the machinery
/// that actually evaluates the objective.
///
/// The paper's Algorithm 1 ("propose on an idle worker, hallucinate the
/// pending points") is one algorithm; where an evaluation runs is an
/// execution concern. There is exactly one class per backend:
/// VirtualExecutor, a virtual-time discrete-event pool for deterministic
/// experiments, and ThreadExecutor, a pool of std::threads for genuinely
/// expensive objectives. BoEngine drives either one through
/// EvalSupervisor, so every issue policy (sequential / sync batch / async
/// batch) and every acquisition runs identically on both backends;
/// behaviour cannot drift between them.
///
///   while (exec.has_idle_worker()) exec.submit(tag, work, duration);
///   auto done = exec.wait_next();   // blocks; rethrows worker exceptions
///
/// Submitted work owns whatever it calls: an executor may outlive the
/// engine that fed it, in either declaration order.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace easybo::sched {

/// One finished evaluation as seen by the algorithm.
struct Completion {
  std::size_t tag = 0;     ///< caller-defined payload (proposal index)
  double value = 0.0;      ///< result of the submitted work
  std::size_t worker = 0;  ///< worker slot that ran it
  double start = 0.0;      ///< seconds (virtual or wall) since run start
  double finish = 0.0;
};

/// Fixed pool of workers, virtual or real.
class Executor {
 public:
  virtual ~Executor() = default;

  virtual std::size_t num_workers() const = 0;
  virtual std::size_t num_running() const = 0;
  bool has_idle_worker() const { return num_running() < num_workers(); }

  /// Starts \p work on an idle worker. \p duration is the job's virtual
  /// duration; real executors ignore it and measure wall clock instead.
  /// Throws InvalidArgument when no worker is idle.
  virtual void submit(std::size_t tag, std::function<double()> work,
                      double duration) = 0;

  /// Blocks until the earliest completion and returns it. When the work
  /// threw, the exception is rethrown HERE — the waiter owns failure
  /// handling, a worker never swallows it. Throws InvalidArgument when
  /// nothing is running.
  virtual Completion wait_next() = 0;

  /// Bounded wait: like wait_next(), but gives up after \p timeout_seconds
  /// of real blocking and returns nullopt. Executors whose completions
  /// never require real waiting (virtual time: the next completion is
  /// always computable) return wait_next() directly and never time out.
  /// Worker exceptions are rethrown here exactly as in wait_next().
  /// Throws InvalidArgument when nothing is running.
  virtual std::optional<Completion> try_wait_next(double timeout_seconds) = 0;

  /// Clock discipline: true when start/finish/now() are wall-clock seconds
  /// measured by real execution, false when they are virtual seconds fixed
  /// at submit time. EvalSupervisor keys its deadline mechanism on this —
  /// on virtual time an over-long job is cut at submit (duration capped at
  /// the deadline); on a wall clock it arms a watchdog around wait_next.
  virtual bool wall_clock() const = 0;

  /// Barrier: drains every running job, in completion order.
  std::vector<Completion> wait_all();

  /// Seconds (virtual or wall) elapsed since the executor started.
  virtual double now() const = 0;

  /// Lower-bounds the executor clock at \p t. Meaningful only for virtual
  /// time (checkpoint resume re-anchors re-submitted work at its original
  /// submission time); wall-clock executors advance on their own and
  /// ignore it. Never moves time backward or past a running completion.
  virtual void advance_to(double /*t*/) {}

  /// Sum over workers of busy time accumulated so far.
  virtual double total_busy_time() const = 0;

  /// Busy seconds accumulated by each worker slot (virtual or wall),
  /// indexed by the Completion::worker ids. Idle time of slot w over a
  /// run is now() - per_worker_busy()[w] — the per-worker utilization
  /// split the observability layer exports.
  virtual std::vector<double> per_worker_busy() const = 0;
};

/// Virtual-time executor: a fixed pool of virtual workers with exact
/// event-driven time advance. This reproduces the paper's wall-clock
/// results deterministically and for free, as its footnote 1 prescribes
/// (model and acquisition time are excluded from the reported times).
///
/// A job starts at submit on the idle worker at the back of the idle list,
/// at start = now() and finish = now() + duration; its full duration is
/// booked as busy time right then. wait_next() completes jobs in (finish,
/// submission) order — equal finish times, the norm under a constant
/// sim_time, complete first-in first-out — moves now() to the finish and
/// puts the worker back on the back of the idle list.
///
/// Work is evaluated eagerly at submit (the objectives in the experiment
/// regime are deterministic); the schedule controls WHEN the value becomes
/// visible to the caller, which is all that matters for the information
/// flow of the algorithm. A throwing work item is captured at submit and
/// rethrown when ITS completion is waited for, after the clock has moved —
/// the same call site where ThreadExecutor surfaces worker exceptions.
class VirtualExecutor final : public Executor {
 public:
  /// Throws InvalidArgument when \p num_workers is zero.
  explicit VirtualExecutor(std::size_t num_workers);

  std::size_t num_workers() const override { return busy_.size(); }
  std::size_t num_running() const override { return running_.size(); }
  /// Throws InvalidArgument when no worker is idle or \p duration is not
  /// positive.
  void submit(std::size_t tag, std::function<double()> work,
              double duration) override;
  Completion wait_next() override;
  std::optional<Completion> try_wait_next(double /*timeout*/) override {
    return wait_next();  // virtual time never blocks for real
  }
  bool wall_clock() const override { return false; }
  double now() const override { return now_; }
  /// Advances now() to \p t without completing anything: never backward,
  /// and never past the earliest running finish (the request is capped
  /// there, keeping completion order intact).
  void advance_to(double t) override;
  double total_busy_time() const override { return total_busy_; }
  std::vector<double> per_worker_busy() const override { return busy_; }

 private:
  /// One running job: its completion (finish fixed at submit) and the
  /// outcome of its eagerly evaluated work.
  struct Running {
    Completion completion;
    std::exception_ptr error;
    std::size_t seq = 0;  ///< submission order, breaks finish-time ties
  };

  /// Heap order of running_: the top finishes earliest, and equal finish
  /// times complete in submission order.
  static bool finishes_later(const Running& a, const Running& b);

  double now_ = 0.0;
  double total_busy_ = 0.0;
  std::vector<double> busy_;  ///< per-worker share of total_busy_
  std::vector<std::size_t> idle_;
  std::vector<Running> running_;  ///< min-heap on (finish, seq)
  std::size_t next_seq_ = 0;
};

/// Real-threads executor: owns a fixed set of std::threads fed from one
/// FIFO job queue. The objective runs on a worker thread (deferred, unlike
/// VirtualExecutor), start/finish are wall-clock seconds since
/// construction, and a throwing objective is delivered to wait_next() /
/// try_wait_next() — a dropped exception would leave the proposer blocked
/// forever. Jobs start in submission order. The destructor runs every
/// submitted job, then joins: a hung objective blocks destruction
/// (docs/failure-model.md).
class ThreadExecutor final : public Executor {
 public:
  /// Spawns \p num_threads workers; throws InvalidArgument when zero.
  explicit ThreadExecutor(std::size_t num_threads);
  ~ThreadExecutor() override;

  ThreadExecutor(const ThreadExecutor&) = delete;
  ThreadExecutor& operator=(const ThreadExecutor&) = delete;

  std::size_t num_workers() const override { return num_threads_; }
  std::size_t num_running() const override;
  void submit(std::size_t tag, std::function<double()> work,
              double duration) override;
  Completion wait_next() override;
  std::optional<Completion> try_wait_next(double timeout_seconds) override;
  bool wall_clock() const override { return true; }
  double now() const override;
  double total_busy_time() const override;
  std::vector<double> per_worker_busy() const override;

 private:
  struct Job {
    std::size_t tag = 0;
    std::function<double()> work;
  };
  struct Outcome {
    Completion completion;
    std::exception_ptr error;
  };

  void worker_loop();
  /// Lets the workers finish every queued job, then joins them.
  void stop_and_join();
  /// Pops the front of done_ (the caller holds mutex_); rethrows its error.
  Completion take_done();

  const std::chrono::steady_clock::time_point t0_;
  const std::size_t num_threads_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a job or stop arrived
  std::condition_variable done_cv_;  ///< waiters: a completion arrived
  std::deque<Job> queue_;
  std::deque<Outcome> done_;
  std::vector<std::size_t> free_slots_;
  std::size_t in_flight_ = 0;  ///< submitted and not yet waited for
  double total_busy_ = 0.0;
  std::vector<double> busy_per_slot_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// Makespan comparison of the two issue policies on a fixed duration list,
/// used by the Fig. 1 bench: runs the same durations through a synchronous
/// (batched) and an asynchronous (greedy) schedule on a VirtualExecutor
/// with `workers` workers. Each trace holds that schedule's completions in
/// completion order; a job's tag is its index in the duration list.
struct PolicyComparison {
  double sync_makespan = 0.0;
  double async_makespan = 0.0;
  double sync_utilization = 0.0;
  double async_utilization = 0.0;
  std::vector<Completion> sync_trace;
  std::vector<Completion> async_trace;
};

PolicyComparison compare_policies(const std::vector<double>& durations,
                                  std::size_t workers);

}  // namespace easybo::sched
