#pragma once
/// \file supervisor.h
/// \brief Fault-tolerant evaluation supervision over the Executor seam.
///
/// Real simulator farms crash, hang, and emit non-physical results for
/// unstable sizings; an async-batch BO loop built for heavy traffic has to
/// survive those stragglers instead of dying with them (Alvi et al. 2019;
/// Nomura 2020). EvalSupervisor wraps an Executor and classifies every
/// evaluation into ok / exception / timeout / non-finite, enforces a
/// per-attempt deadline, retries transient failures with capped
/// exponential backoff + deterministic jitter, and on exhaustion reports a
/// failed SupervisedCompletion instead of rethrowing.
///
/// Deadline mechanism per backend (keyed on Executor::wall_clock()):
///  - virtual time: the job's duration is known at submit, so an over-long
///    evaluation is cut there — it occupies its worker until exactly the
///    deadline (a simulator killed at its time limit) and completes with
///    status Timeout.
///  - wall clock: a watchdog around wait_next. When a job is overdue the
///    supervisor reports Timeout immediately and *abandons* the worker:
///    the hung objective cannot be killed safely in C++, so its slot stays
///    busy until the objective actually returns, at which point the stale
///    completion is swallowed and the slot rejoins the pool. Its worker id
///    is unknown at report time, so the synthesized completion carries
///    worker == num_workers() as a sentinel. A truly unbounded hang costs
///    one worker for the rest of the run (graceful degradation) and blocks
///    executor destruction — see docs/failure-model.md.
///
/// What the caller DOES with a failure — abort, discard, penalize — is
/// policy, and lives in BoEngine (BoConfig::on_eval_failure). This layer
/// only makes failures observable and survivable. With the default config
/// (no timeout, no retries) the supervisor is a transparent pass-through:
/// same schedule, same values.
///
/// Counters reported to the trace sink: "eval.exceptions",
/// "eval.nonfinite", "eval.timeouts" (one per failed attempt) and
/// "eval.retries" (one per relaunch).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/trace.h"
#include "sched/executor.h"

namespace easybo::sched {

/// Terminal classification of one supervised evaluation.
enum class EvalStatus {
  Ok,         ///< finite value delivered
  Exception,  ///< the objective threw (every attempt)
  Timeout,    ///< the attempt exceeded its deadline
  NonFinite,  ///< the objective returned NaN or infinity
};

/// Stable snake_case name ("ok", "exception", "timeout", "non_finite");
/// also the status string in the metrics eval log.
const char* to_string(EvalStatus status);

/// Supervision knobs. The defaults make the supervisor a pass-through.
struct SupervisorConfig {
  /// Per-attempt deadline in executor seconds (virtual or wall);
  /// <= 0 disables deadlines.
  double timeout = 0.0;
  /// Retries after the first attempt, for transient failures
  /// (exceptions and non-finite values). Timeouts are never retried: a
  /// timeout already burned a full deadline, and a deterministic
  /// over-long simulation will time out again.
  std::size_t max_retries = 0;
  std::uint64_t seed = 0x5AFEB0FFu;  ///< backoff jitter key
};

/// The delay before 1-based retry \p retry of evaluation \p tag:
/// min(30 s, 0.5 s * 2^(retry-1)) scaled by 1 + 0.1 (2u - 1), u in [0, 1)
/// a splitmix64 hash of (\p seed, \p tag, \p retry). A pure function, so
/// no supervisor state needs checkpointing (docs/checkpoint-format.md).
double backoff_delay(std::size_t retry, std::uint64_t seed,
                     std::size_t tag);

/// One supervised evaluation as seen by the algorithm: the final
/// completion plus its classification. start is the FIRST attempt's start
/// and finish the last attempt's finish, so finish - start spans retries
/// and backoff — the full latency the proposer experienced.
struct SupervisedCompletion {
  Completion completion;
  EvalStatus status = EvalStatus::Ok;
  std::uint32_t attempts = 1;    ///< attempts actually made (1 + retries)
  std::string error;             ///< what() of the last exception, if any
  std::exception_ptr exception;  ///< last exception (for abort rethrow)

  bool ok() const { return status == EvalStatus::Ok; }
};

/// Decorator over an Executor adding classification, deadlines, and
/// retries. Mirrors the Executor submit/wait surface so BoEngine drives it
/// exactly like the raw seam; work submitted here NEVER makes wait_next
/// throw — failures come back as data.
class EvalSupervisor {
 public:
  /// \p exec must outlive the supervisor. \p trace may be null (no
  /// counters recorded, zero cost — the library-wide obs convention).
  EvalSupervisor(Executor& exec, SupervisorConfig config,
                 obs::TraceSink* trace = nullptr);

  std::size_t num_workers() const { return exec_.num_workers(); }

  /// Supervised evaluations still outstanding. An abandoned hung worker
  /// (wall-clock timeout) no longer counts, even though its slot is still
  /// physically busy.
  std::size_t num_running() const;

  /// Physical idleness: whether submit() can start work right now. An
  /// abandoned worker is NOT idle until its objective actually returns.
  bool has_idle_worker() const { return exec_.has_idle_worker(); }

  /// Workers physically idle right now (abandoned hung workers are busy).
  std::size_t num_idle_workers() const {
    return exec_.num_workers() - exec_.num_running();
  }

  double now() const { return exec_.now(); }

  /// Starts a supervised evaluation. \p tag and \p duration as in
  /// Executor::submit; retries re-submit the same work with the same
  /// duration (plus backoff).
  void submit(std::size_t tag, std::function<double()> work,
              double duration);

  /// Virtual seconds an evaluation of \p duration that made \p attempts
  /// attempts occupied: each attempt cut at the deadline, plus the
  /// backoff before each retry — a pure function of tag, duration and
  /// attempts, as backoff_delay is. What a resume books for a journaled
  /// outcome it does not re-run.
  double chain_occupancy(std::size_t tag, double duration,
                         std::uint32_t attempts) const;

  /// Blocks until the next supervised evaluation reaches a terminal
  /// outcome (retries happen internally) and returns it. Never rethrows
  /// objective exceptions. Throws InvalidArgument when nothing is running.
  SupervisedCompletion wait_next();

  const Executor& executor() const { return exec_; }

  /// Workers abandoned after a wall-clock timeout and never reclaimed:
  /// each one is a hung objective still occupying its slot. Exposed so
  /// the engine can emit the "sched.orphaned_workers" counter (and front
  /// ends can warn) — a permanently degraded pool is otherwise invisible
  /// outside this class.
  std::size_t orphans() const { return orphans_; }

  /// Moves the clock to \p t for checkpoint resume (Executor::advance_to),
  /// first settling each attempt that ends before \p t at its own finish:
  /// a failed one is retried where the original run retried it, a
  /// terminal outcome is held for the next wait_next(). A no-op on the
  /// wall clock.
  void advance_clock(double t);

 private:
  /// Written on the worker thread before its completion is enqueued,
  /// read by the proposer after wait_next returns it — the executor's
  /// queue hand-off orders the two.
  struct AttemptSlot {
    bool threw = false;
    std::exception_ptr error;
    std::string what;
  };

  /// One in-flight attempt, keyed by the underlying executor tag.
  struct Flight {
    std::size_t tag = 0;       ///< caller's tag
    std::function<double()> work;
    double duration = 0.0;     ///< per-attempt virtual duration
    double first_start = 0.0;  ///< executor time of the first attempt
    double deadline = 0.0;     ///< absolute (wall watchdog only)
    std::uint32_t attempt = 1;
    bool cut_at_deadline = false;  ///< virtual: duration was capped
    bool orphaned = false;         ///< wall: reported, worker abandoned
    std::shared_ptr<AttemptSlot> slot = nullptr;
  };

  /// Executor seconds one attempt of \p duration occupies: on virtual
  /// time \p duration cut at the deadline, on the wall clock \p duration.
  double occupancy(double duration) const;

  /// Submits one attempt: \p occupied virtual seconds (backoff included),
  /// or \p delay seconds of backoff slept on the worker on the wall clock.
  void launch(Flight flight, double delay, double occupied);

  /// Classification of a finished, non-orphaned attempt.
  EvalStatus classify(const Flight& flight, const Completion& c) const;

  /// Consumes one executor completion: its evaluation's terminal outcome,
  /// or nothing when the attempt was relaunched or had been abandoned.
  std::optional<SupervisedCompletion> settle(const Completion& c);

  Executor& exec_;
  SupervisorConfig cfg_;
  obs::TraceSink* trace_;
  std::unordered_map<std::size_t, Flight> inflight_;
  std::deque<SupervisedCompletion> ready_;  ///< settled by advance_clock
  std::size_t next_id_ = 0;
  std::size_t orphans_ = 0;  ///< abandoned workers still physically busy
};

}  // namespace easybo::sched
