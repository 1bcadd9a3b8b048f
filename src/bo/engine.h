#pragma once
/// \file engine.h
/// \brief The BO engine: sequential, synchronous-batch and asynchronous-
/// batch Bayesian optimization drivers over a pluggable executor.
///
/// This implements the paper's Algorithm 1 (EasyBO) plus every comparison
/// algorithm of §IV. The algorithm itself — model state, pending-point
/// bookkeeping, proposal RNG, dedup, failure policies, checkpoint hooks —
/// lives in AskTellCore (bo/ask_tell.h) behind its suggest()/observe()
/// interface; BoEngine is the loop driver that pumps the core against an
/// executor through sched::EvalSupervisor. Each issue policy (sequential /
/// sync batch / async batch) is one pump schedule, and the same schedules
/// drive sched::VirtualExecutor (experiments) and sched::ThreadExecutor
/// (real objectives) — see sched/executor.h — so measured differences come
/// from the algorithm design, not from implementation asymmetries.
///
///   // Virtual time (deterministic; every paper experiment):
///   BoResult r = run_bo(config, bounds, fom, sim_time);
///   // Real threads; executor and engine may be declared in either order:
///   sched::ThreadExecutor threads(4);
///   BoEngine engine(config, bounds, fom);
///   BoResult r2 = engine.run(threads);
///
/// The core models in normalized space: inputs are mapped to [0,1]^d and
/// observations are z-scored before GP fitting, so mu and sigma in the
/// weighted acquisitions are commensurate regardless of the circuit's FOM
/// scale. Hyperparameters are re-trained on a geometrically thinning
/// schedule (after a retrain at n observations the next waits for
/// max(n + refit_every, floor(1.5 n))), warm-started from the previous
/// optimum.

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bo/ask_tell.h"
#include "bo/checkpoint.h"
#include "bo/config.h"
#include "bo/constrained.h"
#include "bo/result.h"
#include "obs/recording.h"
#include "opt/objective.h"
#include "sched/executor.h"
#include "sched/supervisor.h"

namespace easybo::bo {

/// One optimization run of one algorithm configuration on one problem.
///
/// The objective is evaluated through an executor: on the default
/// VirtualExecutor each evaluation costs sim_time(x) virtual seconds on
/// one of `batch` workers; on a ThreadExecutor it runs for real on a
/// worker thread. The issue policy is the configured Mode. Construct,
/// call run(), read the BoResult. Every submitted evaluation shares
/// ownership of the objective and constraints, so an executor may outlive
/// the engine (work still in flight after an aborted run completes safely
/// when the executor drains).
class BoEngine {
 public:
  /// \param config     algorithm configuration (validated here)
  /// \param bounds     design box (the engine normalizes internally)
  /// \param objective  the FOM to maximize (paper Eq. 1)
  /// \param sim_time   virtual duration of one evaluation; defaults to a
  ///                   constant 1s when null (pure sample-efficiency runs)
  /// \param constraints  g_i(x) >= 0, evaluated right after the objective
  ///                   (bo/constrained.h); non-empty requires EasyBO in
  ///                   Sequential or AsyncBatch mode
  BoEngine(BoConfig config, opt::Bounds bounds, opt::Objective objective,
           std::function<double(const Vec&)> sim_time = nullptr,
           std::vector<Constraint> constraints = {});

  /// Executes the full run on a VirtualExecutor with `batch` workers
  /// (one in Sequential mode). Call once per engine instance.
  BoResult run();

  /// Executes the full run on the given executor; its worker count is the
  /// effective degree of parallelism (Sequential mode still issues one
  /// point at a time). Call once per engine instance. Every evaluation is
  /// supervised (sched::EvalSupervisor, configured from the BoConfig
  /// eval_* knobs); what happens when one ultimately fails is
  /// BoConfig::on_eval_failure — under the default Abort policy worker
  /// exceptions propagate out of this call with the run aborted, exactly
  /// the pre-supervision behavior.
  BoResult run(sched::Executor& exec);

  /// Continues a run whose durable state lives under checkpoint base
  /// \p path (BoConfig::checkpoint_path semantics: "<path>.journal" +
  /// "<path>.snapshot", docs/checkpoint-format.md). The engine must be
  /// freshly constructed with the SAME configuration and bounds as the
  /// interrupted run — a config-fingerprint mismatch refuses to resume
  /// (io::CheckpointError). Restores the snapshot, replays the journal
  /// tail through the normal loop (journaled outcomes substituted for
  /// re-evaluation), re-submits work that was in flight at the kill
  /// through sched::EvalSupervisor::resubmit (retry timing is a pure
  /// function of seed, tag and retry, so nothing of it is restored), and
  /// continues — producing the same remaining proposal sequence as the
  /// uninterrupted run. Journaling continues on the same files. Call once
  /// per engine instance, instead of run().
  BoResult resume(const std::string& path);
  BoResult resume(const std::string& path, sched::Executor& exec);

  /// Installs a cooperative stop flag (e.g. set from a SIGINT handler).
  /// Checked at loop boundaries: once true, the engine stops proposing,
  /// drains the evaluations already in flight, writes a final snapshot
  /// (when journaling) and returns with BoResult::interrupted set. The
  /// pointee must outlive the run; nullptr (the default) disables it.
  /// Internally this is the flag source of common::StopToken — the same
  /// machinery the serve layer's request deadlines ride
  /// (common/stop_token.h) — but the engine only ever polls it at loop
  /// boundaries: a mid-suggest cut would need the caller to discard the
  /// core, which a graceful drain precisely must not do.
  void set_stop_token(const std::atomic<bool>* stop) {
    stop_token_ = common::StopToken::from_flag(stop);
  }

  /// Installs a non-owning trace sink for the run (call before run();
  /// nullptr restores the zero-cost null default). When the sink is an
  /// obs::RecordingSink, run() additionally assembles its contents — plus
  /// the executor's per-worker busy/idle — into BoResult::metrics. A
  /// decorator whose recording_sink() chases its forward pointer
  /// (obs::StreamSink) keeps the metrics assembly working through the
  /// chain:
  ///   obs::RecordingSink rec;
  ///   obs::StreamSink stream(path, {}, &rec);
  ///   engine.set_trace(&stream);
  void set_trace(obs::TraceSink* sink);

  /// The ask/tell core the engine drives, e.g. for the final incumbent.
  const AskTellCore& core() const { return core_; }

 private:
  /// One terminal evaluation outcome as delivered to observe_arrival():
  /// either a real supervised completion or a journaled one re-enacted
  /// during resume replay. outcome.start/finish are on the run's logical
  /// clock — for replayed records the exact original times from the
  /// journal, so no floating-point round trip can perturb them.
  struct Arrived {
    std::size_t tag = 0;
    Outcome outcome;
    sched::SupervisedCompletion sc;  ///< live arrivals: trace and eval log
  };

  /// Constraint values of one in-flight evaluation, written by its worker;
  /// locked because a retry can overlap an abandoned (timed-out) attempt.
  struct ConstraintSlot {
    std::mutex mu;
    Vec g;
  };

  const BoConfig& cfg() const { return core_.config(); }

  // --- run phases ---------------------------------------------------------
  void run_init_phase(sched::EvalSupervisor& sup);
  void run_sequential(sched::EvalSupervisor& sup);
  void run_sync_batch(sched::EvalSupervisor& sup);
  void run_async_batch(sched::EvalSupervisor& sup);

  /// Pulls the next suggestion out of the core and hands it to the
  /// supervisor — unless its tag is covered by resume replay, in which
  /// case the already-durable outcome will be delivered by await_one()
  /// and only the logical worker-slot accounting happens here.
  void submit(sched::EvalSupervisor& sup);

  /// The supervised work of evaluation \p tag at design point \p x: the
  /// objective, then each constraint into the tag's ConstraintSlot (a
  /// non-finite value makes the evaluation non-finite). The closure owns
  /// everything it calls; it never points back into the engine.
  std::function<double()> evaluation(std::size_t tag, Vec x);

  /// Feeds one arrival into the core (books the ObjectiveEval span and
  /// the per-eval log around it). Abort policy rethrows out of here.
  void observe_arrival(const Arrived& a, bool draining = false);

  /// Appends one entry to the per-eval outcome log (metrics "evals").
  void log_eval(const sched::SupervisedCompletion& sc, const char* action);

  /// wait_next() wrapped in a Phase::ExecutorWait span.
  sched::SupervisedCompletion timed_wait(sched::EvalSupervisor& sup);

  // --- durability (checkpoint/resume; docs/checkpoint-format.md) --------
  bool stop_requested() const { return stop_token_.stop_requested(); }

  /// Evaluations logically in flight: really running on the executor plus
  /// those whose journaled outcome is still queued for replay. Equals
  /// sup.num_running() outside resume replay — and always equals the
  /// core's pending-tag count.
  std::size_t num_outstanding(const sched::EvalSupervisor& sup) const {
    return sup.num_running() + replay_awaiting_.size();
  }

  /// Whether a new evaluation may be issued right now: a physically idle
  /// worker AND a logically free slot (replay-covered flights occupy
  /// their workers in the original timeline even though the executor
  /// never sees them). Equals sup.has_idle_worker() outside replay.
  bool can_submit(const sched::EvalSupervisor& sup) const {
    return sup.has_idle_worker() &&
           sup.num_workers() > num_outstanding(sup);
  }

  /// Logically idle workers (the sync-batch sizing rule under replay).
  std::size_t idle_for_submit(const sched::EvalSupervisor& sup) const {
    const std::size_t outstanding = num_outstanding(sup);
    const std::size_t logical = sup.num_workers() > outstanding
                                    ? sup.num_workers() - outstanding
                                    : 0;
    return std::min(sup.num_idle_workers(), logical);
  }

  /// The run's logical clock: the executor clock, never behind the last
  /// replayed completion.
  double logical_now(const sched::EvalSupervisor& sup) const {
    return std::max(sup.now(), last_replay_finish_);
  }

  /// Loads snapshot + journal, restores core state, stages the journal
  /// tail for replay and re-submits genuinely in-flight work.
  void restore(sched::EvalSupervisor& sup);

  /// Next terminal outcome: the front of the replay queue while resume
  /// replay is in progress, a real supervised wait otherwise.
  Arrived await_one(sched::EvalSupervisor& sup);

  /// Drains every outstanding evaluation without model updates (the init
  /// phase / graceful-stop semantics).
  void drain_all(sched::EvalSupervisor& sup);

  /// Writes a snapshot when the cadence says so (checkpoint_every new
  /// journal lines since the last one; never during replay).
  void maybe_checkpoint(sched::EvalSupervisor& sup);

  /// Unconditionally writes the snapshot atomically.
  void write_snapshot(sched::EvalSupervisor& sup);

  /// Copies the recording sink (when one is installed) into
  /// result.metrics, grafting on the executor's worker stats.
  void finalize_metrics(sched::Executor& exec, BoResult& result);

  AskTellCore core_;
  // Shared with every in-flight evaluation closure, so work still queued
  // or running on an executor that outlives this engine keeps them alive.
  std::shared_ptr<const opt::Objective> objective_;
  std::shared_ptr<const std::vector<Constraint>> constraints_;
  std::unordered_map<std::size_t, std::shared_ptr<ConstraintSlot>>
      constraint_slots_;

  // --- resume replay (engine-side: it shadows the EXECUTION timeline) ---
  // Journal tail to re-enact on resume, in original completion order,
  // plus the tags it covers. A tag in replay_tags_ is never handed to the
  // executor — its outcome is already durable.
  std::deque<JournalRecord> replay_;
  std::unordered_set<std::size_t> replay_tags_;
  std::unordered_set<std::size_t> replay_awaiting_;  // covered AND issued
  double busy_base_ = 0.0;          // restored busy the executor never saw
  double last_replay_finish_ = 0.0;
  double snapshot_clock_ = 0.0;     // restored snapshot's clock
  bool resumed_ = false;
  common::StopToken stop_token_;  // default: never fires
  std::string resume_note_;

  // Observability (src/obs). trace_ is non-owning and nullptr by default
  // (the zero-cost null sink).
  obs::TraceSink* trace_ = nullptr;
  std::vector<obs::EvalLogEntry> eval_log_;  // built when trace_ != nullptr
};

/// Convenience wrapper: configure, run, return.
BoResult run_bo(const BoConfig& config, const opt::Bounds& bounds,
                const opt::Objective& objective,
                const std::function<double(const Vec&)>& sim_time = nullptr);

}  // namespace easybo::bo
