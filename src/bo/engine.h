#pragma once
/// \file engine.h
/// \brief The BO engine: sequential, synchronous-batch and asynchronous-
/// batch Bayesian optimization drivers over a pluggable executor.
///
/// This implements the paper's Algorithm 1 (EasyBO) plus every comparison
/// algorithm of §IV. The algorithm itself — model state, pending-point
/// bookkeeping, proposal RNG, dedup, failure policies, and every journal
/// record and snapshot — lives in AskTellCore (bo/ask_tell.h) behind its
/// suggest()/observe() interface; BoEngine is the loop driver that pumps
/// the core against an executor through sched::EvalSupervisor. Each issue
/// policy (sequential / sync batch / async batch) is one pump schedule,
/// and the same schedules drive sched::VirtualExecutor (experiments) and
/// sched::ThreadExecutor (real objectives) — see sched/executor.h — so
/// measured differences come from the algorithm design, not from
/// implementation asymmetries.
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

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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
  /// the pre-supervision behavior. A failed journal write throws
  /// io::CheckpointError; a failed refit snapshot does not stop the run.
  BoResult run(sched::Executor& exec);

  /// Continues a run whose durable state lives under checkpoint base
  /// \p path (BoConfig::checkpoint_path semantics: "<path>.journal" +
  /// "<path>.snapshot", docs/checkpoint-format.md). The engine must be
  /// freshly constructed with the SAME configuration and bounds as the
  /// interrupted run — a config-fingerprint mismatch refuses to resume
  /// (io::CheckpointError). Restores the snapshot and applies the journal
  /// tail through AskTellCore::resume, the routine a hosted session
  /// resumes with, so no acquisition runs for journaled suggestions. On
  /// virtual time every evaluation still pending re-runs from its own
  /// submit time (retry timing is a pure function of seed, tag and
  /// retry), so it fails, retries and finishes where the uninterrupted
  /// run did; on the wall clock it restarts now. The run then continues,
  /// producing the same remaining proposal sequence as the uninterrupted
  /// run, and journaling continues on the same files; as with a session,
  /// resume writes no snapshot, and the next live refit writes one. Call
  /// once per engine instance, instead of run().
  BoResult resume(const std::string& path);
  BoResult resume(const std::string& path, sched::Executor& exec);

  /// Installs a cooperative stop flag (e.g. set from a SIGINT handler).
  /// Checked at loop boundaries: once true, the engine stops proposing,
  /// drains the evaluations already in flight (each journaled as it
  /// completes; no final snapshot is written) and returns with
  /// BoResult::interrupted set. The pointee must outlive the run;
  /// nullptr (the default) disables it.
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
  /// One terminal evaluation outcome as delivered to observe_arrival().
  struct Arrived {
    std::size_t tag = 0;
    Outcome outcome;
    sched::SupervisedCompletion sc;  ///< trace and eval log
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
  /// \p draining: resumed inside a batch's drain (restore()).
  void run_sync_batch(sched::EvalSupervisor& sup, bool draining);
  void run_async_batch(sched::EvalSupervisor& sup);

  /// Pulls the next suggestion out of the core (which journals it when
  /// journaling) and hands it to the supervisor.
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

  // --- durability (checkpoint/resume; docs/checkpoint-format.md) --------
  bool stop_requested() const { return stop_token_.stop_requested(); }

  /// Resumes the core from its files (AskTellCore::resume), books the
  /// journaled outcomes' busy time and re-runs every pending evaluation.
  /// Returns whether a SyncBatch run stopped inside a batch's drain: its
  /// last record is an outcome while work is still pending.
  bool restore(sched::EvalSupervisor& sup);

  /// The next supervised outcome (a wait_next() in a Phase::ExecutorWait
  /// span).
  Arrived await_one(sched::EvalSupervisor& sup);

  /// Drains every outstanding evaluation without model updates (the init
  /// phase / graceful-stop semantics).
  void drain_all(sched::EvalSupervisor& sup);

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

  // --- durability -----------------------------------------------------
  double busy_base_ = 0.0;  // busy time of journaled outcomes (resume)
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
