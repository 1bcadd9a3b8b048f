#pragma once
/// \file config.h
/// \brief Configuration for the BO engine: every algorithm of the paper's
/// comparison is one BoConfig.
///
/// Paper algorithm -> configuration map:
///   LCB          Sequential + AcqKind::Lcb
///   EI           Sequential + AcqKind::Ei
///   EasyBO (seq) Sequential + AcqKind::EasyBo
///   pBO-B        SyncBatch  + AcqKind::Pbo,    batch B
///   pHCBO-B      SyncBatch  + AcqKind::Phcbo,  batch B
///   EasyBO-S-B   SyncBatch  + AcqKind::EasyBo, penalize=false
///   EasyBO-SP-B  SyncBatch  + AcqKind::EasyBo, penalize=true
///   EasyBO-A-B   AsyncBatch + AcqKind::EasyBo, penalize=false
///   EasyBO-B     AsyncBatch + AcqKind::EasyBo, penalize=true
/// Extension baselines beyond the paper's roster:
///   BUCB-B       Sync/AsyncBatch + AcqKind::Bucb (hallucinated UCB [32],
///                kappa = 2)
///   LP-B         Sync/AsyncBatch + AcqKind::Lp (local penalization [33])

#include <cstdint>
#include <memory>
#include <string>

#include "acq/acq_optimizer.h"
#include "gp/kernel.h"
#include "gp/trainer.h"

namespace easybo::bo {

/// How query points are issued to the worker pool.
enum class Mode {
  Sequential,  ///< one worker, one point at a time
  SyncBatch,   ///< B points per iteration, barrier until all finish
  AsyncBatch,  ///< new point whenever a worker goes idle (Fig. 1, right)
};

/// Which acquisition proposes the next point.
enum class AcqKind {
  Ei,      ///< expected improvement (sequential baseline)
  Lcb,     ///< optimistic confidence bound, mu + kappa*sigma (baseline)
  EasyBo,  ///< randomized-weight UCB, Eq. 8 (Eq. 9 with penalize=true)
  Pbo,     ///< fixed uniform weight grid, Eq. 4 [23]
  Phcbo,   ///< pBO + high-coverage penalty, Eq. 5-6 [23]
  Bucb,    ///< batch UCB with hallucinated variance [32] (extension)
  Lp,      ///< EI with local penalization around busy points [33] (ext.)
};

/// What the engine does when a supervised evaluation ultimately fails —
/// exception, deadline timeout, or non-finite value after every retry
/// (sched::EvalSupervisor). See docs/failure-model.md for the taxonomy
/// and guidance on choosing between the policies.
enum class EvalFailurePolicy {
  /// Rethrow out of BoEngine::run() on either executor — the
  /// pre-supervision behavior and the default. Timeouts/non-finite values
  /// (which carry no exception) abort with an easybo::Error.
  Abort,
  /// Drop the point: no observation is added, but the point is remembered
  /// for proposal dedup so the crashing location is never re-proposed
  /// verbatim. The failed evaluation still consumes simulation budget.
  Discard,
  /// Absorb the point as a pseudo-observation at a low quantile of the
  /// observed FOMs (BoConfig::eval_failure_quantile; 0 = worst observed),
  /// so the GP's posterior mean drops around the crashing region and the
  /// acquisition stops re-proposing it — the same mechanism as the Eq. 9
  /// hallucination, but permanent. Falls back to Discard while no real
  /// observation exists yet (nothing to anchor the quantile on).
  Penalize,
};

const char* to_string(Mode mode);
const char* to_string(AcqKind kind);
const char* to_string(EvalFailurePolicy policy);

/// Full engine configuration. Defaults follow the paper (§III-B/§IV).
struct BoConfig {
  Mode mode = Mode::AsyncBatch;
  /// The per-slot schemes (Pbo's weight grid, Phcbo's penalty histories)
  /// are a synchronous-batch construct: the k-th point of a batch uses
  /// slot k. Every asynchronous proposal uses slot 0 (w = 0 for Pbo, one
  /// shared Phcbo history).
  AcqKind acq = AcqKind::EasyBo;
  /// EasyBO hallucination penalization (§III-C). Only meaningful for
  /// AcqKind::EasyBo in batch modes; ignored elsewhere. Eq. 9 reads the
  /// hallucinated posterior's variance, its mean from the observed data.
  bool penalize = true;
  std::size_t batch = 5;        ///< B; forced to 1 in Sequential mode
  std::size_t init_points = 20; ///< random initial design size
  std::size_t max_sims = 150;   ///< total simulations including the init
  double lambda = 6.0;          ///< EasyBO kappa range [0, lambda] (§III-B)
  /// Ablation switch: draw w ~ U[0,1] instead of w = kappa/(kappa+1).
  /// Isolates the value of EasyBO's nonlinear weight map (Fig. 2).
  bool uniform_w = false;
  double lcb_kappa = 2.0;       ///< kappa for the LCB baseline
  double ei_xi = 0.0;           ///< EI exploration offset
  double hc_d = 0.1;            ///< pHCBO penalization radius (normalized)
  double hc_n = 1.0;            ///< pHCBO penalty magnitude N_HC
  /// Minimum gap in true observations between hyperparameter retrains:
  /// after a retrain at n observations the next waits for
  /// max(n + refit_every, floor(1.5 n)), so the gap grows with the data.
  std::size_t refit_every = 5;
  std::string kernel = "se";    ///< "se" (paper) or "matern52" (extension)
  std::uint64_t seed = 1;
  /// Adapt the hyper-refit cadence to measured cost mid-run: corrected
  /// EMAs of refit time and objective-eval time pick the next refit point
  /// so refitting stays near adapt_refit_budget of eval spend (see
  /// bo::adaptive_refit_gap and docs/telemetry.md). Refits are timed on
  /// the wall clock, evaluations on the executor's clock (virtual seconds
  /// on VirtualExecutor, one tick per OBSERVE on a session), where the
  /// gap then clamps to refit_every. Wall-clock driven, so the proposal
  /// stream is NOT reproducible across machines with it on.
  /// Off by default — all seed streams stay bit-identical. Not
  /// fingerprinted: the chosen schedule rides in snapshots either way.
  bool adapt_refit_cadence = false;
  /// Target ratio of hyper-refit time to objective-eval time when
  /// adapt_refit_cadence is on. 0.1 = spend at most ~10% of eval time
  /// refitting. Not fingerprinted.
  double adapt_refit_budget = 0.1;

  // --- fault tolerance (sched::EvalSupervisor; docs/failure-model.md) ---
  /// Failure policy once supervision gives up on an evaluation.
  EvalFailurePolicy on_eval_failure = EvalFailurePolicy::Abort;
  /// Per-attempt evaluation deadline in executor seconds (virtual time on
  /// a VirtualExecutor, wall clock on a ThreadExecutor); 0 disables it.
  double eval_timeout = 0.0;
  /// Retries per evaluation for transient failures (exceptions and
  /// non-finite values) on a fixed backoff schedule: 0.5 s before the
  /// first retry, x2 per further retry, capped at 30 s, +-10% jitter
  /// (sched::SupervisorConfig's defaults). Timeouts are not retried.
  std::size_t eval_max_retries = 0;
  /// Penalize policy: the pseudo-observation is this quantile of the
  /// observed FOMs (0 = worst observed, 0.5 = median).
  double eval_failure_quantile = 0.0;

  // --- durability (checkpoint/resume; docs/checkpoint-format.md) --------
  /// Base path for crash-safe run state. Empty (the default) disables
  /// durability entirely; journaling never changes a proposal either way.
  /// Non-empty: the engine appends one fsync'd, checksummed line per
  /// suggestion and per completed/failed evaluation to "<path>.journal",
  /// and rewrites "<path>.snapshot" atomically at the start and after each
  /// hyperparameter refit; a run killed at any point can then continue
  /// via BoEngine::resume(path) with the identical remaining proposal
  /// sequence.
  std::string checkpoint_path;

  gp::TrainerOptions trainer;   ///< hyperparameter MLE options
  acq::AcqOptOptions acq_opt;   ///< acquisition maximizer options

  /// Human-readable algorithm label in the paper's style, e.g.
  /// "EasyBO-SP-5", "pBO-10", "EI".
  std::string label() const;

  /// Throws InvalidArgument when the combination is inconsistent.
  void validate() const;
};

/// Builds the GP prior for a run: the configured kernel with lengthscales
/// started at 0.3 (moderate for unit-cube inputs). Every execution mode
/// must construct its model through this factory so the same BoConfig
/// yields the same prior whether it runs on virtual time or real threads.
std::unique_ptr<gp::Kernel> make_kernel(const BoConfig& config,
                                        std::size_t dim);

}  // namespace easybo::bo
