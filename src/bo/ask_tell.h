#pragma once
/// \file ask_tell.h
/// \brief The ask/tell (suggest/observe) core of the BO engine.
///
/// AskTellCore is the proposal/observation state machine extracted from
/// BoEngine: it owns everything that shapes the proposal stream — the GP
/// model, normalizers, the proposal RNG stream, the dedup blocklists, the
/// pHCBO penalty slots, the hyper-refit schedule, the failure policies
/// and durability (journal, snapshot, and the one resume routine both
/// drivers call) — and exposes exactly two mutation points:
///
///   suggest()            -> {tag, x}   the next point to evaluate
///   observe(tag, outcome)              the terminal result of one tag
///
/// When journaling they (and finish_init) are the only commit points of
/// both drivers: each appends its journal record, and one that refit
/// writes the snapshot, a shortcut the journal alone can stand in for
/// (docs/checkpoint-format.md).
///
/// Nothing about *execution* lives here: no executor, no supervisor, no
/// clock, no objective. The core never evaluates anything — it hands out
/// proposals keyed by tag and absorbs outcomes keyed by tag, in whatever
/// order the caller delivers them. That inversion is what lets one engine
/// drive it over a virtual-time or thread executor (BoEngine::run is now a
/// thin driver) and what lets a long-lived server host many concurrent
/// cores across a process boundary (src/serve), per Nomura 2020's
/// suggest/observe scaling argument.
///
/// Pending-point bookkeeping follows Alvi et al. 2019: every suggestion is
/// pending (hallucinated by the penalizing acquisitions) from suggest()
/// until its observe(tag, ...). The pending set is keyed by tag — never by
/// point value — so two coincidentally equal pending points (a saturated
/// dedup resample, a replayed checkpoint) stay distinct, and observing a
/// tag twice is a loud error instead of silently erasing a neighbour.
///
/// Constraints g_i(x) >= 0 (bo/constrained.h) are problem data: with
/// num_constraints > 0 every ok Outcome carries their values, each g_i
/// gets a GP on the objective model's schedule, EasyBO is weighted by the
/// probability of feasibility and the incumbent is the best feasible point.
///
/// Determinism contract: given the same BoConfig/Bounds and the same
/// interleaving of suggest/observe calls (same tags, same outcomes), the
/// core produces a bit-identical proposal sequence — including across a
/// snapshot/restore cut at any point between calls. BoEngine's drivers
/// call suggest/observe in exactly the order the old self-owned loops
/// proposed and handled, which keeps every pre-refactor run bit-identical
/// (tests/test_ask_tell.cpp pins this parity).

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "acq/acquisition.h"
#include "bo/checkpoint.h"
#include "bo/config.h"
#include "bo/result.h"
#include "common/rng.h"
#include "common/stop_token.h"
#include "gp/gp.h"
#include "gp/normalizer.h"
#include "io/journal.h"
#include "obs/online_stats.h"
#include "obs/trace.h"
#include "opt/objective.h"
#include "sched/supervisor.h"

namespace easybo::bo {

/// One proposal handed out by AskTellCore::suggest().
struct Suggestion {
  std::size_t tag = 0;   ///< identity: pass it back to observe()
  Vec unit_x;            ///< the proposal in normalized [0,1]^d space
  Vec x;                 ///< the same point in design space
  bool is_init = false;  ///< part of the random initial design
  /// Nominal duration from the sim-time model (1.0 when none was given):
  /// what a virtual-time executor should charge for the evaluation.
  double duration = 1.0;
};

/// The terminal result of one suggested evaluation, as told to observe().
struct Outcome {
  sched::EvalStatus status = sched::EvalStatus::Ok;
  double value = 0.0;            ///< observed FOM (ok outcomes only)
  std::uint32_t attempts = 1;    ///< supervised attempts (1 + retries)
  std::size_t worker = 0;        ///< worker slot attribution (bookkeeping)
  double start = 0.0;            ///< logical start time of the evaluation
  double finish = 0.0;           ///< logical finish time
  /// Constraint values of an ok outcome, in constraint order; exactly
  /// num_constraints() of them (empty in unconstrained runs).
  Vec g;
  std::string error;             ///< what() of the failure, when any
  std::exception_ptr exception;  ///< original exception (Abort rethrow)
  /// A journaled outcome re-applied by resume(): already durable, so
  /// observe() must not journal it again nor count it in live metrics.
  bool replayed = false;
};

/// What observe() did with an outcome.
struct Observed {
  bool changed = false;  ///< the model's dataset gained a (pseudo) point
  /// "observed" | "penalized" | "discarded" — the journal action applied.
  const char* action = "";
};

/// What AskTellCore::resume() restored and re-applied.
struct Resumed {
  std::vector<JournalRecord> records;  ///< every intact journal record
  std::size_t absorbed = 0;  ///< how many the restored snapshot holds
  /// When the last record was written — an eval record's finish, a
  /// suggest record's submit time — or the snapshot's clock without a
  /// tail.
  double now = 0.0;
  bool torn_tail = false;  ///< a torn final journal line was dropped
};

/// The adaptive hyper-refit schedule (BoConfig::adapt_refit_cadence): how
/// many further observations to wait before the next hyperparameter MLE,
/// given corrected-EMA cost estimates. The policy amortizes one refit
/// over enough evaluations that refit time stays near \p budget (a ratio,
/// e.g. 0.1 = 10%) of evaluation time:
///
///   gap = ceil(refit_seconds / (budget * eval_seconds))
///
/// clamped to [refit_every, 64 * refit_every] so a degenerate estimate
/// (zero-cost evals, enormous refits) can neither refit every step nor
/// freeze the hyperparameters for the rest of the run. Pure — no clocks,
/// no state — so the policy is unit-testable; AskTellCore feeds it from
/// its internal CEMAs.
std::size_t adaptive_refit_gap(double refit_seconds, double eval_seconds,
                               double budget, std::size_t refit_every);

/// The suggest/observe core. Construct with the same arguments BoEngine
/// takes minus the objective (evaluating is the caller's job), then
/// alternate suggest() and observe() in any order that respects the
/// pending-set semantics documented above. See engine.h for the
/// loop-driver counterpart and src/serve for the multi-session host.
class AskTellCore {
 public:
  /// \param config    algorithm configuration (validated here)
  /// \param bounds    design box (the core normalizes internally)
  /// \param sim_time  nominal duration model for Suggestion::duration;
  ///                  defaults to a constant 1s when null
  /// \param num_constraints  values every ok outcome reports (Outcome::g);
  ///                  > 0 requires EasyBO in Sequential or AsyncBatch mode
  AskTellCore(BoConfig config, opt::Bounds bounds,
              std::function<double(const Vec&)> sim_time = nullptr,
              std::size_t num_constraints = 0);

  /// Installs a non-owning trace sink (nullptr restores the zero-cost
  /// null default).
  void set_trace(obs::TraceSink* sink);

  // --- the two mutation points ------------------------------------------

  /// Proposes the next evaluation. While the initial design is incomplete
  /// (observed + pending < init_points) this returns a uniform random
  /// init point; afterwards it proposes through the configured
  /// acquisition, hallucinating every pending point. The pBO/pHCBO weight
  /// slot is the position within the in-flight batch in SyncBatch mode
  /// and slot 0 otherwise. The first post-init call trains the model
  /// (finish_init()) if the caller has not already.
  ///
  /// When journaling, one fsync'd "suggest" record commits the proposal
  /// before this returns (a failed append throws io::CheckpointError, and
  /// the uncommitted core must be discarded).
  ///
  /// \param now  the caller's logical clock, recorded as the proposal's
  ///             submit time (snapshot re-anchoring); pass 0 when there
  ///             is no meaningful clock.
  /// \param stop optional cancellation token, polled at the safe
  ///             checkpoints inside model training and acquisition
  ///             maximization, and right before the suggest record.
  ///             When it fires, common::Cancelled unwinds out of this
  ///             call BEFORE the proposal is committed — nothing was
  ///             journaled — but the in-memory model/normalizer/RNG may
  ///             have been touched mid-flight, so a cancelled core must be
  ///             discarded and rebuilt from its files (the serve layer
  ///             drops the Session; the disk still holds the pre-suggest
  ///             state). Polls consume no RNG: a call that survives its
  ///             token returns the bit-identical suggestion of a call
  ///             without one.
  /// Throws easybo::Error when the simulation budget is exhausted, or
  /// when the initial design is fully in flight but not yet observed
  /// (a BO proposal needs a trained model; observe first).
  Suggestion suggest(double now = 0.0,
                     const common::StopToken* stop = nullptr);

  /// Absorbs the terminal outcome of suggestion \p tag: journals it
  /// (durable before applied), then records an observation (ok), or
  /// applies BoConfig::on_eval_failure — Abort rethrows the objective's
  /// failure out of this call. Removes \p tag from the pending set (by
  /// tag — see the header comment) and refreshes the model exactly when
  /// the engine's loops did: immediately in Sequential/AsyncBatch mode,
  /// at the in-flight-batch drain in SyncBatch mode, never while the
  /// initial design is still incomplete.
  ///
  /// \param draining  suppress model refreshes (the graceful-stop drain:
  ///                  outcomes are journaled and recorded but no longer
  ///                  steer proposals).
  /// Throws easybo::Error when \p tag is not pending (already observed,
  /// or never suggested).
  Observed observe(std::size_t tag, const Outcome& outcome,
                   bool draining = false);

  /// Ends the initial-design phase: z-scores the observations, fits the
  /// GP and force-trains hyperparameters. Idempotent. Called implicitly
  /// by the first post-init suggest(); BoEngine calls it explicitly at
  /// the init/BO phase boundary (also covering the budget-exhausted-
  /// during-init corner). Throws easybo::Error when there is not a
  /// single observation to build a model from.
  void finish_init();

  // --- read-only state ---------------------------------------------------

  const BoConfig& config() const { return cfg_; }
  const opt::Bounds& bounds() const { return bounds_; }
  std::size_t issued() const { return issued_; }
  bool init_done() const { return init_done_; }
  std::size_t num_observations() const { return obs_x_.size(); }
  std::size_t num_proposals() const { return prop_x_.size(); }
  std::size_t hyper_refits() const { return hyper_refits_; }
  std::size_t num_constraints() const { return con_models_.size(); }

  /// Suggested-but-unobserved tags, ascending (= suggestion order).
  const std::set<std::size_t>& pending_tags() const { return pending_tags_; }

  /// Proposal table by tag.
  const Vec& proposal(std::size_t tag) const { return prop_x_[tag]; }
  double proposal_submit_time(std::size_t tag) const {
    return prop_submit_[tag];
  }
  double proposal_duration(std::size_t tag) const {
    return prop_duration_[tag];
  }

  /// Unit -> design space mapping for this core's bounds.
  Vec to_design(const Vec& unit_x) const;

  /// The incumbent is the best observation — with constraints, the best
  /// feasible one (first wins on ties), else the one of least total
  /// violation; penalty pseudo-observations never qualify.
  bool has_observations() const { return !obs_x_.empty(); }
  double best_y() const;  ///< incumbent FOM; requires has_observations()
  Vec best_x() const;     ///< incumbent point, design space
  Vec best_g() const;     ///< incumbent constraint values (empty if none)

  /// Completed/failed evaluation records in observation order (resume()
  /// rebuilds them from the journal). Mutable so the run driver can move
  /// them into BoResult at the end.
  std::vector<EvalRecord>& evals() { return evals_; }
  const std::vector<EvalRecord>& evals() const { return evals_; }

  // --- durability (docs/checkpoint-format.md) ---------------------------

  /// Fingerprint of everything that shapes this core's proposal stream.
  std::uint64_t config_hash() const { return config_hash_; }
  bool journaling() const { return !cfg_.checkpoint_path.empty(); }

  /// Re-bases the checkpoint files (BoEngine::resume semantics). Only
  /// valid before any journaling started.
  void set_checkpoint_path(const std::string& path);

  /// Starts the durable state of a fresh run or session: removes any
  /// snapshot an earlier run left under the path, then truncates or
  /// creates the journal and writes its easybo.journal.v2 header line,
  /// which alone resumes to the fresh core.
  void start_fresh_journal();

  /// The one resume routine of both drivers (docs/checkpoint-format.md).
  /// On a freshly constructed core with its checkpoint path set: checks
  /// the journal against this configuration, restores "<path>.snapshot"
  /// when it is intact, else a "<path>.snapshot.old" an older binary
  /// rotated aside, else nothing, and applies the journal records after
  /// it with no acquisition — suggest records through apply_suggestion,
  /// eval records through observe() as replayed outcomes, refits re-run —
  /// then re-opens the journal (truncating a torn tail). The result is the
  /// live core's state after the last record, eval records included; the
  /// suggestions still pending are the caller's to re-run or await. A
  /// headerless journal beside no snapshot is a crash inside
  /// start_fresh_journal and starts fresh. A v1 journal resumes as is and
  /// is rewritten as v2 before its first suggest record; having no
  /// suggest records, it resumes only from a snapshot. Throws
  /// io::CheckpointError naming the file and record when the files
  /// refuse; \p owner ("engine" | "session") words the messages. Writes
  /// no snapshot.
  Resumed resume(const char* owner);

  /// what() of the refit snapshot the last live command failed to write
  /// (counted as ckpt.snapshot_failures), else empty. The command stays
  /// committed by its journal record, and the older snapshot (or none)
  /// plus the longer tail still resume exactly, so drivers only report
  /// it.
  const std::string& snapshot_error() const { return snapshot_error_; }

  /// The full core state, clocked at the last journal record's time.
  BoCheckpoint make_snapshot() const;

  /// Restores every core-owned field from \p snap (the complement of
  /// make_snapshot): RNG, observations, proposal table, pending tags,
  /// penalty histories, refit schedule, and the fitted model when the
  /// snapshot is post-init. \p origin names the snapshot in error
  /// messages. Throws io::CheckpointError on internal inconsistencies
  /// (e.g. a pending tag beyond the proposal table).
  void restore_snapshot(const BoCheckpoint& snap, const std::string& origin);

 private:
  /// Re-applies suggest record \p rec during resume, with no acquisition:
  /// checks that it is the next tag and the kind of proposal the replayed
  /// state would make, trains the first model where the original did,
  /// records a pHCBO proposal in its slot's history, pushes the proposal
  /// and loads the recorded RNG words. Throws io::CheckpointError when
  /// the record does not fit the replayed state.
  void apply_suggestion(const JournalRecord& rec);

  /// Rewrites a v1 journal as v2 (new header line, every record byte
  /// kept) before its first suggest record.
  void upgrade_journal();

  /// Appends the fsync'd "suggest" record of \p s, just pushed.
  void journal_suggestion(const Suggestion& s);

  /// make_snapshot + atomic write to "<path>.snapshot". A torn replace
  /// (a non-atomic filesystem, injected via io/fs_fault.h) is never
  /// restored: resume then applies the journal from its first record.
  void write_snapshot();

  /// Ends a live command that began with \p refits_before refits: when
  /// journaling and it refit, writes the snapshot (the model is a full
  /// refactor here, as a restore rebuilds it); a failure lands in
  /// snapshot_error_.
  void snapshot_if_refit(std::size_t refits_before);

  /// finish_init() without its snapshot, for use mid-command.
  void train_first_model();

  // --- proposal (the pre-refactor BoEngine internals, verbatim) ---------
  Vec propose(const std::vector<Vec>& pending, std::size_t slot);
  Vec dedup(Vec x, const std::vector<Vec>& pending);

  /// \p base weighted by feasibility, floored at the minimum of the plain
  /// (1-w) mu + w sigma over the observed points.
  std::unique_ptr<acq::AcquisitionFn> feasibility_weighted(
      const acq::AcquisitionFn* base, double w) const;

  void update_model(bool force_train);
  std::size_t incumbent_index() const;

  /// Appends one eval record to the journal (fsync'd). No-op when
  /// journaling is off or the outcome is itself a replay.
  void journal_eval(std::size_t tag, const Outcome& outcome,
                    const char* action, double y, const Vec& g = {});

  BoConfig cfg_;
  opt::Bounds bounds_;
  std::function<double(const Vec&)> sim_time_;
  Rng rng_;
  gp::BoxNormalizer box_;
  gp::ZScore zscore_;
  /// The surrogate, with the make_kernel() prior. Hallucinated posteriors
  /// are separate short-lived Regressor views over it
  /// (gp::GpRegressor::hallucinate()).
  gp::GpRegressor model_;

  // Observations (unit space + raw y). Penalized failures appear here as
  // pseudo-observations; discarded failures do not.
  std::vector<Vec> obs_x_;
  Vec obs_y_;
  std::vector<bool> obs_is_init_;

  // Constrained runs only: one GP per constraint on raw values, each
  // observation's constraint values, and which are penalty pseudo points.
  std::vector<gp::GpRegressor> con_models_;
  std::vector<Vec> obs_g_;
  std::vector<bool> obs_penalized_;

  // Discarded failure locations (unit space), kept so dedup never
  // re-proposes a crashing point verbatim.
  std::vector<Vec> failed_x_;

  // Suggestions issued so far: the simulation-budget clock.
  std::size_t issued_ = 0;

  // Proposals by tag. Submit time (caller's logical clock) and nominal
  // duration ride along so a snapshot can re-anchor in-flight work.
  std::vector<Vec> prop_x_;  // unit space
  std::vector<bool> prop_init_;
  std::vector<double> prop_submit_;
  std::vector<double> prop_duration_;

  // Suggested, not yet observed — keyed by tag (sorted = suggestion
  // order), the hallucination set and the snapshot pending set.
  std::set<std::size_t> pending_tags_;

  // SyncBatch mode defers the model refresh to the in-flight-batch drain
  // (the engine's old batch barrier); this accumulates "changed" until
  // the pending set empties. Always false at snapshot boundaries.
  bool sync_dirty_ = false;

  bool init_done_ = false;  // post-init force-train already ran

  // pHCBO per-weight-slot penalty history.
  std::vector<acq::HighCoveragePenalty> hc_penalties_;

  std::size_t next_hyper_refit_ = 0;
  std::size_t hyper_refits_ = 0;

  // adapt_refit_cadence cost models (only touched when the knob is on):
  // eval durations settle slowly across many observations, refit cost
  // tracks the growing dataset so it gets a faster horizon.
  obs::Cema adapt_eval_cema_{0.05};
  obs::Cema adapt_refit_cema_{0.3};

  // Evaluation records in observation order (BoResult::evals).
  std::vector<EvalRecord> evals_;

  // Durability.
  io::JournalWriter journal_;
  std::uint64_t config_hash_ = 0;
  std::size_t journal_lines_ = 0;  // records written (no header)
  bool journal_v1_ = false;        // header still v1 (upgrade_journal)
  // An eval record's finish or a suggest record's submit time.
  double last_record_time_ = 0.0;
  std::string snapshot_error_;  // see snapshot_error()

  obs::TraceSink* trace_ = nullptr;
  std::string proposal_counter_;  // "bo.proposals.<acq>", built once

  /// The cancellation token of the suggest() currently on the stack
  /// (null otherwise — observe-triggered model refreshes are never
  /// cancelled: once journaled the mutation must complete). Set/cleared
  /// by suggest() itself so propose/update_model need no parameter
  /// plumbing through every acquisition branch.
  const common::StopToken* stop_ = nullptr;
};

/// Resolves a proposal that collides (squared distance < 1e-12) with an
/// observed, pending, or blocked point: Gaussian nudges (sigma 0.01,
/// clamped to the unit cube) retried until the point clears, with a
/// uniform resample fallback — a nudge clamped on the cube boundary can
/// land right back on the duplicate, which is exactly the case the
/// retries exist for. Counts "bo.dedup_nudge" / "bo.dedup_resample" on
/// \p trace. Exposed as a free function for direct testing; AskTellCore
/// routes every proposal through it.
Vec dedup_proposal(Vec x, const std::vector<Vec>& observed,
                   const std::vector<Vec>& pending, Rng& rng,
                   obs::TraceSink* trace = nullptr);

}  // namespace easybo::bo
