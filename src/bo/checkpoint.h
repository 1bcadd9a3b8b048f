#pragma once
/// \file checkpoint.h
/// \brief Durable run state: journal records and engine snapshots.
///
/// Serialization for the crash-safe run subsystem
/// (docs/checkpoint-format.md). A journaled BoEngine run and a hosted
/// session both keep these files under their base path:
///
///   <path>.journal       append-only JSONL (schema "easybo.journal.v2"),
///                        one checksummed line per handed-out proposal
///                        (a "suggest" record) and per terminal
///                        evaluation outcome (the eval fields reuse the
///                        easybo.metrics.v1 eval-record shape)
///   <path>.snapshot      one checksummed line holding the full core
///                        state (schema "easybo.checkpoint.v1"), rewritten
///                        atomically at the end of each live command that
///                        ran a hyperparameter refit
///
/// AskTellCore alone writes these files, for both drivers.
/// Resume (AskTellCore::resume) = restore the snapshot, then apply the
/// journal tail: suggest records as recorded, with no acquisition, eval
/// records through observe(). The snapshot sits where the GP factor is a
/// full refactor, so the factor extended over the tail is the live one
/// bit for bit — the headline guarantee, enforced by
/// tests/test_checkpoint.cpp and tests/test_serve_resume.cpp. The
/// snapshot is only a shortcut: without an intact one (a
/// "<path>.snapshot.old" an older binary rotated aside is read, never
/// written) the fresh core applies the journal from its first record.
///
/// This header is engine-internal plumbing (BoEngine is the public
/// surface); it is exposed for tests and tooling.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/journal.h"
#include "linalg/vec.h"
#include "opt/objective.h"

namespace easybo::bo {

struct BoConfig;     // bo/config.h
struct Outcome;      // bo/ask_tell.h
class AskTellCore;   // bo/ask_tell.h
using linalg::Vec;

/// Journal schemas. v1 holds eval records only; v2, which both drivers
/// write, is v1 plus the "suggest" record kind. Readers take both.
inline constexpr const char* kJournalSchemaV1 = "easybo.journal.v1";
inline constexpr const char* kJournalSchemaV2 = "easybo.journal.v2";

/// One journal line. An eval record is the terminal outcome of one
/// evaluation, everything observe() needs to re-apply it on resume. A
/// suggest record (v2 only) is one proposal handed out: with x and the
/// tag it holds everything AskTellCore::suggest mutates, so resume
/// re-applies it without running the acquisition.
struct JournalRecord {
  std::size_t index = 0;    ///< journal line order, records of both kinds
  bool suggest = false;     ///< a "suggest" record, not an eval record
  std::size_t tag = 0;      ///< proposal index (BoEngine prop table)
  std::string status;       ///< sched::to_string(EvalStatus)
  std::string action;       ///< observed | discarded | penalized | abort
  std::uint32_t attempts = 1;
  std::size_t worker = 0;
  double start = 0.0;       ///< executor seconds, original run's clock
  double finish = 0.0;
  bool is_init = false;
  Vec x;                    ///< unit-space proposal (resume cross-check)
  /// Observed value for ok evals; NaN otherwise (emitted as JSON null).
  double y = 0.0;
  /// Constraint values absorbed with y (observed or penalty values);
  /// empty, and not written, without constraints or y.
  Vec g;
  std::string error;        ///< what() of the failure, when any

  // Suggest records only: the proposal's submit time on the driver's
  // clock, its nominal duration and the proposal stream after it.
  double submit = 0.0;
  double duration = 1.0;
  RngState rng;

  std::string to_payload() const;
  static JournalRecord parse(const std::string& payload);
};

/// The journal's first line, binding the file to one run configuration.
struct JournalHeader {
  std::string schema = kJournalSchemaV2;  ///< v1 or v2, see above
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;

  std::string to_payload() const;
  static JournalHeader parse(const std::string& payload);
};

/// Full core state at a snapshot point (the end of a live command that
/// refit). Field-by-field mirror of AskTellCore's private
/// state — see the member comments in ask_tell.h for semantics.
struct BoCheckpoint {
  std::uint64_t config_hash = 0;
  std::size_t journal_count = 0;  ///< journal lines absorbed in this state
  double now = 0.0;   ///< last record's time; resume reads it without a tail
  double busy = 0.0;  ///< frozen 0, written for older readers, not read
  bool init_done = false;         ///< post-init force-train already ran
  /// SyncBatch's deferred-model-refresh flag: an in-flight batch already
  /// produced observations the barrier update has not absorbed. Snapshots
  /// sit right after a refit, so they write false; session snapshots from
  /// before journal v2 were taken after every mutation and may hold true.
  bool sync_dirty = false;
  std::size_t issued = 0;

  RngState rng;      ///< proposal stream
  RngState sup_rng;  ///< frozen: Rng(seed ^ 0x5AFEB0FF).save(), unused

  std::vector<Vec> obs_x;  ///< unit space
  Vec obs_y;
  std::vector<bool> obs_is_init;
  std::vector<Vec> failed_x;

  // Proposal table by tag, including per-tag submit time and nominal
  // duration (what a resumed engine re-runs pending work with).
  std::vector<Vec> prop_x;
  std::vector<bool> prop_init;
  std::vector<double> prop_submit;
  std::vector<double> prop_duration;

  std::vector<std::size_t> pending;  ///< tags submitted but unhandled

  std::vector<std::vector<Vec>> hc_histories;  ///< pHCBO, oldest first

  std::size_t next_hyper_refit = 0;
  std::size_t hyper_refits = 0;
  Vec gp_log_hyperparams;

  // Constrained runs only; empty (and not written) without constraints.
  std::vector<Vec> obs_g;          ///< constraint values per observation
  std::vector<bool> obs_penalized; ///< observation is a penalty pseudo point
  std::vector<Vec> g_log_hyperparams;  ///< one per constraint model

  std::string to_payload() const;
  static BoCheckpoint parse(const std::string& payload);
};

/// Canonical fingerprint of everything that shapes the proposal stream:
/// all behavioural BoConfig knobs (checkpoint_path excluded — it never
/// changes proposals — and the wall-clock driven
/// adapt_refit_cadence/adapt_refit_budget), the trainer and
/// acquisition-optimizer options, the design bounds, and the number of
/// constraints (only when non-zero). A resume whose fingerprint
/// differs from the files' refuses to run.
std::uint64_t config_fingerprint(const BoConfig& config,
                                 const opt::Bounds& bounds,
                                 std::size_t num_constraints = 0);

/// File layout under a BoConfig::checkpoint_path base.
std::string journal_file(const std::string& base);
std::string snapshot_file(const std::string& base);

// --- resume checks of AskTellCore::resume, the routine of both drivers:
// each refuses with io::CheckpointError; \p owner ("engine" |
// "session") words it.

/// The records of journal \p jpath (read into \p jr), checked for an
/// intact header, the config fingerprint, consecutive indices and no
/// suggest record under a v1 header.
std::vector<JournalRecord> checked_journal_records(
    const io::JournalReadResult& jr, const std::string& jpath,
    std::uint64_t config_hash, const char* owner);

/// Checks snapshot \p snap (read from \p spath) for the config fingerprint
/// and for absorbing at most the \p journal_records records of \p jpath.
void check_snapshot(const BoCheckpoint& snap, const std::string& spath,
                    const std::string& jpath, std::size_t journal_records,
                    std::uint64_t config_hash, const char* owner);

/// The outcome eval record \p rec, which completes a tag pending on
/// \p core, re-applies there, checked for the same point, a known status
/// and the core's number of constraint values.
Outcome replayed_outcome(const JournalRecord& rec, const AskTellCore& core);

}  // namespace easybo::bo
