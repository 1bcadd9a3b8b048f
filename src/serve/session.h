#pragma once
/// \file session.h
/// \brief One named, durable ask/tell session hosted by the server.
///
/// A Session is an AskTellCore plus the persistence discipline a
/// multi-tenant host needs: every mutation (suggest AND observe) is made
/// durable by one fsync'd journal append before its reply leaves the
/// process. A suggestion whose tag has been handed to a remote client
/// MUST survive eviction and crash — the client will come back with
/// `OBSERVE <tag>` long after the in-memory object is gone — so SUGGEST
/// appends a "suggest" record (journal v2) holding everything the
/// proposal changed, and OBSERVE appends its eval record before the
/// model absorbs it.
///
/// Snapshots are written only where the live model is a full refactor:
/// in create() and after a command that ran a hyperparameter refit
/// (including the first model-based SUGGEST, which trains the first
/// model). Resume restores the latest snapshot and re-applies the
/// journal tail with no acquisition — suggest records are applied as
/// recorded, eval records re-run the model update — so the extended
/// Cholesky factor it builds is the live one bit for bit and an evicted
/// or crashed session continues its stream exactly. Resume, eviction and
/// CLOSE write nothing.
///
/// Durability is BoEngine's protocol (docs/checkpoint-format.md): the same
/// CRC-framed v2 journal, the same BoCheckpoint snapshots at refit points,
/// the same resume routine (AskTellCore::resume) and config fingerprint
/// refusal on mismatch. The executor-side snapshot fields a BoEngine run
/// fills (clock and busy time) are stood in by the session's logical
/// clock (one tick per observation) and zero busy time, so the files stay
/// schema-complete.

#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "bo/ask_tell.h"
#include "serve/session_config.h"

namespace easybo::serve {

/// A durable, named AskTellCore. Construct through create() or resume();
/// both take the checkpoint base path ("<base>.journal"/"<base>.snapshot")
/// the host chose for this session.
class Session {
 public:
  /// Starts a fresh session: truncates the journal, writes the v2 header
  /// line and the pristine snapshot (so the session is resumable before
  /// its first command completes).
  static std::unique_ptr<Session> create(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base);

  /// Rebuilds a session from its checkpoint files through
  /// AskTellCore::resume, the routine BoEngine::resume calls. \p spec
  /// must parse to the same configuration the files were written with
  /// (io::CheckpointError on a fingerprint mismatch). Re-applies the
  /// journal tail the restored snapshot has not absorbed, and writes
  /// nothing unless it repairs a crash inside create(). A missing or torn
  /// "<base>.snapshot" falls back to the previous generation
  /// "<base>.snapshot.old" — a half-written snapshot is never accepted,
  /// and only when neither generation is usable does resume refuse. A
  /// journal holding no records with no usable snapshot is the signature
  /// of a crash inside create(); that resumes to the pristine session. A
  /// v1 journal (written before suggest records existed) resumes as is
  /// and is rewritten as v2 before its first suggest record.
  static std::unique_ptr<Session> resume(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base);

  /// suggest + its journal record (+ a snapshot when it refit). Throws
  /// easybo::Error when the budget is exhausted or the initial design is
  /// fully in flight.
  ///
  /// \p stop is the request's cancellation token (null = none). It is
  /// polled at the core's safe checkpoints AND re-checked after the core
  /// returns, immediately before the journal append — so even a
  /// computation that ignored every cooperative poll cannot commit a
  /// proposal past its deadline. On common::Cancelled the caller MUST
  /// discard this Session object: the in-memory core is mid-mutation
  /// dirty, while the files still hold the exact pre-suggest state (the
  /// suggest record is the only thing that publishes a suggest). Resuming
  /// from them and retrying reproduces the identical proposal — a
  /// cancelled suggest consumed nothing (tests/test_serve_deadline.cpp
  /// pins this). A failed append throws io::CheckpointError with the
  /// journal as it was; the object must be dropped the same way.
  bo::Suggestion suggest(const common::StopToken* stop = nullptr);

  /// Successful evaluation result for \p tag: observe (journal first) +
  /// a snapshot when it refit. Returns the journal action applied:
  /// "observed" | "penalized" | "discarded".
  const char* observe_ok(std::size_t tag, double y);

  /// Failed evaluation for \p tag; \p status names the failure
  /// ("exception" | "timeout" | "non_finite"). The session's failure
  /// policy (discard/penalize) decides what happens; there is no abort
  /// over the protocol. \p error is an optional human-readable detail
  /// recorded in the journal.
  ///
  /// A failed *journal append* throws io::CheckpointError with nothing
  /// durable (at worst a torn tail the next resume truncates) — the
  /// request had no effect, but this in-memory object is no longer
  /// trustworthy (the pending tag was already consumed) and must be
  /// dropped by the caller. A failed *snapshot* after a successful append
  /// leaves the command committed: see snapshot_error().
  const char* observe_failure(std::size_t tag, const std::string& status,
                              const std::string& error = "");

  /// what() of the snapshot failure of the last suggest or observe, empty
  /// when it wrote none or wrote it. The command is durable through its
  /// journal record either way — the previous snapshot generation plus
  /// the longer journal tail resume to exactly the current state — so
  /// its reply stays OK; the host reports the fault on its health plane.
  const std::string& snapshot_error() const { return snapshot_error_; }

  /// One-line JSON status object (docs/service-protocol.md).
  std::string status_json() const;

  /// Installs a non-owning trace sink on the core (counters, refit spans)
  /// and on the session itself. The session never runs the objective, so
  /// its "objective eval" spans are wall SUGGEST-to-OBSERVE turnaround:
  /// the client-side latency an operator actually waits on. Like every
  /// sink wiring this is behaviorally inert — with nullptr (the default)
  /// no clock is read and no proposal changes.
  void set_trace(obs::TraceSink* sink);

  const std::string& name() const { return name_; }
  const bo::AskTellCore& core() const { return core_; }

 private:
  Session(std::string name, SessionSpec spec);

  /// Writes the snapshot at the session clock when the command that
  /// began with \p refits_before hyperparameter refits ran one; a failure
  /// lands in snapshot_error_.
  void snapshot_after_refit(std::size_t refits_before);

  /// Stamps \p o on the session clock, applies it to the core, then
  /// snapshots when it refit (observe_ok / observe_failure).
  const char* observe(std::size_t tag, bo::Outcome o);

  /// Closes the turnaround span for \p tag, when one is open.
  void record_turnaround(std::size_t tag);

  std::string name_;
  bo::AskTellCore core_;
  /// Logical clock: one tick per absorbed observation. Recorded as each
  /// proposal's submit time and as the snapshot clock.
  double now_ = 0.0;
  std::string snapshot_error_;  ///< see snapshot_error()
  obs::TraceSink* trace_ = nullptr;
  /// Wall-clock SUGGEST times of in-flight tags, kept only while a trace
  /// sink is installed — the basis of the turnaround spans above. Entries
  /// for tags observed after eviction/resume are simply absent (their
  /// suggest happened in another process) and produce no span.
  std::map<std::size_t, std::chrono::steady_clock::time_point> inflight_wall_;
};

}  // namespace easybo::serve
