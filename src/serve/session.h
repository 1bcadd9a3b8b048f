#pragma once
/// \file session.h
/// \brief One named, durable ask/tell session hosted by the server.
///
/// A Session is a named AskTellCore on its own checkpoint files. The core
/// commits every mutation (suggest AND observe) by one fsync'd journal
/// append before its reply leaves the process. A suggestion whose tag
/// has been handed to a remote client MUST survive eviction and crash —
/// the client will come back with `OBSERVE <tag>` long after the
/// in-memory object is gone — so SUGGEST appends a "suggest" record
/// (journal v2) holding everything the proposal changed, and OBSERVE
/// appends its eval record before the model absorbs it.
///
/// The core writes a snapshot only where the live model is a full
/// refactor: at the end of a command that ran a hyperparameter refit
/// (including the first model-based SUGGEST, which trains the first
/// model). Resume restores the snapshot, when there is an intact one, and
/// re-applies the journal after it with no acquisition — suggest records
/// are applied as recorded, eval records re-run the model update — so the
/// extended Cholesky factor it builds is the live one bit for bit and an
/// evicted or crashed session continues its stream exactly. Resume,
/// eviction and CLOSE write nothing.
///
/// Durability is BoEngine's protocol, committed by the same core
/// (docs/checkpoint-format.md): the same CRC-framed v2 journal, the same
/// BoCheckpoint snapshots at refit points, the same resume routine and
/// config fingerprint refusal on mismatch. A session's clock is the
/// number of outcomes its core has absorbed: a proposal's submit time is
/// that count, an outcome's finish the count it completes.

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
  /// Starts a fresh session: truncates the journal and writes the v2
  /// header line, which alone resumes to the fresh session.
  static std::unique_ptr<Session> create(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base);

  /// Rebuilds a session from its checkpoint files through
  /// AskTellCore::resume, the routine BoEngine::resume calls. \p spec
  /// must parse to the same configuration the files were written with
  /// (io::CheckpointError on a fingerprint mismatch). Re-applies the
  /// journal the restored snapshot has not absorbed — all of it when
  /// "<base>.snapshot" is missing or torn (a "<base>.snapshot.old" an
  /// older binary rotated aside is restored instead, when intact) — and
  /// writes nothing unless it repairs a crash inside create(). A
  /// half-written snapshot is never accepted. A v1 journal (written
  /// before suggest records existed) resumes as is, only from a snapshot,
  /// and is rewritten as v2 before its first suggest record.
  static std::unique_ptr<Session> resume(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base);

  /// The core's suggest: its journal record (+ a snapshot when it refit).
  /// Throws easybo::Error when the budget is exhausted or the initial
  /// design is fully in flight.
  ///
  /// \p stop is the request's cancellation token (null = none). The core
  /// polls it at its safe checkpoints AND re-checks it immediately before
  /// the journal append — so even a computation that ignored every
  /// cooperative poll cannot commit a proposal past its deadline. On
  /// common::Cancelled the caller MUST discard this Session object: the
  /// in-memory core is mid-mutation dirty, while the files still hold the
  /// exact pre-suggest state (the suggest record is the only thing that
  /// publishes a suggest). Resuming from them and retrying reproduces the
  /// identical proposal — a cancelled suggest consumed nothing
  /// (tests/test_serve_deadline.cpp pins this). A failed append throws
  /// io::CheckpointError with the journal as it was; the object must be
  /// dropped the same way.
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
  /// leaves the command committed: see AskTellCore::snapshot_error().
  const char* observe_failure(std::size_t tag, const std::string& status,
                              const std::string& error = "");

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

  /// The session clock: outcomes the core has absorbed.
  double now() const { return static_cast<double>(core_.evals().size()); }

  /// Stamps \p o on the session clock and applies it to the core
  /// (observe_ok / observe_failure).
  const char* observe(std::size_t tag, bo::Outcome o);

  /// Closes the turnaround span for \p tag, when one is open.
  void record_turnaround(std::size_t tag);

  std::string name_;
  bo::AskTellCore core_;
  obs::TraceSink* trace_ = nullptr;
  /// Wall-clock SUGGEST times of in-flight tags, kept only while a trace
  /// sink is installed — the basis of the turnaround spans above. Entries
  /// for tags observed after eviction/resume are simply absent (their
  /// suggest happened in another process) and produce no span.
  std::map<std::size_t, std::chrono::steady_clock::time_point> inflight_wall_;
};

}  // namespace easybo::serve
