#pragma once
/// \file host.h
/// \brief Multi-session host: many named AskTellCore sessions, one process.
///
/// SessionHost owns a bounded set of live Session objects and the state
/// directory their durability files live in. It speaks a line protocol
/// (one request line in, one reply line out — docs/service-protocol.md):
///
///   NEW <name> <config-json>      create (or re-open) a session
///   SUGGEST <name>                next point to evaluate
///   OBSERVE <name> <tag> <y>      successful evaluation result
///   OBSERVE <name> <tag> fail <status> [detail...]   failed evaluation
///   STATUS <name>                 one-line JSON session status
///   STATUS                        one-line JSON host health
///   CLOSE <name>                  drop the live object (files remain)
///
/// Every reply is a single line: "OK[ <payload>]" or "ERR <message>".
///
/// Sessions are durable by construction (every SUGGEST and OBSERVE
/// appends its fsync'd journal record before replying; see session.h),
/// which makes the live set a pure cache: when it exceeds max_live the
/// least-recently-used session is simply dropped — nothing to flush —
/// and any command naming a non-live session whose state files exist
/// transparently resumes it first, bit-identically. CLOSE is the same drop,
/// requested explicitly. A session is gone for good only when its files
/// are deleted from the state directory, which the host never does.
///
/// Concurrency. handle_line() is fully thread-safe and is meant to be
/// called from many transport threads at once (examples/easybo_serve.cpp
/// runs one thread per TCP connection). The guarantees, in order of
/// importance:
///
///  - commands naming the SAME session are serialized by a per-session
///    mutex — a session's suggest/observe interleaving, and therefore its
///    proposal stream, is exactly the order its commands won that lock,
///    indistinguishable from a single-threaded host fed the same order;
///  - commands naming DIFFERENT sessions never wait on each other's model
///    math or disk I/O — the host-level table lock covers only name→slot
///    lookup and LRU bookkeeping, never a suggest, observe, resume or
///    snapshot;
///  - LRU eviction under the table lock only try_locks its victims, so a
///    busy session is skipped rather than waited on; the live set can
///    therefore transiently exceed max_live — by at most the number of
///    commands in flight — and every completed command re-trims it.
///
/// Deadline-bounded execution. With HostLimits::serve_workers > 0 the
/// host runs SUGGEST/OBSERVE through a bounded WorkQueue instead of on
/// the calling (connection) thread: the caller parses, submits a closure
/// and waits on it with a per-request deadline. Three mechanisms keep one
/// slow session from starving the rest (docs/service-protocol.md
/// § Deadlines, docs/failure-model.md § Watchdog):
///
///  - a cooperative cancellation token (common::StopToken carrying the
///    request deadline) is threaded through the session's model math;
///    when it fires mid-SUGGEST the computation unwinds at a safe
///    checkpoint *before* anything is committed, the in-memory session is
///    dropped (disk still holds the exact pre-suggest state — a cancelled
///    suggest consumed nothing) and the client gets "ERR deadline ...;
///    retry";
///  - requests that sat in the admission queue longer than queue_wait_s
///    are shed at dequeue without touching the session ("ERR busy ...;
///    retry"), and submit() itself refuses when queue_capacity requests
///    are already waiting;
///  - a request that ignores cancellation past watchdog_grace_s trips the
///    watchdog: the caller stops waiting, replies "ERR deadline", and the
///    offending session — only that session — is quarantined once its
///    runaway computation finally returns. A pre-commit token check in
///    Session::suggest guarantees even the runaway cannot commit a
///    proposal past its deadline.
///
/// Retry hints in "ERR busy"/"ERR deadline" replies are derived from the
/// host's online queue-wait/execution statistics (retry_hint_ms()).
///
/// Overload and storage failure. The host sheds load instead of queueing
/// without bound: when more than HostLimits::max_inflight commands are in
/// flight the newcomer gets "ERR busy ..." immediately. Storage faults
/// follow a journal-first contract (docs/failure-model.md): a mutation
/// whose journal append failed is rolled back by dropping the in-memory
/// session and *quarantining* the name — subsequent commands get
/// "ERR quarantined ..." without touching the damaged files until CLOSE
/// clears the quarantine; a refit-snapshot failure after a successful
/// append is already durable, so the request still replies OK and only
/// the health plane records the fault. The bare "STATUS" health probe
/// bypasses both shedding and all per-session locks, so it stays
/// responsive while the host is saturated or degraded.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stop_token.h"
#include "obs/online_stats.h"
#include "obs/stream.h"
#include "obs/trace.h"
#include "serve/session.h"
#include "serve/work_queue.h"

namespace easybo::serve {

/// True when \p name is a valid session name: nonempty, at most 128
/// characters, drawn from [A-Za-z0-9._-], not starting with '.' or '-'
/// (names become file names inside the state directory and wire tokens;
/// this set can never escape either role).
bool valid_session_name(const std::string& name);

/// Longest accepted request line. SessionHost::handle_line answers a
/// longer line with one "ERR"; both transports (TcpServer and
/// easybo_serve's stdio loop) cut a peer off once this many bytes arrive
/// without a newline, since a lost frame has nothing to resynchronize on.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Abuse/overload knobs. The defaults are generous enough that a
/// well-behaved client never notices them.
struct HostLimits {
  /// Commands allowed in flight at once before newcomers are shed with
  /// "ERR busy". The bare "STATUS" health probe is exempt.
  std::size_t max_inflight = 256;
  /// Worker threads executing SUGGEST/OBSERVE off the calling thread.
  /// 0 (the default) keeps the direct path: the calling thread runs the
  /// command itself, with no deadlines — exactly the pre-pool behavior.
  std::size_t serve_workers = 0;
  /// Admission-queue bound (pool mode): submissions beyond it are shed
  /// with "ERR busy" before anything is enqueued.
  std::size_t queue_capacity = 64;
  /// Per-request deadline in seconds (pool mode). 0 disables deadlines:
  /// requests run to completion however long they take.
  double request_deadline_s = 2.0;
  /// Shed a request at dequeue when it sat queued longer than this
  /// (pool mode; its client has likely timed out already). 0 disables.
  double queue_wait_s = 1.0;
  /// How long past the deadline a request may ignore cancellation before
  /// the watchdog classifies it as stuck and quarantines its session.
  double watchdog_grace_s = 2.0;
};

class SessionHost {
 public:
  /// \param state_dir  directory for per-session state files (created if
  ///                   absent): "<name>.config" (the NEW command's JSON),
  ///                   "<name>.journal", "<name>.snapshot" and the
  ///                   rotated "<name>.snapshot.old"
  /// \param max_live   cap on concurrently live Session objects; the
  ///                   least-recently-used beyond it is dropped (its
  ///                   files stay resumable)
  /// \param limits     overload/abuse knobs, see HostLimits
  SessionHost(std::string state_dir, std::size_t max_live,
              HostLimits limits = {});

  /// Joins the worker pool (draining queued requests) before any host
  /// state the workers touch is torn down.
  ~SessionHost();

  /// Handles one protocol line and returns the one-line reply. Never
  /// throws for malformed input or session errors — those become "ERR "
  /// replies (the host serves many clients; one bad request must not
  /// take the process down). Thread-safe; see the file comment for the
  /// ordering guarantees.
  std::string handle_line(const std::string& line);

  /// Counters mirror to \p sink as "serve.shed", "serve.io_faults",
  /// "serve.quarantined", "serve.deadline_cut", "serve.queue_shed" and
  /// "serve.watchdog_trips"; sessions loaded afterwards inherit the sink
  /// too (core counters plus wall SUGGEST-to-OBSERVE turnaround spans).
  /// Set once before serving traffic; the sink must outlive the host (or
  /// be reset to nullptr first).
  void set_trace(obs::TraceSink* sink) {
    trace_.store(sink, std::memory_order_release);
  }

  /// Registers the live telemetry stream for the health plane: when set,
  /// the bare-"STATUS" health object gains a "stream" field holding the
  /// sink's stats_json() — events emitted/dropped plus the online eval
  /// latency/inner-evals/retry statistics. Usually the same object as
  /// set_trace's sink (easybo_serve --stream wires both). Same lifetime
  /// contract as set_trace.
  void set_stream(obs::StreamSink* sink) {
    stream_.store(sink, std::memory_order_release);
  }

  /// Test/chaos seam: injects a sleep into SUGGEST on one named session,
  /// while it holds its slot lock (simulating a slow acquisition
  /// maximization). With ignore_stop false the sleep polls the request's
  /// cancellation token every few milliseconds — a deadline cuts it like
  /// any cooperative computation. With ignore_stop true it sleeps
  /// through, modelling a computation with no safe checkpoints — the
  /// watchdog path. Behaviorally inert unless set (and session matches).
  struct DebugSlowdown {
    std::string session;  ///< empty = disabled
    double sleep_s = 0.0;
    bool ignore_stop = false;
  };
  void set_debug_slowdown(DebugSlowdown d);

  /// Number of live (loaded) sessions. Quarantined names are not live.
  std::size_t live_count() const;
  bool is_live(const std::string& name) const;
  bool is_quarantined(const std::string& name) const;

  /// The bare-"STATUS" health object: live/quarantined session counts,
  /// in-flight and lifetime request counts, shed/storage-fault/deadline
  /// counters, "storage":"ok"|"degraded" (degraded while any session is
  /// quarantined), and — in pool mode — worker/queue gauges plus the
  /// online queue-wait and execution statistics behind retry_hint_ms().
  /// Takes no per-session lock and touches no disk.
  std::string health_json() const;

  std::size_t shed_count() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::size_t io_fault_count() const {
    return io_faults_.load(std::memory_order_relaxed);
  }
  std::size_t quarantined_count() const {
    return quarantine_gauge_.load(std::memory_order_relaxed);
  }
  std::size_t deadline_cut_count() const {
    return deadline_cut_.load(std::memory_order_relaxed);
  }
  std::size_t queue_shed_count() const {
    return queue_shed_.load(std::memory_order_relaxed);
  }
  std::size_t watchdog_trip_count() const {
    return watchdog_trips_.load(std::memory_order_relaxed);
  }

  /// Requests waiting for a worker right now (0 in direct mode).
  std::size_t queue_depth() const;

  /// How long a shed/deadline-cut client should wait before retrying, in
  /// milliseconds: derived from the online queue-wait p90 and execution
  /// CEMA (2 * wait_p90 + exec_cema, clamped to [25ms, 30s]; 100ms until
  /// the first sample). Embedded in every "ERR busy"/"ERR deadline"
  /// reply as "retry in <N>ms".
  std::size_t retry_hint_ms() const;

  const std::string& state_dir() const { return state_dir_; }
  std::size_t max_live() const { return max_live_; }

 private:
  /// One session name's place in the host. Slots outlive their Session
  /// objects (they also carry quarantine state) and are only ever erased
  /// while nobody else can hold a reference, which in practice means
  /// never — the map is bounded by the set of names with on-disk state.
  struct Slot {
    /// Serializes every command naming this session, including its
    /// resume-on-demand and all of its disk I/O. Timed so a deadline
    /// request can bound its lock wait (try_lock_until) instead of
    /// queueing behind a slow holder indefinitely.
    std::timed_mutex mutex;
    /// Guarded by mutex. Null while not live.
    std::unique_ptr<Session> session;
    /// Guarded by mutex. A quarantined name refuses everything but
    /// STATUS and CLOSE; see quarantine_locked().
    bool quarantined = false;
    std::string quarantine_reason;
    /// Set (without holding mutex — the runaway has it) when the
    /// watchdog trips on this session; converted into a quarantine by
    /// watchdog_quarantine() once the runaway computation returns, or
    /// cleared by a CLOSE that wins the race. While set, commands refuse
    /// instead of blocking on the runaway's lock.
    std::atomic<bool> poisoned{false};
    /// Leaf lock (never held while taking any other) for the small
    /// metadata below, readable while mutex is held elsewhere.
    std::mutex meta_mutex;
    /// Guarded by meta_mutex. Why the watchdog poisoned this slot.
    std::string poison_reason;
    /// Guarded by meta_mutex. Last successfully computed status_json,
    /// served by STATUS's try-lock fast path while the slot is busy.
    std::string last_status;
    /// Guarded by the table mutex: whether (and where) this slot sits in
    /// lru_. in_lru is true exactly while session is loaded, except for
    /// the instant between a load and its mark_used().
    bool in_lru = false;
    std::list<std::string>::iterator lru_pos;
  };

  std::string config_path(const std::string& name) const;
  std::string checkpoint_base(const std::string& name) const;

  obs::TraceSink* trace() const {
    return trace_.load(std::memory_order_acquire);
  }

  /// Finds the slot for \p name, creating it when \p create_missing.
  /// Also pre-evicts LRU victims when this command is about to load a
  /// session into a full live set. Takes the table lock.
  std::shared_ptr<Slot> obtain_slot(const std::string& name,
                                    bool create_missing);

  /// Drops least-recently-used sessions until at most \p target remain
  /// live. Caller holds the table lock. Victims whose slot mutex is held
  /// elsewhere are skipped, never waited on — so the live set can remain
  /// above target by the number of sessions busy at that instant (at
  /// most one per transport thread; the next command trims again).
  void evict_locked(const Slot* keep, std::size_t target);

  /// LRU bookkeeping; both take the table lock and are safe to call
  /// while holding a slot mutex (the reverse order — table lock, then
  /// *blocking* on a slot mutex — never happens; eviction try_locks).
  void mark_used(const std::string& name, Slot& slot);
  void mark_unloaded(const std::string& name, Slot& slot);

  /// Loads slot.session from the state directory: resume, or re-create
  /// from the persisted config when nothing beyond the config survived a
  /// crashed NEW. Caller holds the slot mutex. Throws on failure.
  void load_locked(const std::string& name, Slot& slot);

  /// A live session held for one SUGGEST or OBSERVE, or the reply that
  /// refuses the command before anything was attempted. The lock is
  /// declared after the slot so it unlocks before the slot can go.
  struct Entered {
    std::shared_ptr<Slot> slot;  ///< null when refused
    std::unique_lock<std::timed_mutex> lock;
    std::string refusal;  ///< non-empty: reply with it
  };

  /// The entry step SUGGEST and OBSERVE share: obtain the slot, refuse a
  /// poisoned one, take its lock (bounded by \p stop's deadline when it
  /// has one), refuse a quarantined slot or an already expired request,
  /// resume the session on demand and mark it used. Throws what
  /// obtain_slot() and load_locked() throw.
  Entered enter_session(const std::string& name,
                        const common::StopToken* stop);

  /// "ERR deadline <name>: <what> (nothing was attempted; retry in Nms)",
  /// counted as a deadline cut.
  std::string deadline_refusal(const std::string& name,
                               const std::string& what);

  /// Drops the in-memory session and marks the name quarantined. Caller
  /// holds the slot mutex.
  void quarantine_locked(const std::string& name, Slot& slot,
                         const std::string& reason);

  /// Recomputes and caches the slot's status_json (STATUS fast path).
  /// Caller holds the slot mutex; slot.session must be loaded.
  void cache_status_locked(Slot& slot);

  /// Marks \p name poisoned with \p reason (watchdog trip). Does NOT
  /// take the slot mutex — the runaway request holds it.
  void poison(const std::string& name, const std::string& reason);

  /// Runs on a worker thread after an abandoned-while-Running request's
  /// closure finally returns: converts the poison mark into a proper
  /// quarantine (unless a CLOSE intervened and cleared it).
  void watchdog_quarantine(const std::string& name);

  void note_io_fault();
  void note_deadline_cut();
  void note_queue_shed();
  void note_watchdog_trip();
  void record_wait(double seconds);
  void record_exec(double seconds);

  /// Pool-mode path for SUGGEST/OBSERVE: submit to the WorkQueue, wait
  /// out the deadline (+ watchdog grace), classify the outcome.
  std::string run_deadline(const std::string& line, const std::string& name);

  /// The closure a worker executes: queue-wait-cap check, then dispatch
  /// with the request's cancellation token. Never throws.
  std::string run_pooled(const std::string& line,
                         const common::StopToken& stop,
                         double queued_seconds);

  /// Executes one parsed command. \p stop is the request's cancellation
  /// token (null on the direct path and for NEW/STATUS/CLOSE).
  std::string dispatch(const std::string& line,
                       const common::StopToken* stop);

  std::string state_dir_;
  std::size_t max_live_;
  HostLimits limits_;

  mutable std::mutex table_mutex_;
  /// Guarded by table_mutex_. Values are shared_ptr so a command thread
  /// can release the table lock while it works under the slot's own
  /// mutex.
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  /// Guarded by table_mutex_. Names of loaded sessions, most recent
  /// first.
  std::list<std::string> lru_;

  std::atomic<obs::TraceSink*> trace_{nullptr};
  std::atomic<obs::StreamSink*> stream_{nullptr};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> io_faults_{0};
  std::atomic<std::size_t> quarantine_gauge_{0};
  std::atomic<std::size_t> deadline_cut_{0};
  std::atomic<std::size_t> queue_shed_{0};
  std::atomic<std::size_t> watchdog_trips_{0};

  /// Guarded by stats_mutex_: online queue-wait and execution-time
  /// statistics (seconds) behind retry_hint_ms() and the health plane.
  mutable std::mutex stats_mutex_;
  obs::OnlineStat wait_stats_;
  obs::OnlineStat exec_stats_;

  mutable std::mutex slowdown_mutex_;
  DebugSlowdown slowdown_;

  /// Present only in pool mode (serve_workers > 0). Declared LAST so it
  /// is destroyed FIRST: workers touch every member above during drain.
  std::unique_ptr<WorkQueue> queue_;
};

}  // namespace easybo::serve
