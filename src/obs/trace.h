#pragma once
/// \file trace.h
/// \brief The observability seam of the BO engine room: a TraceSink
/// interface with RAII ScopedTimer spans and named monotonic counters.
///
/// The async-BO frameworks this repo models itself on (Alvi et al. 2019;
/// Nomura 2020) justify their scheduling claims with per-phase and
/// per-worker statistics; this layer makes the same numbers readable off
/// any run: where the time goes (GP refits vs acquisition maximization vs
/// executor idle) and how often the hot paths fire (Cholesky full
/// refactors vs rank-1 extends, jitter escalations, dedup nudges).
///
/// Wiring: every instrumented component holds a non-owning `TraceSink*`
/// that defaults to nullptr — the null sink. With a null sink a span
/// reads no clock and a counter bump is one predicted branch, so
/// observability off is (measurably, see bench/micro_gp) free and the
/// instrumented code paths are behaviorally inert either way: no RNG
/// draws, no allocation, no control-flow change.
///
///   obs::RecordingSink rec;
///   engine.set_trace(&rec);
///   ... run ...
///   obs::MetricsReport report = rec.report();   // -> JSON / CSV

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace easybo::obs {

/// The phases a BO run cycles through. Used as fixed-size timer slots so
/// recording a span is an array update, not a map lookup.
enum class Phase : std::size_t {
  InitDesign,     ///< the whole random initial-design phase (incl. waits)
  ModelFit,       ///< z-scoring + covariance (re)factorization, no MLE
  HyperRefit,     ///< hyperparameter MLE (train_mle), incl. its inner fits
  AcqMaximize,    ///< acquisition maximization (screening + refinement)
  ObjectiveEval,  ///< objective run time, on the EXECUTOR clock (virtual
                  ///< seconds on VirtualExecutor, wall on ThreadExecutor)
  ExecutorWait,   ///< proposer blocked in wait_next() (wall clock)
  Checkpoint,     ///< durability I/O: journal fsyncs + snapshot writes
  kCount
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kCount);

/// Stable snake_case name, also the key used in the JSON/CSV exports.
const char* to_string(Phase phase);

class RecordingSink;

/// Consumer of trace events. Implementations must tolerate concurrent
/// calls (executor workers may report while the proposer records spans).
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Adds one span of \p seconds to \p phase.
  virtual void add_time(Phase phase, double seconds) = 0;

  /// Increments the named monotonic counter. Names are dotted lowercase
  /// paths, e.g. "gp.chol_extend"; they become JSON keys verbatim.
  virtual void add_counter(std::string_view name, std::uint64_t delta) = 0;

  /// The RecordingSink at the end of this sink's forwarding chain, when
  /// there is one — BoEngine grafts executor/worker stats onto it at the
  /// end of a run. Plain sinks have none; RecordingSink returns itself;
  /// decorators that forward downstream (obs::StreamSink) chase their
  /// forward pointer.
  virtual RecordingSink* recording_sink() { return nullptr; }
};

/// Null-safe counter bump — the call every instrumented site uses, so a
/// null sink costs exactly one branch.
inline void count(TraceSink* sink, std::string_view name,
                  std::uint64_t delta = 1) {
  if (sink != nullptr) sink->add_counter(name, delta);
}

/// RAII span: measures wall time from construction to destruction (or an
/// early stop()) and reports it to the sink. Reads no clock at all when
/// the sink is null.
class ScopedTimer {
 public:
  ScopedTimer(TraceSink* sink, Phase phase) : sink_(sink), phase_(phase) {
    if (sink_ != nullptr) start_ = Clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { stop(); }

  /// Ends the span early. Idempotent; the destructor then does nothing.
  void stop() {
    if (sink_ == nullptr) return;
    const auto elapsed = Clock::now() - start_;
    sink_->add_time(phase_,
                    std::chrono::duration<double>(elapsed).count());
    sink_ = nullptr;
  }

 private:
  using Clock = std::chrono::steady_clock;
  TraceSink* sink_;
  Phase phase_;
  Clock::time_point start_;
};

}  // namespace easybo::obs
