#pragma once
/// \file stream.h
/// \brief StreamSink: live telemetry streaming off the TraceSink seam.
///
/// A bounded multi-producer queue that receives every span close and
/// counter delta, and a dedicated drainer thread that writes them as
/// JSONL frames ("easybo.stream.v1", docs/telemetry.md) to a file tail —
/// a plain file, a FIFO, or /dev/stdout; anything tail -f or
/// scripts/obs_tail.py can follow.
///
/// Hot-path contract: add_time()/add_counter() never block on I/O and
/// never allocate. Each call is one steady-clock read plus a short
/// critical section (fixed-size copy into a pre-allocated ring) on a
/// mutex the drainer holds only to swap batches out — never across a
/// write(). Under backpressure (the drainer cannot keep up) the OLDEST
/// queued event is dropped, the drop is counted exactly, and the stream
/// reports it via "drop" frames and the "obs.stream_dropped" counter on
/// the forwarded sink. Emission therefore never blocks the BO hot path,
/// and — like every TraceSink — the sink draws no RNG and changes no
/// control flow: a seeded run streams bit-identical proposals to a
/// null-sink run (tests/test_stream.cpp pins this).
///
/// Composition: a StreamSink can forward every event synchronously to a
/// downstream sink (typically a RecordingSink), so one instrumented run
/// can both stream live and assemble the post-hoc MetricsReport:
///
///   obs::RecordingSink rec;
///   obs::StreamSink stream("run.stream.jsonl", {}, &rec);
///   engine.set_trace(&stream);      // stream live + record post-hoc
///
/// On top of the queue the drainer maintains the online-statistics layer
/// (obs/online_stats.h): CEMA + streaming quantiles over `objective eval`
/// latency, `acq.inner_evals` deltas and `eval.retries` — snapshotted by
/// stats()/stats_json() for the serve STATUS health plane and emitted
/// as a "stats" frame after every 256 drained events.

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/online_stats.h"
#include "obs/trace.h"

namespace easybo::obs {

struct StreamOptions {
  /// Bounded queue capacity in events; the oldest event is dropped when
  /// a producer finds it full.
  std::size_t queue_capacity = 4096;
  /// Drainer poll period. The drainer also wakes immediately on close().
  double drain_interval_s = 0.05;
  /// "source" label in the hello frame — names this process/run when an
  /// aggregator tails several streams.
  std::string source = "easybo";
  /// Tests only: do not start the drainer thread; the caller pumps the
  /// queue explicitly with drain_now().
  bool manual_drain = false;
};

/// Snapshot of the sink's lifetime accounting and online statistics.
struct StreamStats {
  std::uint64_t enqueued = 0;  ///< events accepted into the queue
  std::uint64_t emitted = 0;   ///< events written to the tail
  std::uint64_t dropped = 0;   ///< drop-oldest casualties (exact)
  OnlineStat eval_latency;     ///< "objective eval" span seconds
  OnlineStat acq_inner_evals;  ///< "acq.inner_evals" counter deltas
  OnlineStat eval_retries;     ///< "eval.retries" counter deltas
};

class StreamSink final : public TraceSink {
 public:
  /// Opens \p path for writing (truncating) and emits the hello frame.
  /// Starts the drainer thread unless options.manual_drain. Throws
  /// easybo::Error when the file cannot be opened.
  explicit StreamSink(const std::string& path, StreamOptions options = {},
                      TraceSink* forward = nullptr);
  StreamSink(const StreamSink&) = delete;
  StreamSink& operator=(const StreamSink&) = delete;
  ~StreamSink() override;  // close()

  void add_time(Phase phase, double seconds) override;
  void add_counter(std::string_view name, std::uint64_t delta) override;
  RecordingSink* recording_sink() override;

  /// Drains whatever is queued, emits the final "stats" and "bye" frames
  /// and closes the file. Idempotent. Producers must have stopped (or be
  /// only the caller); late events after close are discarded.
  void close();

  /// Manual-drain mode: pump one drain cycle on the caller's thread.
  /// Returns the number of events written.
  std::size_t drain_now();

  StreamStats stats() const;

  /// One-line JSON of stats() — the object embedded in "stats" frames
  /// and in the serve host's bare-STATUS health JSON:
  ///   {"events":N,"dropped":N,"eval_latency":{...},
  ///    "acq_inner_evals":{...},"eval_retries":{...}}
  std::string stats_json() const;

  const std::string& path() const { return path_; }
  const StreamOptions& options() const { return options_; }

 private:
  struct Event {
    std::uint64_t seq = 0;
    double t = 0.0;       ///< seconds since sink creation (steady clock)
    double value = 0.0;   ///< span seconds, or counter delta
    Phase phase = Phase::InitDesign;
    bool is_span = false;
    std::uint8_t name_len = 0;  ///< counters: name length (may truncate)
    char name[47] = {};
  };

  void enqueue(const Event& e);
  std::size_t drain_batch();  ///< one swap-format-write cycle
  void drain_loop();
  void write_frame(const std::string& line);

  std::string path_;
  StreamOptions options_;
  TraceSink* forward_;
  std::FILE* file_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;

  // Ring buffer (guarded by queue_mutex_).
  mutable std::mutex queue_mutex_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< index of the oldest queued event
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dropped_ = 0;
  bool accepting_ = true;

  // Online statistics + emission accounting (guarded by stats_mutex_;
  // written only by the draining thread).
  mutable std::mutex stats_mutex_;
  StreamStats stats_;
  std::uint64_t reported_drops_ = 0;
  std::uint64_t next_stats_frame_ = 0;

  // Drainer lifecycle.
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool shutdown_ = false;
  bool closed_ = false;
  std::thread drainer_;
  std::vector<Event> batch_;  ///< drain scratch (drainer thread only)
};

}  // namespace easybo::obs
