#include "obs/stream.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/error.h"

namespace easybo::obs {

namespace {

/// A "stats" frame goes out after every this-many drained events.
constexpr std::size_t kStatsEvery = 256;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Frame timestamps: microsecond resolution is plenty for telemetry and
/// keeps the tail humanly readable.
std::string tstamp(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  return buf;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

StreamSink::StreamSink(const std::string& path, StreamOptions options,
                       TraceSink* forward)
    : path_(path),
      options_(std::move(options)),
      forward_(forward),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  ring_.resize(options_.queue_capacity);
  batch_.reserve(options_.queue_capacity);
  next_stats_frame_ = kStatsEvery;
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) {
    throw Error("StreamSink: cannot open " + path_ + " for writing");
  }
  write_frame("{\"stream\":\"easybo.stream.v1\",\"type\":\"hello\","
              "\"source\":\"" +
              escape(options_.source) + "\"}");
  std::fflush(file_);
  if (!options_.manual_drain) {
    drainer_ = std::thread([this] { drain_loop(); });
  }
}

StreamSink::~StreamSink() { close(); }

void StreamSink::add_time(Phase phase, double seconds) {
  if (forward_ != nullptr) forward_->add_time(phase, seconds);
  Event e;
  e.t = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch_)
            .count();
  e.value = seconds;
  e.phase = phase;
  e.is_span = true;
  enqueue(e);
}

void StreamSink::add_counter(std::string_view name, std::uint64_t delta) {
  if (forward_ != nullptr) forward_->add_counter(name, delta);
  Event e;
  e.t = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch_)
            .count();
  e.value = static_cast<double>(delta);
  e.is_span = false;
  // Counter names are in-repo dotted paths well under the inline buffer;
  // a longer (hostile) name is truncated rather than allocated for.
  const std::size_t n = std::min(name.size(), sizeof(e.name) - 1);
  std::memcpy(e.name, name.data(), n);
  e.name_len = static_cast<std::uint8_t>(n);
  enqueue(e);
}

RecordingSink* StreamSink::recording_sink() {
  return forward_ != nullptr ? forward_->recording_sink() : nullptr;
}

void StreamSink::enqueue(const Event& e) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (!accepting_) return;  // late event after close(): discarded
  Event& slot = ring_[(head_ + size_) % ring_.size()];
  if (size_ == ring_.size()) {
    // Backpressure: drop the OLDEST queued event (its seq disappears
    // from the tail — consumers see the gap) and take its slot.
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
    Event& newest = ring_[(head_ + size_ - 1) % ring_.size()];
    newest = e;
    newest.seq = next_seq_++;
  } else {
    slot = e;
    slot.seq = next_seq_++;
    ++size_;
  }
  ++enqueued_;
}

std::size_t StreamSink::drain_batch() {
  std::uint64_t dropped_total = 0;
  std::uint64_t enqueued_total = 0;
  batch_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (std::size_t i = 0; i < size_; ++i) {
      batch_.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    size_ = 0;
    head_ = 0;
    dropped_total = dropped_;
    enqueued_total = enqueued_;
  }

  std::string line;
  for (const Event& e : batch_) {
    line.clear();
    if (e.is_span) {
      line = "{\"type\":\"span\",\"seq\":" + std::to_string(e.seq) +
             ",\"t\":" + tstamp(e.t) + ",\"phase\":\"" +
             to_string(e.phase) + "\",\"seconds\":" + num(e.value) + "}";
    } else {
      line = "{\"type\":\"counter\",\"seq\":" + std::to_string(e.seq) +
             ",\"t\":" + tstamp(e.t) + ",\"name\":\"" +
             escape(std::string_view(e.name, e.name_len)) +
             "\",\"delta\":" + std::to_string(
                                   static_cast<std::uint64_t>(e.value)) +
             "}";
    }
    write_frame(line);
  }

  bool emit_stats = false;
  std::uint64_t new_drops = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const Event& e : batch_) {
      if (e.is_span) {
        if (e.phase == Phase::ObjectiveEval) {
          stats_.eval_latency.add(e.value);
        }
      } else {
        const std::string_view name(e.name, e.name_len);
        if (name == "acq.inner_evals") {
          stats_.acq_inner_evals.add(e.value);
        } else if (name == "eval.retries") {
          stats_.eval_retries.add(e.value);
        }
      }
    }
    stats_.emitted += batch_.size();
    stats_.enqueued = enqueued_total;
    stats_.dropped = dropped_total;
    if (dropped_total > reported_drops_) {
      new_drops = dropped_total - reported_drops_;
      reported_drops_ = dropped_total;
    }
    if (stats_.emitted >= next_stats_frame_) {
      emit_stats = true;
      next_stats_frame_ = stats_.emitted + kStatsEvery;
    }
  }

  if (new_drops > 0) {
    write_frame("{\"type\":\"drop\",\"dropped_total\":" +
                std::to_string(dropped_total) + "}");
    // Surface the loss on the post-hoc report too, so a MetricsReport of
    // a backpressured run says "the stream under-counts".
    count(forward_, "obs.stream_dropped", new_drops);
  }
  if (emit_stats) {
    write_frame("{\"type\":\"stats\",\"payload\":" + stats_json() + "}");
  }
  if (!batch_.empty() || new_drops > 0 || emit_stats) std::fflush(file_);
  return batch_.size();
}

void StreamSink::drain_loop() {
  const auto interval = std::chrono::duration<double>(
      options_.drain_interval_s > 0.0 ? options_.drain_interval_s : 0.05);
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!shutdown_) {
    wake_.wait_for(lock, interval);
    lock.unlock();
    drain_batch();
    lock.lock();
  }
}

std::size_t StreamSink::drain_now() { return drain_batch(); }

void StreamSink::close() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (closed_) return;
    closed_ = true;
    shutdown_ = true;
  }
  wake_.notify_all();
  if (drainer_.joinable()) drainer_.join();
  {
    // Stop accepting first so the final drain leaves exact accounting:
    // enqueued == emitted + dropped.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    accepting_ = false;
  }
  drain_batch();  // whatever arrived after the last cycle
  const StreamStats totals = stats();
  write_frame("{\"type\":\"stats\",\"payload\":" + stats_json() + "}");
  write_frame("{\"type\":\"bye\",\"events\":" +
              std::to_string(totals.emitted) +
              ",\"dropped_total\":" + std::to_string(totals.dropped) + "}");
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
}

void StreamSink::write_frame(const std::string& line) {
  // Best-effort tail: a full disk must degrade telemetry, never the run.
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

StreamStats StreamSink::stats() const {
  std::lock_guard<std::mutex> queue_lock(queue_mutex_);
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  StreamStats s = stats_;
  // The queue-side totals are authoritative (the drainer's copies lag by
  // up to one batch).
  s.enqueued = enqueued_;
  s.dropped = dropped_;
  return s;
}

std::string StreamSink::stats_json() const {
  const StreamStats s = stats();
  std::string out = "{\"events\":" + std::to_string(s.emitted);
  out += ",\"dropped\":" + std::to_string(s.dropped);
  out += ",\"eval_latency\":" + s.eval_latency.json();
  out += ",\"acq_inner_evals\":" + s.acq_inner_evals.json();
  out += ",\"eval_retries\":" + s.eval_retries.json();
  return out + "}";
}

}  // namespace easybo::obs
