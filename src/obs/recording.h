#pragma once
/// \file recording.h
/// \brief The recording TraceSink: accumulates spans and counters in
/// memory and snapshots them into a MetricsReport.
///
/// Thread-safe: executor worker threads and the proposer thread may
/// record concurrently (the TSan CI job covers this). Recording is only
/// paid when somebody actually installed this sink — the default null
/// sink never reaches here.

#include <array>
#include <map>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace easybo::obs {

class RecordingSink final : public TraceSink {
 public:
  void add_time(Phase phase, double seconds) override;
  void add_counter(std::string_view name, std::uint64_t delta) override;
  RecordingSink* recording_sink() override { return this; }

  /// Accumulated seconds / span count of one phase so far.
  double seconds(Phase phase) const;
  std::uint64_t spans(Phase phase) const;

  /// Current value of a named counter; 0 when it never fired.
  std::uint64_t counter(std::string_view name) const;

  /// Snapshot: all phases (in declaration order, zero entries included)
  /// and all counters (sorted by name). Worker stats and makespan are the
  /// executor's to report; the engine grafts them on (see BoEngine).
  MetricsReport report() const;

 private:
  mutable std::mutex mutex_;
  std::array<double, kNumPhases> seconds_{};
  std::array<std::uint64_t, kNumPhases> spans_{};
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

}  // namespace easybo::obs
