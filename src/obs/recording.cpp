#include "obs/recording.h"

namespace easybo::obs {

void RecordingSink::add_time(Phase phase, double seconds) {
  const auto i = static_cast<std::size_t>(phase);
  std::lock_guard lock(mutex_);
  seconds_[i] += seconds;
  ++spans_[i];
}

void RecordingSink::add_counter(std::string_view name, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  // Heterogeneous lookup avoids a std::string allocation on the hot
  // repeat-bump path; the string is built once, on first use of a name.
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

double RecordingSink::seconds(Phase phase) const {
  std::lock_guard lock(mutex_);
  return seconds_[static_cast<std::size_t>(phase)];
}

std::uint64_t RecordingSink::spans(Phase phase) const {
  std::lock_guard lock(mutex_);
  return spans_[static_cast<std::size_t>(phase)];
}

std::uint64_t RecordingSink::counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

MetricsReport RecordingSink::report() const {
  std::lock_guard lock(mutex_);
  MetricsReport r;
  r.phases.reserve(kNumPhases);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    PhaseStat p;
    p.name = to_string(static_cast<Phase>(i));
    p.seconds = seconds_[i];
    p.spans = spans_[i];
    r.phases.push_back(std::move(p));
  }
  r.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    r.counters.push_back({name, value});
  }
  return r;
}

}  // namespace easybo::obs
