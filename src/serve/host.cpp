#include "serve/host.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "bo/checkpoint.h"
#include "common/error.h"
#include "io/journal.h"
#include "io/json.h"

namespace easybo::serve {

namespace {

/// Splits off the first space-delimited token; advances \p rest past the
/// separating spaces. Empty token at end of line.
std::string next_token(std::string_view& rest) {
  std::size_t start = 0;
  while (start < rest.size() && rest[start] == ' ') ++start;
  std::size_t end = start;
  while (end < rest.size() && rest[end] != ' ') ++end;
  std::string token(rest.substr(start, end - start));
  rest.remove_prefix(end);
  return token;
}

std::string_view trim_leading(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  return s;
}

/// Replies must be exactly one line; error messages are arbitrary what()
/// strings, so fold any newline into a space.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// An RFC 8259 number, the grammar NEW configs use, read in any locale.
/// JSON has no inf or nan and an overflow is refused, so the value is
/// finite (clients report failures via the fail form). A bare number
/// starts with '-' or a digit and ends with a digit, which also keeps out
/// the whitespace parse_json skips.
double parse_double_token(const std::string& token, const char* what) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (!token.empty() && (token.front() == '-' || digit(token.front())) &&
      digit(token.back())) {
    try {
      return io::parse_json(token).as_double();
    } catch (const Error&) {  // refused below, naming the token
    }
  }
  throw Error(std::string("expected a finite number for ") + what +
              ", got \"" + token + "\"");
}

std::size_t parse_tag_token(const std::string& token) {
  try {
    return static_cast<std::size_t>(io::parse_u64(token));
  } catch (const Error&) {
    throw Error("expected a non-negative integer tag, got \"" + token +
                "\"");
  }
}

std::string suggestion_json(const bo::Suggestion& s) {
  std::string out = "{\"tag\":" + std::to_string(s.tag) + ",\"x\":[";
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    if (i != 0) out += ",";
    out += io::json_number(s.x[i]);
  }
  out += "],\"is_init\":";
  out += s.is_init ? "true" : "false";
  return out + "}";
}

bool has_control_bytes(const std::string& line) {
  for (const char c : line) {
    if (static_cast<unsigned char>(c) < 0x20) return true;
  }
  return false;
}

std::string err_quarantined(const std::string& name,
                            const std::string& reason) {
  return one_line("ERR quarantined " + name + ": " + reason +
                  " (CLOSE to reopen after repair)");
}

std::string err_runaway(const std::string& name, std::size_t hint_ms) {
  return one_line("ERR busy " + name +
                  ": a runaway request is still executing (watchdog "
                  "tripped; retry in " +
                  std::to_string(hint_ms) + "ms)");
}

/// Milliseconds as a wire-friendly integer string.
std::string ms_str(double seconds) {
  return std::to_string(
      static_cast<long long>(std::llround(seconds * 1000.0)));
}

std::chrono::steady_clock::duration steady_dur(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

/// Deadline-bounded mutex acquisition. Not timed_mutex::try_lock_until:
/// on glibc that lowers to pthread_mutex_clocklock, which TSan's
/// interceptors do not cover, so a successful timed acquire is invisible
/// to the race detector and the eventual unlock reports as unpaired.
/// Polling plain try_lock (fully instrumented) at a 1 ms grain bounds
/// the wait just as hard, and the grain is noise against the
/// hundreds-of-ms deadlines this serves.
bool lock_until(std::unique_lock<std::timed_mutex>& lk,
                std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    if (lk.try_lock()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The debug slowdown seam's sleep: cooperative (polls the token every
/// few milliseconds, so a deadline cuts it like real model math) unless
/// ignore_stop simulates a computation with no safe checkpoints.
void injected_sleep(const SessionHost::DebugSlowdown& d,
                    const common::StopToken* stop) {
  const auto end = std::chrono::steady_clock::now() + steady_dur(d.sleep_s);
  for (;;) {
    if (!d.ignore_stop && stop != nullptr) stop->check("injected slowdown");
    const auto now = std::chrono::steady_clock::now();
    if (now >= end) break;
    const auto slice = std::min<std::chrono::steady_clock::duration>(
        std::chrono::milliseconds(5), end - now);
    std::this_thread::sleep_for(slice);
  }
  if (!d.ignore_stop && stop != nullptr) stop->check("injected slowdown");
}

/// RAII in-flight accounting so every exit path, including throws,
/// decrements.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<std::size_t>& n) : n_(n) {
    count = n_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  ~InflightGuard() { n_.fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
  std::size_t count = 0;  ///< in-flight total including this request

 private:
  std::atomic<std::size_t>& n_;
};

}  // namespace

bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  if (name.front() == '.' || name.front() == '-') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

SessionHost::SessionHost(std::string state_dir, std::size_t max_live,
                         HostLimits limits)
    : state_dir_(std::move(state_dir)), max_live_(max_live),
      limits_(limits) {
  EASYBO_REQUIRE(!state_dir_.empty(), "SessionHost: empty state directory");
  EASYBO_REQUIRE(max_live_ > 0, "SessionHost: max_live must be positive");
  EASYBO_REQUIRE(limits_.max_inflight > 0,
                 "SessionHost: max_inflight must be positive");
  EASYBO_REQUIRE(limits_.request_deadline_s >= 0.0 &&
                     limits_.queue_wait_s >= 0.0 &&
                     limits_.watchdog_grace_s >= 0.0,
                 "SessionHost: deadline knobs must be non-negative");
  std::error_code ec;
  std::filesystem::create_directories(state_dir_, ec);
  if (ec) {
    throw Error("SessionHost: cannot create state directory " + state_dir_ +
                ": " + ec.message());
  }
  if (limits_.serve_workers > 0) {
    WorkQueueOptions opt;
    opt.workers = limits_.serve_workers;
    opt.capacity = limits_.queue_capacity;
    queue_ = std::make_unique<WorkQueue>(opt);
  }
}

SessionHost::~SessionHost() {
  // Drain and join the workers while every member they touch is intact
  // (queue_ is also the last-declared member, so this is belt and
  // braces).
  queue_.reset();
}

std::string SessionHost::config_path(const std::string& name) const {
  return state_dir_ + "/" + name + ".config";
}

std::string SessionHost::checkpoint_base(const std::string& name) const {
  return state_dir_ + "/" + name;
}

std::size_t SessionHost::live_count() const {
  std::lock_guard<std::mutex> lk(table_mutex_);
  return lru_.size();
}

bool SessionHost::is_live(const std::string& name) const {
  std::lock_guard<std::mutex> lk(table_mutex_);
  const auto it = slots_.find(name);
  return it != slots_.end() && it->second->in_lru;
}

bool SessionHost::is_quarantined(const std::string& name) const {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(table_mutex_);
    const auto it = slots_.find(name);
    if (it == slots_.end()) return false;
    slot = it->second;
  }
  std::lock_guard<std::timed_mutex> lk(slot->mutex);
  return slot->quarantined;
}

void SessionHost::set_debug_slowdown(DebugSlowdown d) {
  std::lock_guard<std::mutex> lk(slowdown_mutex_);
  slowdown_ = std::move(d);
}

std::size_t SessionHost::queue_depth() const {
  return queue_ != nullptr ? queue_->depth() : 0;
}

std::size_t SessionHost::retry_hint_ms() const {
  double wait_p90 = 0.0;
  double exec_cema = 0.0;
  std::uint64_t samples = 0;
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    samples = wait_stats_.count() + exec_stats_.count();
    wait_p90 = wait_stats_.p90();
    exec_cema = exec_stats_.cema();
  }
  if (samples == 0) return 100;
  const double hint_ms = (2.0 * wait_p90 + exec_cema) * 1000.0;
  return static_cast<std::size_t>(
      std::lround(std::min(30000.0, std::max(25.0, hint_ms))));
}

std::string SessionHost::health_json() const {
  std::size_t live = 0;
  {
    std::lock_guard<std::mutex> lk(table_mutex_);
    live = lru_.size();
  }
  const std::size_t quarantined =
      quarantine_gauge_.load(std::memory_order_relaxed);
  std::string s = "{";
  auto put = [&s](const char* key, const std::string& value) {
    if (s.size() > 1) s += ",";
    s += std::string("\"") + key + "\":" + value;
  };
  put("sessions_live", std::to_string(live));
  put("quarantined", std::to_string(quarantined));
  put("inflight",
      std::to_string(inflight_.load(std::memory_order_relaxed)));
  put("requests",
      std::to_string(requests_.load(std::memory_order_relaxed)));
  put("shed", std::to_string(shed_.load(std::memory_order_relaxed)));
  put("io_faults",
      std::to_string(io_faults_.load(std::memory_order_relaxed)));
  put("deadline_cut",
      std::to_string(deadline_cut_.load(std::memory_order_relaxed)));
  put("queue_shed",
      std::to_string(queue_shed_.load(std::memory_order_relaxed)));
  put("watchdog_trips",
      std::to_string(watchdog_trips_.load(std::memory_order_relaxed)));
  put("max_live", std::to_string(max_live_));
  put("max_inflight", std::to_string(limits_.max_inflight));
  put("workers",
      std::to_string(queue_ != nullptr ? queue_->workers() : 0));
  put("queue_depth", std::to_string(queue_depth()));
  put("retry_hint_ms", std::to_string(retry_hint_ms()));
  if (queue_ != nullptr) {
    // The stats mutex guards plain arithmetic, never a session lock or
    // disk, so this stays within the health probe's contract.
    std::lock_guard<std::mutex> lk(stats_mutex_);
    put("queue_wait", wait_stats_.json());
    put("exec", exec_stats_.json());
  }
  put("storage", quarantined > 0 ? "\"degraded\"" : "\"ok\"");
  // The stream's own mutexes are held only for snapshot copies, so this
  // stays within the health probe's never-blocks-on-a-session contract.
  obs::StreamSink* stream = stream_.load(std::memory_order_acquire);
  if (stream != nullptr) put("stream", stream->stats_json());
  return s + "}";
}

void SessionHost::note_io_fault() {
  io_faults_.fetch_add(1, std::memory_order_relaxed);
  obs::count(trace(), "serve.io_faults", 1);
}

void SessionHost::note_deadline_cut() {
  deadline_cut_.fetch_add(1, std::memory_order_relaxed);
  obs::count(trace(), "serve.deadline_cut", 1);
}

void SessionHost::note_queue_shed() {
  queue_shed_.fetch_add(1, std::memory_order_relaxed);
  obs::count(trace(), "serve.queue_shed", 1);
}

void SessionHost::note_watchdog_trip() {
  watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
  obs::count(trace(), "serve.watchdog_trips", 1);
}

void SessionHost::record_wait(double seconds) {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  wait_stats_.add(seconds);
}

void SessionHost::record_exec(double seconds) {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  exec_stats_.add(seconds);
}

void SessionHost::evict_locked(const Slot* keep, std::size_t target) {
  if (lru_.empty() || lru_.size() <= target) return;
  auto it = std::prev(lru_.end());
  while (true) {
    const bool at_begin = it == lru_.begin();
    const auto cur = it;
    if (!at_begin) --it;
    Slot& victim = *slots_.at(*cur);
    if (&victim != keep) {
      std::unique_lock<std::timed_mutex> vl(victim.mutex, std::try_to_lock);
      // A victim another thread is mid-command on is skipped, never
      // waited on — blocking here would hold the table lock across that
      // command's model math and disk I/O.
      if (vl.owns_lock()) {
        victim.session.reset();
        victim.in_lru = false;
        lru_.erase(cur);
        if (lru_.size() <= target) return;
      }
    }
    if (at_begin) return;
  }
}

std::shared_ptr<SessionHost::Slot> SessionHost::obtain_slot(
    const std::string& name, bool create_missing) {
  {
    std::lock_guard<std::mutex> lk(table_mutex_);
    const auto it = slots_.find(name);
    if (it != slots_.end()) {
      if (!it->second->in_lru) {
        evict_locked(it->second.get(), max_live_ - 1);
      }
      return it->second;
    }
  }
  if (!create_missing && !io::file_exists(config_path(name))) {
    // No slot and no on-disk state: refuse without creating a slot, so
    // the table stays bounded by the set of real sessions no matter how
    // many bogus names a client probes.
    throw Error("unknown session \"" + name + "\" (no state under " +
                state_dir_ + ")");
  }
  std::lock_guard<std::mutex> lk(table_mutex_);
  auto [it, inserted] = slots_.try_emplace(name);
  if (inserted) it->second = std::make_shared<Slot>();
  if (!it->second->in_lru) {
    evict_locked(it->second.get(), max_live_ - 1);
  }
  return it->second;
}

void SessionHost::mark_used(const std::string& name, Slot& slot) {
  std::lock_guard<std::mutex> lk(table_mutex_);
  if (slot.in_lru) {
    lru_.splice(lru_.begin(), lru_, slot.lru_pos);
  } else {
    lru_.push_front(name);
    slot.lru_pos = lru_.begin();
    slot.in_lru = true;
  }
  // Concurrent loads can race past the pre-load eviction (each sees room
  // before any has taken it), so trim again after the fact. keep = this
  // slot: besides being the most recent, its mutex is held by the
  // caller and self-try_lock is undefined.
  evict_locked(&slot, max_live_);
}

void SessionHost::mark_unloaded(const std::string& /*name*/, Slot& slot) {
  std::lock_guard<std::mutex> lk(table_mutex_);
  if (slot.in_lru) {
    lru_.erase(slot.lru_pos);
    slot.in_lru = false;
  }
}

void SessionHost::load_locked(const std::string& name, Slot& slot) {
  // Resume-on-demand: the session was evicted or the host restarted. Its
  // persisted config re-parses to the same fingerprint the checkpoint
  // files carry, so the resume is exact.
  const std::string cpath = config_path(name);
  if (!io::file_exists(cpath)) {
    throw Error("unknown session \"" + name + "\" (no state under " +
                state_dir_ + ")");
  }
  SessionSpec spec = parse_session_config(io::read_file(cpath));
  try {
    if (!io::file_exists(bo::journal_file(checkpoint_base(name)))) {
      // The config was persisted but the journal never came to be: a
      // crash (or injected fault) inside a previous NEW before anything
      // beyond the config reached disk. Nothing was ever observable, so
      // re-creating fresh is exact.
      slot.session =
          Session::create(name, std::move(spec), checkpoint_base(name));
    } else {
      slot.session =
          Session::resume(name, std::move(spec), checkpoint_base(name));
    }
  } catch (const io::CheckpointError&) {
    note_io_fault();
    throw;  // verbatim: resume refusals carry their own precise message
  }
  slot.session->set_trace(trace());
}

void SessionHost::quarantine_locked(const std::string& name, Slot& slot,
                                    const std::string& reason) {
  slot.session.reset();
  mark_unloaded(name, slot);
  slot.quarantined = true;
  slot.quarantine_reason = one_line(reason);
  quarantine_gauge_.fetch_add(1, std::memory_order_relaxed);
  obs::count(trace(), "serve.quarantined", 1);
}

void SessionHost::cache_status_locked(Slot& slot) {
  std::string status = slot.session->status_json();
  std::lock_guard<std::mutex> ml(slot.meta_mutex);
  slot.last_status = std::move(status);
}

void SessionHost::poison(const std::string& name,
                         const std::string& reason) {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(table_mutex_);
    const auto it = slots_.find(name);
    if (it == slots_.end()) return;
    slot = it->second;
  }
  {
    std::lock_guard<std::mutex> ml(slot->meta_mutex);
    slot->poison_reason = one_line(reason);
  }
  slot->poisoned.store(true, std::memory_order_release);
}

void SessionHost::watchdog_quarantine(const std::string& name) {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(table_mutex_);
    const auto it = slots_.find(name);
    if (it == slots_.end()) return;
    slot = it->second;
  }
  // The runaway closure has returned, so its lock is released; nothing
  // long-running can hold it now.
  std::lock_guard<std::timed_mutex> lk(slot->mutex);
  if (!slot->poisoned.exchange(false, std::memory_order_acq_rel)) {
    return;  // a CLOSE won the race and cleared the poison: nothing to do
  }
  std::string reason;
  {
    std::lock_guard<std::mutex> ml(slot->meta_mutex);
    reason = std::move(slot->poison_reason);
    slot->poison_reason.clear();
  }
  if (reason.empty()) {
    reason = "a request ignored cancellation past the watchdog grace";
  }
  if (!slot->quarantined) quarantine_locked(name, *slot, reason);
}

std::string SessionHost::handle_line(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (line.size() > kMaxLineBytes) {
    return "ERR request line exceeds " + std::to_string(kMaxLineBytes) +
           " bytes";
  }
  if (has_control_bytes(line)) {
    return "ERR request contains control bytes";
  }
  {
    // The bare-STATUS health probe answers even while the host is
    // saturated: no shedding, no per-session lock, no disk.
    std::string_view peek = line;
    if (next_token(peek) == "STATUS" && trim_leading(peek).empty()) {
      return "OK " + health_json();
    }
  }
  InflightGuard inflight(inflight_);
  if (inflight.count > limits_.max_inflight) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::count(trace(), "serve.shed", 1);
    return "ERR busy (" + std::to_string(inflight.count) +
           " requests in flight, limit " +
           std::to_string(limits_.max_inflight) + "; retry in " +
           std::to_string(retry_hint_ms()) + "ms)";
  }
  try {
    if (queue_ != nullptr) {
      // Pool mode: the two session-mutating commands run on a worker
      // with a deadline; everything else (cheap or administrative) stays
      // on the calling thread. Invalid names fall through for the
      // ordinary parse error.
      std::string_view peek = line;
      const std::string cmd = next_token(peek);
      if (cmd == "SUGGEST" || cmd == "OBSERVE") {
        const std::string name = next_token(peek);
        if (valid_session_name(name)) return run_deadline(line, name);
      }
    }
    return dispatch(line, nullptr);
  } catch (const std::exception& e) {
    return one_line(std::string("ERR ") + e.what());
  }
}

std::string SessionHost::run_deadline(const std::string& line,
                                      const std::string& name) {
  const bool bounded = limits_.request_deadline_s > 0.0;
  const auto deadline = std::chrono::steady_clock::now() +
                        steady_dur(limits_.request_deadline_s);
  common::StopToken token;
  if (bounded) token = common::StopToken::after_deadline(deadline);
  std::shared_ptr<WorkQueue::Task> task = queue_->submit(
      [this, line](const common::StopToken& stop, double queued_seconds) {
        return run_pooled(line, stop, queued_seconds);
      },
      token, [this, name] { watchdog_quarantine(name); });
  if (task == nullptr) {
    note_queue_shed();
    return "ERR busy (admission queue full, " +
           std::to_string(limits_.queue_capacity) + " queued; retry in " +
           std::to_string(retry_hint_ms()) + "ms)";
  }
  if (!bounded) {
    task->wait();
    return task->take_reply();
  }
  const auto grace = steady_dur(limits_.watchdog_grace_s);
  if (task->wait_until(deadline + grace)) return task->take_reply();
  switch (task->abandon()) {
    case WorkQueue::Abandon::Completed:
      // Finished in the race between the timeout and the abandon.
      return task->take_reply();
    case WorkQueue::Abandon::Queued:
      // Never reached a worker within deadline + grace; the worker will
      // discard it unrun, so nothing was attempted, let alone committed.
      return deadline_refusal(name, "request expired in the admission queue");
    case WorkQueue::Abandon::Running:
      // The computation ignored its token past the grace period. Poison
      // the slot now (so other commands refuse instead of queueing on
      // the runaway's lock); the quarantine lands when it returns. The
      // pre-commit token check in Session::suggest keeps even this
      // request from committing anything.
      note_watchdog_trip();
      poison(name, "a request ignored cancellation for " +
                       ms_str(limits_.watchdog_grace_s) +
                       "ms past its deadline");
      return one_line("ERR deadline " + name +
                      ": request ignored cancellation past the " +
                      ms_str(limits_.watchdog_grace_s) +
                      "ms watchdog grace (watchdog tripped; session "
                      "quarantined once it completes; retry after CLOSE)");
  }
  return "ERR internal: unreachable abandon state";
}

std::string SessionHost::run_pooled(const std::string& line,
                                    const common::StopToken& stop,
                                    double queued_seconds) {
  record_wait(queued_seconds);
  if (limits_.queue_wait_s > 0.0 && queued_seconds > limits_.queue_wait_s) {
    // The request went stale in the queue; its client has likely given
    // up (or is about to). Shed before spending model math on it.
    note_queue_shed();
    return "ERR busy (queued " + ms_str(queued_seconds) + "ms, past the " +
           ms_str(limits_.queue_wait_s) + "ms queue-wait cap; retry in " +
           std::to_string(retry_hint_ms()) + "ms)";
  }
  const auto begin = std::chrono::steady_clock::now();
  std::string reply;
  try {
    reply = dispatch(line, &stop);
  } catch (const std::exception& e) {
    reply = one_line(std::string("ERR ") + e.what());
  }
  record_exec(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - begin)
                  .count());
  return reply;
}

std::string SessionHost::deadline_refusal(const std::string& name,
                                          const std::string& what) {
  note_deadline_cut();
  return one_line("ERR deadline " + name + ": " + what +
                  " (nothing was attempted; retry in " +
                  std::to_string(retry_hint_ms()) + "ms)");
}

SessionHost::Entered SessionHost::enter_session(
    const std::string& name, const common::StopToken* stop) {
  Entered entered;
  std::shared_ptr<Slot> slot = obtain_slot(name, /*create_missing=*/false);
  if (slot->poisoned.load(std::memory_order_acquire)) {
    entered.refusal = err_runaway(name, retry_hint_ms());
    return entered;
  }
  std::unique_lock<std::timed_mutex> lk(slot->mutex, std::defer_lock);
  if (stop != nullptr && stop->has_deadline()) {
    // Bound the lock wait by the request's own deadline: queueing behind
    // a slow holder is time spent exactly like queue wait.
    if (!lock_until(lk, stop->deadline())) {
      entered.refusal = deadline_refusal(
          name, "session lock not acquired within the deadline");
      return entered;
    }
  } else {
    lk.lock();
  }
  if (slot->quarantined) {
    entered.refusal = err_quarantined(name, slot->quarantine_reason);
    return entered;
  }
  if (stop != nullptr && stop->stop_requested()) {
    // Expired while waiting for the lock/queue: refuse before the
    // resume-on-demand I/O, not after.
    entered.refusal =
        deadline_refusal(name, "deadline expired before execution began");
    return entered;
  }
  if (slot->session == nullptr) load_locked(name, *slot);
  mark_used(name, *slot);
  entered.slot = std::move(slot);
  entered.lock = std::move(lk);
  return entered;
}

std::string SessionHost::dispatch(const std::string& line,
                                  const common::StopToken* stop) {
  std::string_view rest = line;
  const std::string cmd = next_token(rest);
  if (cmd.empty()) throw Error("empty request");

  if (cmd == "NEW") {
    const std::string name = next_token(rest);
    if (!valid_session_name(name)) {
      throw Error("invalid session name \"" + name + "\"");
    }
    const std::string config_json{trim_leading(rest)};
    std::shared_ptr<Slot> slot = obtain_slot(name, /*create_missing=*/true);
    if (slot->poisoned.load(std::memory_order_acquire)) {
      return err_runaway(name, retry_hint_ms());
    }
    std::lock_guard<std::timed_mutex> lk(slot->mutex);
    if (slot->quarantined) {
      return err_quarantined(name, slot->quarantine_reason);
    }
    if (slot->session != nullptr) {
      // Already live: NEW is idempotent (a reconnecting client need not
      // track whether its earlier NEW arrived); the provided config is
      // ignored in favour of the one the session runs with.
      mark_used(name, *slot);
      return "OK resumed " + name;
    }
    if (io::file_exists(config_path(name))) {
      // Known but not live: re-open from the persisted config. The
      // provided config is ignored — honouring a different one would
      // splice proposal streams, which resume refuses anyway.
      load_locked(name, *slot);
      mark_used(name, *slot);
      return "OK resumed " + name;
    }
    if (config_json.empty()) {
      throw Error("NEW " + name + ": missing config JSON");
    }
    // Parse first: nothing is persisted for a config that does not
    // validate.
    SessionSpec spec = parse_session_config(config_json);
    try {
      io::atomic_write_file(config_path(name), config_json);
    } catch (const io::CheckpointError&) {
      // A failed (possibly torn) config write rolls back to "no such
      // session" — a half-written config must never be what a later
      // command resumes from. Plain ERR, no quarantine: retry NEW.
      note_io_fault();
      std::remove(config_path(name).c_str());
      throw;
    }
    try {
      slot->session =
          Session::create(name, std::move(spec), checkpoint_base(name));
    } catch (const io::CheckpointError&) {
      // The config is durable, so nothing irreversible happened:
      // whatever subset of the journal/snapshot exists, a retried NEW
      // resumes or re-creates from it. Plain ERR, no quarantine.
      note_io_fault();
      slot->session.reset();
      throw;
    }
    slot->session->set_trace(trace());
    mark_used(name, *slot);
    return "OK created " + name;
  }

  if (cmd == "SUGGEST") {
    const std::string name = next_token(rest);
    if (!trim_leading(rest).empty()) {
      throw Error("SUGGEST takes only a session name");
    }
    if (!valid_session_name(name)) {
      throw Error("invalid session name \"" + name + "\"");
    }
    Entered entered = enter_session(name, stop);
    if (!entered.refusal.empty()) return entered.refusal;
    const std::shared_ptr<Slot>& slot = entered.slot;
    try {
      {
        DebugSlowdown d;
        {
          std::lock_guard<std::mutex> sl(slowdown_mutex_);
          d = slowdown_;
        }
        if (d.session == name && d.sleep_s > 0.0) injected_sleep(d, stop);
      }
      const std::string reply =
          "OK " + suggestion_json(slot->session->suggest(stop));
      // Journaled, so the suggest is committed and the reply stays OK; a
      // failed refit snapshot only lengthens the tail the next resume
      // re-applies.
      if (!slot->session->core().snapshot_error().empty()) note_io_fault();
      cache_status_locked(*slot);
      return reply;
    } catch (const common::Cancelled& e) {
      // The deadline fired at one of the computation's safe checkpoints
      // (or at the pre-commit gate). Nothing was committed: the files
      // still hold the exact pre-suggest state, so dropping the dirty
      // in-memory object IS the rollback — the next command resumes from
      // disk and a retried SUGGEST reproduces the identical proposal.
      slot->session.reset();
      mark_unloaded(name, *slot);
      note_deadline_cut();
      return one_line("ERR deadline " + name + ": " + e.what() +
                      " (state rolled back; retry in " +
                      std::to_string(retry_hint_ms()) + "ms)");
    } catch (const io::CheckpointError& e) {
      // The suggest record could not be appended, and its tag must never
      // reach a client it cannot survive for. The failed append left the
      // journal as it was, so dropping the in-memory object rolls the
      // suggest back; quarantine keeps later commands from churning the
      // damaged storage.
      note_io_fault();
      quarantine_locked(name, *slot, e.what());
      return one_line("ERR storage " + name + ": " + std::string(e.what()) +
                      " (session quarantined; CLOSE to reopen after repair)");
    }
  }

  if (cmd == "OBSERVE") {
    const std::string name = next_token(rest);
    const std::string tag_token = next_token(rest);
    const std::string value = next_token(rest);
    std::string fail_status;
    std::string fail_detail;
    const bool is_failure = value == "fail";
    if (is_failure) {
      fail_status = next_token(rest);
      fail_detail = std::string(trim_leading(rest));
    } else if (!trim_leading(rest).empty()) {
      throw Error("OBSERVE: trailing input after the observed value");
    }
    // Parse everything before touching the session: a malformed request
    // must leave the host exactly as it was.
    const std::size_t tag = parse_tag_token(tag_token);
    const double y =
        is_failure ? 0.0 : parse_double_token(value, "the observation");
    if (!valid_session_name(name)) {
      throw Error("invalid session name \"" + name + "\"");
    }
    // An observe is only ever cut BEFORE it starts (enter_session's
    // deadline checks): once the record is journaled the mutation is
    // committed and must run to completion (model refresh included),
    // deadline or not.
    Entered entered = enter_session(name, stop);
    if (!entered.refusal.empty()) return entered.refusal;
    const std::shared_ptr<Slot>& slot = entered.slot;
    const char* action = "";
    try {
      action =
          is_failure
              ? slot->session->observe_failure(tag, fail_status, fail_detail)
              : slot->session->observe_ok(tag, y);
    } catch (const io::CheckpointError& e) {
      // The journal append failed, so nothing of this observe is durable
      // — but the in-memory core consumed the pending tag before the
      // append, so the object can no longer be trusted. Drop it (disk
      // still holds the pre-observe state) and quarantine the name.
      note_io_fault();
      quarantine_locked(name, *slot, e.what());
      return one_line("ERR storage " + name + ": " + std::string(e.what()) +
                      " (session quarantined; CLOSE to reopen after repair)");
    }
    if (!slot->session->core().snapshot_error().empty()) {
      // Journaled, so the observe is committed and the reply stays OK;
      // the stale snapshot only widens the tail the next resume replays.
      note_io_fault();
    }
    cache_status_locked(*slot);
    return std::string("OK {\"action\":\"") + action + "\"}";
  }

  if (cmd == "STATUS") {
    const std::string name = next_token(rest);
    if (!trim_leading(rest).empty()) {
      throw Error("STATUS takes only a session name");
    }
    if (!valid_session_name(name)) {
      throw Error("invalid session name \"" + name + "\"");
    }
    std::shared_ptr<Slot> slot = obtain_slot(name, /*create_missing=*/false);
    std::unique_lock<std::timed_mutex> lk(slot->mutex, std::try_to_lock);
    if (!lk.owns_lock()) {
      // Busy fast path: a status probe must never queue behind a
      // session's model math just to report on it. Serve the summary
      // cached by the last completed command instead ("last": null until
      // one has completed in this process).
      std::string last;
      {
        std::lock_guard<std::mutex> ml(slot->meta_mutex);
        last = slot->last_status;
      }
      return "OK {\"name\":" + io::json_quote(name) +
             ",\"busy\":true,\"last\":" +
             (last.empty() ? std::string("null") : last) + "}";
    }
    if (slot->quarantined) {
      // Quarantine status is served from memory — an operator probing a
      // degraded session must not trigger more I/O against bad storage.
      return "OK {\"name\":" + io::json_quote(name) +
             ",\"quarantined\":true,\"reason\":" +
             io::json_quote(slot->quarantine_reason) + "}";
    }
    if (slot->session == nullptr) load_locked(name, *slot);
    mark_used(name, *slot);
    cache_status_locked(*slot);
    return "OK " + slot->session->status_json();
  }

  if (cmd == "CLOSE") {
    const std::string name = next_token(rest);
    if (!valid_session_name(name)) {
      throw Error("invalid session name \"" + name + "\"");
    }
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lk(table_mutex_);
      const auto it = slots_.find(name);
      if (it != slots_.end()) slot = it->second;
    }
    if (slot == nullptr) {
      if (io::file_exists(config_path(name))) return "OK closed " + name;
      throw Error("unknown session \"" + name + "\"");
    }
    std::unique_lock<std::timed_mutex> lk(slot->mutex, std::defer_lock);
    if (!lk.try_lock()) {
      if (slot->poisoned.load(std::memory_order_acquire)) {
        // The runaway request still holds the lock; CLOSE must not queue
        // behind it (that is exactly what the watchdog exists to avoid).
        return err_runaway(name, retry_hint_ms());
      }
      lk.lock();  // ordinary contention: brief, wait it out
    }
    if (slot->poisoned.exchange(false, std::memory_order_acq_rel)) {
      // CLOSE won the race against watchdog_quarantine: the operator's
      // explicit drop supersedes the pending quarantine.
      std::lock_guard<std::mutex> ml(slot->meta_mutex);
      slot->poison_reason.clear();
    }
    const bool existed = slot->session != nullptr || slot->quarantined ||
                         io::file_exists(config_path(name));
    slot->session.reset();
    mark_unloaded(name, *slot);
    {
      std::lock_guard<std::mutex> ml(slot->meta_mutex);
      slot->last_status.clear();
    }
    if (slot->quarantined) {
      // CLOSE is the operator's "I repaired the storage" acknowledgment:
      // the next command on this name resumes from the files afresh.
      slot->quarantined = false;
      slot->quarantine_reason.clear();
      quarantine_gauge_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (!existed) throw Error("unknown session \"" + name + "\"");
    return "OK closed " + name;
  }

  throw Error("unknown command \"" + cmd +
              "\" (expected NEW|SUGGEST|OBSERVE|STATUS|CLOSE)");
}

}  // namespace easybo::serve
