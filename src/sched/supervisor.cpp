#include "sched/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace easybo::sched {

const char* to_string(EvalStatus status) {
  switch (status) {
    case EvalStatus::Ok: return "ok";
    case EvalStatus::Exception: return "exception";
    case EvalStatus::Timeout: return "timeout";
    case EvalStatus::NonFinite: return "non_finite";
  }
  return "?";
}

// The retry schedule, hashed as the frozen eval_backoff_* literals of
// config_fingerprint: first delay (s), growth, cap (s), +- jitter.
constexpr double kBackoffInit = 0.5;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffMax = 30.0;
constexpr double kBackoffJitter = 0.1;

double backoff_delay(std::size_t retry, std::uint64_t seed,
                     std::size_t tag) {
  EASYBO_REQUIRE(retry >= 1, "backoff_delay: retries are 1-based");
  const double delay = std::min(
      kBackoffMax, kBackoffInit * std::pow(kBackoffFactor, double(retry - 1)));
  std::uint64_t h = seed;
  h = splitmix64(h) ^ tag;
  h = splitmix64(h) ^ retry;
  const double u = static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
  return delay * (1.0 + kBackoffJitter * (2.0 * u - 1.0));
}

EvalSupervisor::EvalSupervisor(Executor& exec, SupervisorConfig config,
                               obs::TraceSink* trace)
    : exec_(exec), cfg_(config), trace_(trace) {}

std::size_t EvalSupervisor::num_running() const {
  return exec_.num_running() - orphans_ + ready_.size();
}

void EvalSupervisor::submit(std::size_t tag, std::function<double()> work,
                            double duration) {
  launch({.tag = tag, .work = std::move(work), .duration = duration,
          .first_start = exec_.now()},
         /*delay=*/0.0, occupancy(duration));
}

double EvalSupervisor::occupancy(double duration) const {
  // Virtual time: an attempt that would outlive its deadline is cut
  // there — the worker is occupied until exactly the deadline, as if the
  // simulator had been killed at its time limit.
  if (cfg_.timeout > 0.0 && !exec_.wall_clock() && duration > cfg_.timeout) {
    return cfg_.timeout;
  }
  return duration;
}

double EvalSupervisor::chain_occupancy(std::size_t tag, double duration,
                                       std::uint32_t attempts) const {
  // Each retry is launched where the attempt before it ended, for its
  // duration plus its backoff: settle()'s arithmetic.
  double booked = occupancy(duration);
  for (std::uint32_t retry = 1; retry < attempts; ++retry) {
    booked += occupancy(duration) + backoff_delay(retry, cfg_.seed, tag);
  }
  return booked;
}

void EvalSupervisor::launch(Flight flight, double delay, double occupied) {
  const std::size_t id = next_id_++;
  flight.cut_at_deadline = occupancy(flight.duration) < flight.duration;
  flight.slot = std::make_shared<AttemptSlot>();
  flight.deadline = exec_.now() + delay + cfg_.timeout;

  const double sleep_s = exec_.wall_clock() ? delay : 0.0;
  auto slot = flight.slot;
  auto inner = flight.work;  // retries relaunch it; keep the original
  auto wrapped = [inner = std::move(inner), slot,
                  sleep_s]() -> double {
    if (sleep_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    }
    try {
      return inner();
    } catch (const std::exception& e) {
      slot->threw = true;
      slot->error = std::current_exception();
      slot->what = e.what();
    } catch (...) {
      slot->threw = true;
      slot->error = std::current_exception();
      slot->what = "unknown exception";
    }
    return 0.0;  // sentinel; never observed as a value
  };
  exec_.submit(id, std::move(wrapped), occupied);
  inflight_.emplace(id, std::move(flight));
}

EvalStatus EvalSupervisor::classify(const Flight& flight,
                                    const Completion& c) const {
  if (flight.cut_at_deadline) return EvalStatus::Timeout;
  if (flight.slot->threw) return EvalStatus::Exception;
  if (!std::isfinite(c.value)) return EvalStatus::NonFinite;
  if (cfg_.timeout > 0.0 && exec_.wall_clock() &&
      c.finish > flight.deadline) {
    // The attempt beat the watchdog to the completion queue but still
    // exceeded its deadline; classify consistently.
    return EvalStatus::Timeout;
  }
  return EvalStatus::Ok;
}

void EvalSupervisor::advance_clock(double t) {
  exec_.advance_to(t);
  // advance_to stops at the earliest running finish. Short of t, that is
  // an attempt the original run saw end before t: settle it there, so a
  // failed one is retried at its own finish, not at t.
  while (!exec_.wall_clock() && exec_.now() < t) {
    if (auto out = settle(exec_.wait_next())) ready_.push_back(std::move(*out));
    exec_.advance_to(t);
  }
}

SupervisedCompletion EvalSupervisor::wait_next() {
  if (!ready_.empty()) {
    SupervisedCompletion out = std::move(ready_.front());
    ready_.pop_front();
    return out;
  }
  EASYBO_REQUIRE(num_running() > 0,
                 "EvalSupervisor::wait_next with no supervised job");
  const bool watchdog = cfg_.timeout > 0.0 && exec_.wall_clock();
  for (;;) {
    std::optional<Completion> copt;
    if (watchdog) {
      // Earliest deadline among live flights drives the bounded wait.
      double dl = std::numeric_limits<double>::infinity();
      std::size_t dl_id = 0;
      for (const auto& [id, f] : inflight_) {
        if (!f.orphaned && f.deadline < dl) {
          dl = f.deadline;
          dl_id = id;
        }
      }
      if (dl - exec_.now() <= 0.0) {
        // Overdue: abandon the worker and report the timeout now.
        Flight& stuck = inflight_.at(dl_id);
        obs::count(trace_, "eval.timeouts");
        stuck.orphaned = true;
        stuck.work = nullptr;  // the orphan only waits to be swallowed
        ++orphans_;
        SupervisedCompletion out;
        out.completion.tag = stuck.tag;
        out.completion.worker = exec_.num_workers();  // sentinel: unknown
        out.completion.start = stuck.first_start;
        out.completion.finish = exec_.now();
        out.status = EvalStatus::Timeout;
        out.attempts = stuck.attempt;
        return out;
      }
      copt = exec_.try_wait_next(dl - exec_.now());
      if (!copt) continue;  // re-scan deadlines
    } else {
      copt = exec_.wait_next();
    }
    if (auto out = settle(*copt)) return std::move(*out);
  }
}

std::optional<SupervisedCompletion> EvalSupervisor::settle(
    const Completion& c) {
  auto it = inflight_.find(c.tag);
  EASYBO_REQUIRE(it != inflight_.end(), "completion for an unsupervised job");
  if (it->second.orphaned) {
    // The hung objective finally returned; its slot rejoins the pool and
    // the stale result is dropped (its timeout was already reported).
    inflight_.erase(it);
    --orphans_;
    return std::nullopt;
  }
  Flight flight = std::move(it->second);
  inflight_.erase(it);

  const EvalStatus status = classify(flight, c);
  switch (status) {
    case EvalStatus::Exception:
      obs::count(trace_, "eval.exceptions");
      break;
    case EvalStatus::NonFinite:
      obs::count(trace_, "eval.nonfinite");
      break;
    case EvalStatus::Timeout:
      obs::count(trace_, "eval.timeouts");
      break;
    case EvalStatus::Ok: break;
  }
  if (status != EvalStatus::Ok && status != EvalStatus::Timeout &&
      flight.attempt <= cfg_.max_retries) {
    obs::count(trace_, "eval.retries");
    // Backoff occupies the worker as relaunch latency.
    const double delay = backoff_delay(flight.attempt, cfg_.seed, flight.tag);
    const double occupied = occupancy(flight.duration) + delay;
    flight.attempt += 1;
    launch(std::move(flight), delay, occupied);
    return std::nullopt;
  }

  SupervisedCompletion out;
  out.completion = c;
  out.completion.tag = flight.tag;
  out.completion.start = flight.first_start;
  out.status = status;
  out.attempts = flight.attempt;
  if (flight.slot->threw) {
    out.error = flight.slot->what;
    out.exception = flight.slot->error;
  }
  return out;
}

}  // namespace easybo::sched
