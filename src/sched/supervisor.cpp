#include "sched/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.h"

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

void SupervisorConfig::validate() const {
  EASYBO_REQUIRE(backoff_init >= 0.0, "backoff_init must be >= 0");
  EASYBO_REQUIRE(backoff_factor >= 1.0, "backoff_factor must be >= 1");
  EASYBO_REQUIRE(backoff_max >= 0.0, "backoff_max must be >= 0");
  EASYBO_REQUIRE(backoff_jitter >= 0.0 && backoff_jitter <= 1.0,
                 "backoff_jitter must be in [0, 1]");
}

double backoff_delay(const SupervisorConfig& config, std::size_t retry,
                     Rng& rng) {
  EASYBO_REQUIRE(retry >= 1, "backoff_delay: retries are 1-based");
  double delay = config.backoff_init;
  for (std::size_t i = 1; i < retry; ++i) {
    delay *= config.backoff_factor;
    if (delay >= config.backoff_max) break;  // saturated; stop compounding
  }
  delay = std::min(delay, config.backoff_max);
  if (config.backoff_jitter > 0.0 && delay > 0.0) {
    delay *= 1.0 + config.backoff_jitter * (2.0 * rng.uniform() - 1.0);
  }
  return delay;
}

EvalSupervisor::EvalSupervisor(Executor& exec, SupervisorConfig config,
                               obs::TraceSink* trace)
    : exec_(exec), cfg_(config), trace_(trace), rng_(config.seed) {
  cfg_.validate();
}

std::size_t EvalSupervisor::num_running() const {
  return exec_.num_running() - orphans_;
}

void EvalSupervisor::submit(std::size_t tag, std::function<double()> work,
                            double duration) {
  Flight flight;
  flight.tag = tag;
  flight.work = std::move(work);
  flight.duration = duration;
  flight.first_start = exec_.now();
  launch(std::move(flight), /*delay=*/0.0);
}

void EvalSupervisor::launch(Flight flight, double delay) {
  const std::size_t id = next_id_++;
  const bool deadline_on = cfg_.timeout > 0.0;
  flight.cut_at_deadline = false;
  flight.orphaned = false;
  flight.slot = std::make_shared<AttemptSlot>();

  double submitted = flight.duration;
  if (deadline_on && !exec_.wall_clock() && submitted > cfg_.timeout) {
    // Virtual time: the attempt would outlive its deadline, so cut it
    // there — the worker is occupied until exactly the deadline, as if
    // the simulator had been killed at its time limit.
    submitted = cfg_.timeout;
    flight.cut_at_deadline = true;
  }
  submitted += delay;  // backoff occupies the worker as relaunch latency
  flight.deadline = exec_.now() + delay + cfg_.timeout;

  const double sleep_s = exec_.wall_clock() ? delay : 0.0;
  auto slot = flight.slot;
  auto inner = flight.work;  // retries resubmit it; keep the original
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
  exec_.submit(id, std::move(wrapped), submitted);
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

SupervisedCompletion EvalSupervisor::wait_next() {
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

    const Completion c = *copt;
    auto it = inflight_.find(c.tag);
    EASYBO_REQUIRE(it != inflight_.end(),
                   "completion for an unsupervised job");
    if (it->second.orphaned) {
      // The hung objective finally returned; its slot rejoins the pool
      // and the stale result is dropped (its timeout was already
      // reported).
      inflight_.erase(it);
      --orphans_;
      continue;
    }
    Flight flight = std::move(it->second);
    inflight_.erase(it);

    const EvalStatus status = classify(flight, c);
    if (status == EvalStatus::Ok) {
      SupervisedCompletion out;
      out.completion = c;
      out.completion.tag = flight.tag;
      out.completion.start = flight.first_start;
      out.attempts = flight.attempt;
      return out;
    }

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
    if (status != EvalStatus::Timeout && flight.attempt <= cfg_.max_retries) {
      obs::count(trace_, "eval.retries");
      flight.attempt += 1;
      launch(std::move(flight),
             backoff_delay(cfg_, flight.attempt - 1, rng_));
      continue;
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
}

void EvalSupervisor::replay_retries(std::uint32_t attempts) {
  for (std::uint32_t retry = 1; retry < attempts; ++retry) {
    (void)backoff_delay(cfg_, retry, rng_);
  }
}

}  // namespace easybo::sched
