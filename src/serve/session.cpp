#include "serve/session.h"

#include <limits>
#include <utility>

#include "common/error.h"
#include "io/json.h"

namespace easybo::serve {

using linalg::Vec;

namespace {

sched::EvalStatus failure_status_from(const std::string& name) {
  if (name == "exception") return sched::EvalStatus::Exception;
  if (name == "timeout") return sched::EvalStatus::Timeout;
  if (name == "non_finite") return sched::EvalStatus::NonFinite;
  throw Error("observe: unknown failure status \"" + name +
              "\" (expected exception|timeout|non_finite)");
}

}  // namespace

Session::Session(std::string name, SessionSpec spec)
    : name_(std::move(name)),
      core_(std::move(spec.config), std::move(spec.bounds)) {}

std::unique_ptr<Session> Session::create(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base) {
  auto s = std::unique_ptr<Session>(
      new Session(std::move(name), std::move(spec)));
  s->core_.set_checkpoint_path(checkpoint_base);
  // Durable before the first reply: a host crash between NEW and the
  // first SUGGEST must still resume to the fresh session.
  s->core_.start_fresh_journal();
  return s;
}

std::unique_ptr<Session> Session::resume(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base) {
  auto s = std::unique_ptr<Session>(
      new Session(std::move(name), std::move(spec)));
  s->core_.set_checkpoint_path(checkpoint_base);
  s->core_.resume("session");
  return s;
}

void Session::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  core_.set_trace(sink);
  if (sink == nullptr) inflight_wall_.clear();
}

bo::Suggestion Session::suggest(const common::StopToken* stop) {
  // Durable when the core returns: the tag in this suggestion must
  // survive eviction and crash — the client holds it and will OBSERVE it
  // against whatever object resumes from these files.
  bo::Suggestion s = core_.suggest(now(), stop);
  if (trace_ != nullptr) {
    inflight_wall_[s.tag] = std::chrono::steady_clock::now();
  }
  return s;
}

void Session::record_turnaround(std::size_t tag) {
  if (trace_ == nullptr) return;
  const auto it = inflight_wall_.find(tag);
  if (it == inflight_wall_.end()) return;  // suggested by a previous process
  const auto elapsed = std::chrono::steady_clock::now() - it->second;
  inflight_wall_.erase(it);
  trace_->add_time(obs::Phase::ObjectiveEval,
                   std::chrono::duration<double>(elapsed).count());
}

const char* Session::observe_ok(std::size_t tag, double y) {
  bo::Outcome o;
  o.value = y;
  return observe(tag, std::move(o));
}

const char* Session::observe_failure(std::size_t tag,
                                     const std::string& status,
                                     const std::string& error) {
  bo::Outcome o;
  o.status = failure_status_from(status);
  o.value = std::numeric_limits<double>::quiet_NaN();
  o.error = error;
  return observe(tag, std::move(o));
}

const char* Session::observe(std::size_t tag, bo::Outcome o) {
  o.start = tag < core_.num_proposals() ? core_.proposal_submit_time(tag)
                                        : 0.0;
  o.finish = now() + 1.0;
  // Durable the moment core_.observe returns: its journal append fsyncs
  // before the model applies the outcome.
  const bo::Observed ob = core_.observe(tag, o);
  record_turnaround(tag);
  return ob.action;
}

std::string Session::status_json() const {
  std::string s = "{";
  auto put = [&s](const std::string& key, const std::string& value) {
    if (s.size() > 1) s += ",";
    s += io::json_quote(key) + ":" + value;
  };
  put("name", io::json_quote(name_));
  put("mode", io::json_quote(to_string(core_.config().mode)));
  put("acq", io::json_quote(to_string(core_.config().acq)));
  // Counts go through std::to_string, not json_number: the shortest
  // round-trip double for 10 is "1e+01", which is silly for a count.
  put("dim", std::to_string(core_.bounds().dim()));
  put("issued", std::to_string(core_.issued()));
  put("observed", std::to_string(core_.num_observations()));
  put("max_sims", std::to_string(core_.config().max_sims));
  put("init_done", core_.init_done() ? "true" : "false");
  std::string pending = "[";
  for (const std::size_t tag : core_.pending_tags()) {
    if (pending.size() > 1) pending += ",";
    pending += std::to_string(tag);
  }
  put("pending", pending + "]");
  if (core_.has_observations()) {
    put("best_y", io::json_number(core_.best_y()));
    std::string bx = "[";
    const Vec best = core_.best_x();
    for (std::size_t i = 0; i < best.size(); ++i) {
      if (i != 0) bx += ",";
      bx += io::json_number(best[i]);
    }
    put("best_x", bx + "]");
  } else {
    put("best_y", "null");
    put("best_x", "null");
  }
  return s + "}";
}

}  // namespace easybo::serve
