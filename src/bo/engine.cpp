#include "bo/engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/error.h"

namespace easybo::bo {

BoEngine::BoEngine(BoConfig config, opt::Bounds bounds,
                   opt::Objective objective,
                   std::function<double(const Vec&)> sim_time,
                   std::vector<Constraint> constraints)
    : core_(std::move(config), std::move(bounds), std::move(sim_time),
            constraints.size()),
      objective_(
          std::make_shared<const opt::Objective>(std::move(objective))),
      constraints_(std::make_shared<const std::vector<Constraint>>(
          std::move(constraints))) {
  EASYBO_REQUIRE(static_cast<bool>(*objective_), "BoEngine: null objective");
  for (const Constraint& c : *constraints_) {
    EASYBO_REQUIRE(static_cast<bool>(c.fn), "null constraint function");
  }
}

void BoEngine::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  core_.set_trace(sink);
}

BoResult BoEngine::run() {
  sched::VirtualExecutor exec(cfg().mode == Mode::Sequential ? 1 : cfg().batch);
  return run(exec);
}

BoResult BoEngine::run(sched::Executor& exec) {
  EASYBO_REQUIRE(core_.num_proposals() == 0,
                 "BoEngine::run() may be called only once");
  // Every evaluation goes through the supervisor. With the default config
  // (no timeout, no retries) it is a transparent pass-through, so the
  // Abort policy reproduces the pre-supervision runs bit for bit. Retries
  // follow the supervisor's fixed backoff schedule.
  sched::SupervisorConfig scfg;
  scfg.timeout = cfg().eval_timeout;
  scfg.max_retries = cfg().eval_max_retries;
  // Keys the backoff jitter: deterministic per seed so retried runs
  // reproduce, and drawn from no stream the proposals use.
  scfg.seed = cfg().seed ^ 0x5AFEB0FFu;
  sched::EvalSupervisor sup(exec, scfg, trace_);

  bool in_drain = false;
  if (core_.journaling()) {
    if (resumed_) {
      in_drain = restore(sup);
    } else {
      core_.start_fresh_journal();
    }
  }

  if (!core_.init_done()) {
    run_init_phase(sup);
    if (!stop_requested()) {
      // Throws the all-initial-evaluations-failed error when there is
      // nothing to build a model from.
      core_.finish_init();
    }
  }

  if (!stop_requested()) {
    switch (cfg().mode) {
      case Mode::Sequential: run_sequential(sup); break;
      case Mode::SyncBatch: run_sync_batch(sup, in_drain); break;
      case Mode::AsyncBatch: run_async_batch(sup); break;
    }
  }
  // A stop at a phase boundary can leave init evaluations in flight:
  // drain them so the journal is complete.
  if (stop_requested()) drain_all(sup);

  BoResult result;
  result.evals = std::move(core_.evals());
  result.makespan = exec.now();
  result.total_sim_time = busy_base_ + exec.total_busy_time();
  result.hyper_refits = core_.hyper_refits();
  result.interrupted = stop_requested();
  result.resume_note = resume_note_;
  result.orphaned_workers = sup.orphans();
  if (sup.orphans() > 0) {
    obs::count(trace_, "sched.orphaned_workers", sup.orphans());
  }
  if (core_.has_observations()) {
    result.best_x = core_.best_x();
    result.best_y = core_.best_y();
  }
  finalize_metrics(exec, result);
  return result;
}

BoResult BoEngine::resume(const std::string& path) {
  sched::VirtualExecutor exec(cfg().mode == Mode::Sequential ? 1 : cfg().batch);
  return resume(path, exec);
}

BoResult BoEngine::resume(const std::string& path, sched::Executor& exec) {
  EASYBO_REQUIRE(core_.num_proposals() == 0,
                 "BoEngine::resume() must be the engine's only run");
  EASYBO_REQUIRE(!path.empty(), "BoEngine::resume: empty checkpoint path");
  core_.set_checkpoint_path(path);  // journaling continues on these files
  resumed_ = true;
  return run(exec);
}

// ---------------------------------------------------------------------------
// Phases: each is one pump schedule over the core's suggest/observe.
// ---------------------------------------------------------------------------

void BoEngine::run_init_phase(sched::EvalSupervisor& sup) {
  // All modes push the init points through the executor greedily —
  // identical schedules keep the wall-clock comparison between algorithms
  // fair. The InitDesign span covers the whole phase, waits included.
  // Failed evaluations are topped up (the model needs its init_points
  // anchors) until the whole simulation budget would be burned on them.
  // No refit runs before finish_init(), so the phase has no snapshot.
  obs::ScopedTimer span(trace_, obs::Phase::InitDesign);
  while (core_.num_observations() < cfg().init_points && !stop_requested()) {
    while (sup.has_idle_worker() && core_.issued() < cfg().max_sims &&
           core_.num_observations() + sup.num_running() <
               cfg().init_points &&
           !stop_requested()) {
      submit(sup);
    }
    if (sup.num_running() == 0) break;  // budget exhausted by failures
    observe_arrival(await_one(sup));
  }
}

void BoEngine::run_sequential(sched::EvalSupervisor& sup) {
  // A resumed run may hold its one evaluation in flight: it is awaited
  // before the next proposal.
  while (sup.num_running() > 0 ||
         (core_.issued() < cfg().max_sims && !stop_requested())) {
    if (sup.num_running() == 0) {
      if (!sup.has_idle_worker()) break;  // the only worker is hung
      submit(sup);
    }
    observe_arrival(await_one(sup));
  }
}

void BoEngine::run_sync_batch(sched::EvalSupervisor& sup, bool draining) {
  // A resumed run may hold part of a batch in flight: the head of one it
  // was issuing, which the first pass completes, or the rest of one it
  // was draining, which the first pass only drains.
  while (sup.num_running() > 0 ||
         (core_.issued() < cfg().max_sims && !stop_requested())) {
    if (!draining && !stop_requested()) {
      const std::size_t head = sup.num_running();
      // A real executor may expose fewer workers than cfg().batch; a
      // batch larger than the pool could never be issued at once.
      // num_idle_workers (not num_workers): a wall-clock timeout can
      // leave a slot occupied by an abandoned hung objective. Identical
      // when no worker is abandoned — the drain below emptied the pool.
      const std::size_t k =
          std::min({cfg().batch - head, cfg().max_sims - core_.issued(),
                    sup.num_idle_workers()});
      if (k + head == 0) break;  // every worker is hung
      // The core selects each batch point against the pre-batch model,
      // hallucinating the slots selected so far (its pending set grows
      // with every suggestion), and defers the model refresh to the
      // drain.
      for (std::size_t slot = 0; slot < k; ++slot) submit(sup);
    }
    draining = false;
    while (sup.num_running() > 0) observe_arrival(await_one(sup));
  }
}

void BoEngine::run_async_batch(sched::EvalSupervisor& sup) {
  // Fill the pool (Algorithm 1 bootstraps with B in-flight points); a
  // resumed run's re-run evaluations already occupy their workers.
  while (sup.has_idle_worker() && core_.issued() < cfg().max_sims &&
         !stop_requested()) {
    submit(sup);
  }

  // Main loop (Algorithm 1): wait for a worker, absorb its observation
  // (the core refines the model inside observe), propose for the idle
  // worker with the still-running points as pseudo-observations.
  while (sup.num_running() > 0) {
    observe_arrival(await_one(sup));
    // has_idle_worker: a wall-clock timeout frees no slot (the hung
    // objective still occupies it), so its replacement waits for the
    // next genuinely idle worker. Always true when nothing timed out.
    if (core_.issued() < cfg().max_sims && sup.has_idle_worker() &&
        !stop_requested()) {
      submit(sup);
    }
  }
}

// ---------------------------------------------------------------------------
// Executor plumbing
// ---------------------------------------------------------------------------

void BoEngine::submit(sched::EvalSupervisor& sup) {
  // When journaling, the core's suggest record makes the suggestion
  // durable before its evaluation starts: a resume applies the record and
  // re-runs the evaluation instead of proposing again.
  Suggestion s = core_.suggest(sup.now());
  // The executor decides where and when the objective runs (eagerly for
  // virtual time, on a worker thread for real threads); the engine only
  // sees the outcome at observe time.
  sup.submit(s.tag, evaluation(s.tag, std::move(s.x)), s.duration);
}

std::function<double()> BoEngine::evaluation(std::size_t tag, Vec x) {
  if (constraints_->empty()) {
    return [obj = objective_, x = std::move(x)] { return (*obj)(x); };
  }
  auto slot = std::make_shared<ConstraintSlot>();
  constraint_slots_[tag] = slot;
  return [obj = objective_, cons = constraints_, slot, x = std::move(x)] {
    const double y = (*obj)(x);
    Vec g(cons->size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = (*cons)[i].fn(x);
      if (!std::isfinite(g[i])) return g[i];  // fails as non_finite
    }
    const std::lock_guard<std::mutex> lock(slot->mu);
    slot->g = std::move(g);
    return y;
  };
}

void BoEngine::observe_arrival(const Arrived& a, bool draining) {
  if (trace_ != nullptr) {
    // Executor-clock duration: virtual seconds on a VirtualExecutor, wall
    // seconds on real threads; spans retries and backoff. Not a
    // ScopedTimer — the evaluation already happened inside the executor;
    // this books its reported span.
    const sched::Completion& c = a.sc.completion;
    trace_->add_time(obs::Phase::ObjectiveEval, c.finish - c.start);
  }
  const Observed ob = core_.observe(a.tag, a.outcome, draining);
  log_eval(a.sc, ob.action);
}

void BoEngine::log_eval(const sched::SupervisedCompletion& sc,
                        const char* action) {
  if (trace_ == nullptr) return;  // same zero-cost convention as counters
  obs::EvalLogEntry e;
  e.index = eval_log_.size();
  e.status = sched::to_string(sc.status);
  e.action = action;
  e.attempts = sc.attempts;
  e.worker = sc.completion.worker;
  e.start = sc.completion.start;
  e.finish = sc.completion.finish;
  eval_log_.push_back(std::move(e));
}

// ---------------------------------------------------------------------------
// Durability: journal, snapshot, resume (docs/checkpoint-format.md)
// ---------------------------------------------------------------------------

bool BoEngine::restore(sched::EvalSupervisor& sup) {
  const Resumed r = core_.resume("engine");
  // The journaled outcomes' busy time, which this process never runs: on
  // virtual time each attempt chain's occupancy, a pure function of tag,
  // duration and attempts; on the wall clock what each one measured.
  const bool wall = sup.executor().wall_clock();
  for (const JournalRecord& rec : r.records) {
    if (rec.suggest) continue;
    busy_base_ += wall ? rec.finish - rec.start
                       : sup.chain_occupancy(rec.tag,
                                             core_.proposal_duration(rec.tag),
                                             rec.attempts);
  }
  // Re-run what is still pending from its own submit time, in tag
  // (= submission) order: moving the clock settles earlier attempts at
  // their own finish, so every attempt fails, retries and finishes where
  // the uninterrupted run's did. On the wall clock it restarts now.
  for (const std::size_t tag : core_.pending_tags()) {
    sup.advance_clock(core_.proposal_submit_time(tag));
    sup.submit(tag, evaluation(tag, core_.to_design(core_.proposal(tag))),
               core_.proposal_duration(tag));
  }
  sup.advance_clock(r.now);

  resume_note_ = "resumed from " + cfg().checkpoint_path + ": " +
                 std::to_string(r.absorbed) +
                 " journal records restored from the snapshot, " +
                 std::to_string(r.records.size() - r.absorbed) +
                 " applied from the journal, " +
                 std::to_string(core_.pending_tags().size()) + " re-run" +
                 (r.torn_tail ? "; dropped a torn final journal line" : "");
  obs::count(trace_, "ckpt.resumes");
  return !r.records.empty() && !r.records.back().suggest &&
         !core_.pending_tags().empty();
}

BoEngine::Arrived BoEngine::await_one(sched::EvalSupervisor& sup) {
  Arrived a;
  {
    obs::ScopedTimer span(trace_, obs::Phase::ExecutorWait);
    a.sc = sup.wait_next();
  }
  const sched::SupervisedCompletion& sc = a.sc;
  a.tag = sc.completion.tag;
  Outcome& o = a.outcome;
  o.status = sc.status;
  o.value = sc.completion.value;
  o.attempts = sc.attempts;
  o.worker = sc.completion.worker;
  o.start = sc.completion.start;
  o.finish = sc.completion.finish;
  o.error = sc.error;
  o.exception = sc.exception;
  if (auto slot = constraint_slots_.extract(a.tag); slot && sc.ok()) {
    const std::lock_guard<std::mutex> lock(slot.mapped()->mu);
    o.g = std::move(slot.mapped()->g);
  }
  return a;
}

void BoEngine::drain_all(sched::EvalSupervisor& sup) {
  while (sup.num_running() > 0) {
    observe_arrival(await_one(sup), /*draining=*/true);
  }
}

void BoEngine::finalize_metrics(sched::Executor& exec, BoResult& result) {
  obs::RecordingSink* recorder =
      trace_ == nullptr ? nullptr : trace_->recording_sink();
  if (recorder == nullptr) return;
  result.metrics = recorder->report();
  result.metrics.evals = std::move(eval_log_);
  result.metrics.makespan_seconds = exec.now();
  const std::vector<double> busy = exec.per_worker_busy();
  result.metrics.workers.reserve(busy.size());
  for (std::size_t w = 0; w < busy.size(); ++w) {
    obs::WorkerStat stat;
    stat.worker = w;
    stat.busy_seconds = busy[w];
    stat.idle_seconds = std::max(0.0, exec.now() - busy[w]);
    result.metrics.workers.push_back(stat);
  }
}

BoResult run_bo(const BoConfig& config, const opt::Bounds& bounds,
                const opt::Objective& objective,
                const std::function<double(const Vec&)>& sim_time) {
  BoEngine engine(config, bounds, objective, sim_time);
  return engine.run();
}

}  // namespace easybo::bo
