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

  if (core_.journaling()) {
    if (resumed_) {
      restore(sup);
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
      case Mode::SyncBatch: run_sync_batch(sup); break;
      case Mode::AsyncBatch: run_async_batch(sup); break;
    }
  }
  // A stop at a phase boundary can leave init evaluations in flight:
  // drain them so the journal is complete and the final snapshot carries
  // no pending work it does not have to.
  if (stop_requested()) drain_all(sup);

  BoResult result;
  result.evals = std::move(core_.evals());
  result.makespan = std::max(exec.now(), last_replay_finish_);
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
  if (core_.journaling()) write_snapshot(sup);
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
  obs::ScopedTimer span(trace_, obs::Phase::InitDesign);
  while (core_.num_observations() < cfg().init_points && !stop_requested()) {
    maybe_checkpoint(sup);
    while (can_submit(sup) && core_.issued() < cfg().max_sims &&
           core_.num_observations() + num_outstanding(sup) <
               cfg().init_points &&
           !stop_requested()) {
      submit(sup);
    }
    if (num_outstanding(sup) == 0) break;  // budget exhausted by failures
    observe_arrival(await_one(sup));
  }
}

void BoEngine::run_sequential(sched::EvalSupervisor& sup) {
  while (core_.issued() < cfg().max_sims && !stop_requested()) {
    maybe_checkpoint(sup);
    if (!can_submit(sup)) break;  // the only worker is hung
    submit(sup);
    observe_arrival(await_one(sup));
  }
}

void BoEngine::run_sync_batch(sched::EvalSupervisor& sup) {
  while (core_.issued() < cfg().max_sims && !stop_requested()) {
    maybe_checkpoint(sup);
    const std::size_t remaining = cfg().max_sims - core_.issued();
    // A real executor may expose fewer workers than cfg().batch; a batch
    // larger than the pool could never be issued at once.
    // idle_for_submit (not num_workers): a wall-clock timeout can leave a
    // slot occupied by an abandoned hung objective. Identical when no
    // worker is abandoned — the barrier below drained the pool.
    const std::size_t k =
        std::min({cfg().batch, remaining, idle_for_submit(sup)});
    if (k == 0) break;  // every worker is hung; cannot make progress
    // The core selects each batch point against the pre-batch model,
    // hallucinating the slots selected so far (its pending set grows with
    // every suggestion), and defers the model refresh to the barrier.
    for (std::size_t slot = 0; slot < k; ++slot) submit(sup);
    while (num_outstanding(sup) > 0) {
      observe_arrival(await_one(sup));
    }
  }
}

void BoEngine::run_async_batch(sched::EvalSupervisor& sup) {
  // Fill the pool (Algorithm 1 bootstraps with B in-flight points). On
  // resume the in-flight set restored from the snapshot already occupies
  // its logical worker slots.
  while (can_submit(sup) && core_.issued() < cfg().max_sims &&
         !stop_requested()) {
    submit(sup);
  }

  // Main loop (Algorithm 1): wait for a worker, absorb its observation
  // (the core refines the model inside observe), propose for the idle
  // worker with the still-running points as pseudo-observations.
  while (num_outstanding(sup) > 0) {
    maybe_checkpoint(sup);
    observe_arrival(await_one(sup));
    // can_submit: a wall-clock timeout frees no slot (the hung objective
    // still occupies it), so its replacement waits for the next genuinely
    // idle worker. Always true when nothing timed out.
    if (core_.issued() < cfg().max_sims && can_submit(sup) &&
        !stop_requested()) {
      submit(sup);
    }
  }
}

// ---------------------------------------------------------------------------
// Executor plumbing
// ---------------------------------------------------------------------------

void BoEngine::submit(sched::EvalSupervisor& sup) {
  Suggestion s = core_.suggest(logical_now(sup));
  if (replay_tags_.count(s.tag) != 0) {
    // The outcome of this evaluation is already durable in the journal:
    // the replay queue will deliver it. The worker slot it occupied in
    // the original timeline is accounted logically (num_outstanding), and
    // its busy time — which the executor will never see — here.
    replay_awaiting_.insert(s.tag);
    if (!sup.executor().wall_clock()) {
      busy_base_ += sup.occupancy(s.duration);
    }
    return;
  }
  if (resumed_) {
    // Mid-/post-replay real submission: line the virtual clock up with
    // the original timeline first, so this work starts — and therefore
    // finishes — at exactly the times the uninterrupted run produced.
    sup.advance_clock(last_replay_finish_);
  }
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
  const bool replayed = a.outcome.replayed;
  if (trace_ != nullptr && !replayed) {
    // Executor-clock duration: virtual seconds on a VirtualExecutor, wall
    // seconds on real threads; spans retries and backoff. Not a
    // ScopedTimer — the evaluation already happened inside the executor;
    // this books its reported span. Replayed completions book nothing:
    // this process never ran them (metrics cover the current process).
    const sched::Completion& c = a.sc.completion;
    trace_->add_time(obs::Phase::ObjectiveEval, c.finish - c.start);
  }
  const Observed ob = core_.observe(a.tag, a.outcome, draining);
  if (!replayed) log_eval(a.sc, ob.action);
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

sched::SupervisedCompletion BoEngine::timed_wait(sched::EvalSupervisor& sup) {
  obs::ScopedTimer span(trace_, obs::Phase::ExecutorWait);
  return sup.wait_next();
}

// ---------------------------------------------------------------------------
// Durability: journal, snapshot, resume replay (docs/checkpoint-format.md)
// ---------------------------------------------------------------------------

void BoEngine::restore(sched::EvalSupervisor& sup) {
  const std::string jpath = journal_file(cfg().checkpoint_path);
  const std::string spath = snapshot_file(cfg().checkpoint_path);
  if (!io::file_exists(jpath)) {
    throw io::CheckpointError("cannot resume: no journal at " + jpath);
  }
  const io::JournalReadResult jr = io::read_journal(jpath);
  std::vector<JournalRecord> records =
      checked_journal_records(jr, jpath, core_.config_hash(), "engine");
  for (const JournalRecord& rec : records) {
    if (rec.suggest) {
      throw io::CheckpointError(
          "cannot resume: record " + std::to_string(rec.index) + " of " +
          jpath + " is a \"suggest\" record, which only hosted sessions "
          "write — resume this journal through the session host");
    }
  }

  BoCheckpoint snap;
  const bool have_snap = io::file_exists(spath);
  if (have_snap) {
    const io::JournalReadResult sr = io::read_journal(spath);
    if (sr.payloads.size() != 1 || sr.torn_tail) {
      throw io::CheckpointError(
          "snapshot " + spath +
          " is damaged (expected exactly one intact framed line)");
    }
    snap = BoCheckpoint::parse(sr.payloads.front());
    check_snapshot(snap, spath, jpath, records.size(), core_.config_hash(),
                   "engine");
  }

  // Re-open for appending, truncating any torn tail first: those bytes
  // are a record that never became durable and will be rewritten by the
  // replay when it reaches that evaluation again.
  core_.reopen_journal(jr.valid_bytes, records.size(),
                       have_snap ? snap.journal_count : 0);

  // Stage the journal tail — everything the snapshot has not absorbed —
  // for replay through the normal loop.
  for (std::size_t i = snap.journal_count; i < records.size(); ++i) {
    replay_tags_.insert(records[i].tag);
    replay_.push_back(std::move(records[i]));
  }

  // Rebuild the eval-record prefix for the absorbed records (the replayed
  // tail re-enters the core's records through observe).
  for (std::size_t i = 0; i < snap.journal_count; ++i) {
    const JournalRecord& jrec = records[i];
    if (jrec.action == "abort") continue;  // aborts never made an EvalRecord
    EvalRecord rec;
    rec.x = core_.to_design(jrec.x);
    rec.y = jrec.y;
    rec.g = jrec.g;
    rec.start = jrec.start;
    rec.finish = jrec.finish;
    rec.worker = jrec.worker;
    rec.is_init = jrec.is_init;
    rec.attempts = jrec.attempts;
    rec.failed = jrec.action != "observed";
    if (rec.failed) rec.failure = jrec.status;
    core_.evals().push_back(std::move(rec));
  }

  std::size_t resubmitted = 0;
  if (have_snap) {
    core_.restore_snapshot(snap, spath);
    last_replay_finish_ = snap.now;
    snapshot_clock_ = snap.now;
    sup.advance_clock(snap.now);  // continue on the original clock
    busy_base_ = snap.busy;

    // In-flight work at snapshot time: a tag whose outcome is in the
    // journal tail is delivered by replay; anything else was genuinely in
    // flight at the kill and is re-submitted for what was left of it (so
    // it finishes when the uninterrupted run did), which the snapshot's
    // busy total already holds.
    for (const std::size_t tag : snap.pending) {
      if (replay_tags_.count(tag) != 0) {
        replay_awaiting_.insert(tag);
        continue;
      }
      busy_base_ -= sup.resubmit(
          tag, evaluation(tag, core_.to_design(core_.proposal(tag))),
          core_.proposal_duration(tag), core_.proposal_submit_time(tag));
      ++resubmitted;
    }
  }

  resume_note_ =
      "resumed from " + cfg().checkpoint_path + ": " +
      std::to_string(snap.journal_count) + " evaluations restored, " +
      std::to_string(replay_.size()) + " replayed from the journal, " +
      std::to_string(resubmitted) + " re-submitted" +
      (jr.torn_tail ? "; dropped a torn final journal line" : "");
  obs::count(trace_, "ckpt.resumes");
}

BoEngine::Arrived BoEngine::await_one(sched::EvalSupervisor& sup) {
  Arrived a;
  if (!replay_.empty()) {
    const JournalRecord rec = std::move(replay_.front());
    replay_.pop_front();
    replay_tags_.erase(rec.tag);
    a.tag = rec.tag;
    a.outcome = replayed_outcome(rec, core_);
    replay_awaiting_.erase(rec.tag);
    last_replay_finish_ = rec.finish;
    // Retries the executor never saw; the snapshot's busy total holds
    // those launched by its clock.
    busy_base_ += sup.retry_occupancy(rec.tag,
                                      core_.proposal_duration(rec.tag),
                                      rec.start, rec.attempts,
                                      snapshot_clock_);
    obs::count(trace_, "ckpt.replayed");
    return a;
  }
  a.sc = timed_wait(sup);
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
  while (num_outstanding(sup) > 0) {
    observe_arrival(await_one(sup), /*draining=*/true);
  }
}

void BoEngine::maybe_checkpoint(sched::EvalSupervisor& sup) {
  if (!core_.journaling() || !replay_.empty()) return;
  if (core_.journal_lines() - core_.lines_at_snapshot() <
      cfg().checkpoint_every) {
    return;
  }
  write_snapshot(sup);
}

void BoEngine::write_snapshot(sched::EvalSupervisor& sup) {
  core_.write_snapshot(logical_now(sup),
                       busy_base_ + sup.executor().total_busy_time());
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
