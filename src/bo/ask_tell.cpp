#include "bo/ask_tell.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "acq/acquisition.h"
#include "bo/constrained.h"
#include "common/error.h"
#include "common/stats.h"
#include "gp/trainer.h"
#include "io/json.h"

namespace easybo::bo {

std::size_t adaptive_refit_gap(double refit_seconds, double eval_seconds,
                               double budget, std::size_t refit_every) {
  const std::size_t lo = std::max<std::size_t>(refit_every, 1);
  const std::size_t hi = lo * 64;
  const double denom = budget * eval_seconds;
  if (!(denom > 0.0) || !std::isfinite(refit_seconds)) return hi;
  const double gap = std::ceil(refit_seconds / denom);
  if (!(gap > 0.0)) return lo;  // also catches NaN
  if (gap >= static_cast<double>(hi)) return hi;
  return std::max(lo, static_cast<std::size_t>(gap));
}

AskTellCore::AskTellCore(BoConfig config, opt::Bounds bounds,
                         std::function<double(const Vec&)> sim_time,
                         std::size_t num_constraints)
    : cfg_(std::move(config)),
      bounds_(std::move(bounds)),
      sim_time_(std::move(sim_time)),
      rng_(cfg_.seed),
      box_(bounds_.lower, bounds_.upper),
      model_(make_kernel(cfg_, bounds_.lower.size()),
             /*noise_variance=*/1e-6) {
  cfg_.validate();
  bounds_.validate();
  if (num_constraints > 0) {
    EASYBO_REQUIRE(cfg_.acq == AcqKind::EasyBo,
                   "constrained mode supports the EasyBO acquisition");
    EASYBO_REQUIRE(cfg_.mode != Mode::SyncBatch,
                   "constrained mode supports Sequential and AsyncBatch");
    con_models_.reserve(num_constraints);
    for (std::size_t i = 0; i < num_constraints; ++i) {
      con_models_.emplace_back(make_kernel(cfg_, bounds_.dim()),
                               /*noise_variance=*/1e-6);
    }
  }
  if (!sim_time_) {
    sim_time_ = [](const Vec&) { return 1.0; };
  }
  if (cfg_.acq == AcqKind::Phcbo) {
    hc_penalties_.assign(cfg_.batch,
                         acq::HighCoveragePenalty(cfg_.hc_d, cfg_.hc_n));
  }
  next_hyper_refit_ = cfg_.init_points;
  proposal_counter_ = std::string("bo.proposals.") + to_string(cfg_.acq);
  config_hash_ = config_fingerprint(cfg_, bounds_, num_constraints);
}

void AskTellCore::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  model_.set_trace(sink);
  for (auto& m : con_models_) m.set_trace(sink);
}

// ---------------------------------------------------------------------------
// The two mutation points
// ---------------------------------------------------------------------------

namespace {

/// κ of the BUCB extension baseline's upper confidence bound.
constexpr double kBucbKappa = 2.0;

/// Column \p i of \p rows: one constraint's values across observations.
Vec column(const std::vector<Vec>& rows, std::size_t i) {
  Vec out(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) out[k] = rows[k][i];
  return out;
}

/// Clears AskTellCore::stop_ on every exit path of suggest(), thrown
/// Cancelled included — a dangling request-scoped token must never leak
/// into a later observe()'s model refresh.
class StopScope {
 public:
  StopScope(const common::StopToken*& slot, const common::StopToken* stop)
      : slot_(slot) {
    slot_ = stop;
  }
  ~StopScope() { slot_ = nullptr; }
  StopScope(const StopScope&) = delete;
  StopScope& operator=(const StopScope&) = delete;

 private:
  const common::StopToken*& slot_;
};

}  // namespace

Suggestion AskTellCore::suggest(double now, const common::StopToken* stop) {
  StopScope scope(stop_, stop);
  if (stop_ != nullptr) stop_->check("suggest admission");
  if (issued_ >= cfg_.max_sims) {
    throw Error("suggest: simulation budget exhausted (" +
                std::to_string(cfg_.max_sims) + " evaluations issued)");
  }
  const std::size_t refits = hyper_refits_;
  Suggestion s;
  s.tag = prop_x_.size();
  if (!init_done_ &&
      obs_x_.size() + pending_tags_.size() < cfg_.init_points) {
    // Random initial design (the paper samples uniformly at random).
    // Counting pending points keeps exactly init_points anchors in flight;
    // a failed-and-discarded one frees its slot and is topped up here.
    s.is_init = true;
    s.unit_x = rng_.uniform_vector(bounds_.dim());
  } else {
    if (!init_done_) {
      if (obs_x_.size() < cfg_.init_points) {
        throw Error(
            "suggest: the initial design is still in flight; observe it "
            "before requesting a model-based proposal");
      }
      train_first_model();  // just-in-time at the init/BO boundary
    }
    // Hallucinate everything in flight. Ascending tag order is suggestion
    // order — the same order the engine's loops historically grew their
    // pending vectors in.
    std::vector<Vec> pending;
    pending.reserve(pending_tags_.size());
    for (const std::size_t tag : pending_tags_) {
      pending.push_back(prop_x_[tag]);
    }
    // Batches start against a drained pool, so in SyncBatch mode the
    // in-flight count IS the position within the current batch: slots
    // 0..k-1. Sequential and asynchronous proposals all use slot 0.
    const std::size_t slot =
        cfg_.mode == Mode::SyncBatch ? pending.size() : 0;
    s.unit_x = propose(pending, slot);
  }
  s.x = box_.from_unit(s.unit_x);
  s.duration = sim_time_(s.x);
  prop_x_.push_back(s.unit_x);
  prop_init_.push_back(s.is_init);
  prop_submit_.push_back(now);
  prop_duration_.push_back(s.duration);
  pending_tags_.insert(s.tag);
  ++issued_;
  if (journal_.is_open()) {
    // The pre-commit gate: even a computation that ignored every poll
    // must not commit past its deadline.
    if (stop_ != nullptr) stop_->check("suggest commit");
    journal_suggestion(s);
  }
  snapshot_if_refit(refits);
  return s;
}

Observed AskTellCore::observe(std::size_t tag, const Outcome& o,
                              bool draining) {
  if (tag >= prop_x_.size()) {
    throw Error("observe: evaluation " + std::to_string(tag) +
                " was never suggested (only " +
                std::to_string(prop_x_.size()) + " proposals issued)");
  }
  const auto it = pending_tags_.find(tag);
  if (it == pending_tags_.end()) {
    throw Error("observe: evaluation " + std::to_string(tag) +
                " is not pending (already observed, or never suggested)");
  }
  if (o.status == sched::EvalStatus::Ok && o.g.size() != con_models_.size()) {
    throw Error("observe: evaluation " + std::to_string(tag) +
                " reports the wrong number of constraint values");
  }
  pending_tags_.erase(it);
  const bool was_init_done = init_done_;
  const std::size_t refits = hyper_refits_;
  const Vec& unit_x = prop_x_[tag];

  EvalRecord rec;
  rec.x = box_.from_unit(unit_x);
  rec.start = o.start;
  rec.finish = o.finish;
  rec.worker = o.worker;
  rec.is_init = prop_init_[tag];
  rec.attempts = o.attempts;

  // Feed the adaptive cost model from the outcome's own clock (executor
  // time: virtual or wall, whichever the caller runs on). Replayed
  // outcomes are skipped — their durations belong to a previous process.
  if (cfg_.adapt_refit_cadence && !o.replayed && o.finish > o.start) {
    adapt_eval_cema_.add(o.finish - o.start);
  }

  Observed ob;
  if (o.status == sched::EvalStatus::Ok) {
    journal_eval(tag, o, "observed", o.value, o.g);  // durable, then applied
    obs_x_.push_back(unit_x);
    obs_y_.push_back(o.value);
    obs_is_init_.push_back(prop_init_[tag]);
    if (!con_models_.empty()) {
      obs_g_.push_back(o.g);
      obs_penalized_.push_back(false);
    }
    rec.y = o.value;
    rec.g = o.g;
    evals_.push_back(std::move(rec));
    ob.changed = true;
    ob.action = "observed";
  } else {
    if (!o.replayed) obs::count(trace_, "eval.failures");
    if (cfg_.on_eval_failure == EvalFailurePolicy::Abort) {
      journal_eval(tag, o, "abort", std::numeric_limits<double>::quiet_NaN());
      // Rethrow the objective's own exception so callers see exactly what
      // they saw before supervision existed; timeouts and non-finite
      // values never carried one, so they get a descriptive Error. A
      // replayed abort lost its exception_ptr with the original process
      // and always takes the descriptive path.
      if (o.exception) std::rethrow_exception(o.exception);
      throw Error(std::string("evaluation failed (") +
                  sched::to_string(o.status) +
                  ") and on_eval_failure is abort" +
                  (o.error.empty() ? "" : ": " + o.error));
    }

    rec.failed = true;
    rec.failure = sched::to_string(o.status);

    // Penalize needs at least one real observation to anchor the
    // quantile; until then it degrades to Discard.
    if (cfg_.on_eval_failure == EvalFailurePolicy::Penalize &&
        !obs_y_.empty()) {
      if (!o.replayed) obs::count(trace_, "eval.penalized");
      const double y_pen = quantile_of(obs_y_, cfg_.eval_failure_quantile);
      // Each constraint model gets the same quantile of its own values.
      Vec g_pen(con_models_.size());
      for (std::size_t i = 0; i < g_pen.size(); ++i) {
        g_pen[i] = quantile_of(column(obs_g_, i), cfg_.eval_failure_quantile);
      }
      journal_eval(tag, o, "penalized", y_pen, g_pen);
      obs_x_.push_back(unit_x);
      obs_y_.push_back(y_pen);
      obs_is_init_.push_back(prop_init_[tag]);
      if (!con_models_.empty()) {
        obs_g_.push_back(g_pen);
        obs_penalized_.push_back(true);
      }
      rec.y = y_pen;
      rec.g = std::move(g_pen);
      evals_.push_back(std::move(rec));
      ob.changed = true;
      ob.action = "penalized";
    } else {
      if (!o.replayed) obs::count(trace_, "eval.discarded");
      journal_eval(tag, o, "discarded",
                   std::numeric_limits<double>::quiet_NaN());
      failed_x_.push_back(unit_x);  // dedup never re-proposes it verbatim
      rec.y = std::numeric_limits<double>::quiet_NaN();
      evals_.push_back(std::move(rec));
      ob.changed = false;
      ob.action = "discarded";
    }
  }

  // Model refresh, exactly where the engine's loops refreshed it: never
  // before finish_init() trained the first model, never while draining,
  // per observation in Sequential/AsyncBatch, and at the in-flight-batch
  // drain in SyncBatch (the old barrier's single post-drain update).
  if (was_init_done && !draining) {
    if (cfg_.mode == Mode::SyncBatch) {
      sync_dirty_ |= ob.changed;
      if (pending_tags_.empty() && sync_dirty_) {
        update_model(/*force_train=*/false);
        sync_dirty_ = false;
      }
    } else if (ob.changed) {
      update_model(/*force_train=*/false);
    }
  }
  if (!o.replayed) snapshot_if_refit(refits);
  return ob;
}

void AskTellCore::finish_init() {
  const std::size_t refits = hyper_refits_;
  train_first_model();
  snapshot_if_refit(refits);
}

void AskTellCore::train_first_model() {
  if (init_done_) return;
  if (obs_x_.empty()) {
    throw Error(
        "every initial evaluation failed; no observation to build a "
        "model from (see docs/failure-model.md)");
  }
  update_model(/*force_train=*/true);
  init_done_ = true;
}

// ---------------------------------------------------------------------------
// Proposal
// ---------------------------------------------------------------------------

Vec AskTellCore::propose(const std::vector<Vec>& pending, std::size_t slot) {
  const std::size_t dim = bounds_.dim();
  const std::vector<Vec> anchors = {obs_x_[incumbent_index()]};
  obs::count(trace_, proposal_counter_);

  // The hallucinated posterior / base acquisition (when used) must
  // outlive the maximization.
  std::unique_ptr<gp::Regressor> hallucinated;
  std::unique_ptr<acq::AcquisitionFn> base_acq;
  std::unique_ptr<acq::AcquisitionFn> fn;

  switch (cfg_.acq) {
    case AcqKind::Lcb:
      fn = std::make_unique<acq::Ucb>(&model_, cfg_.lcb_kappa);
      break;
    case AcqKind::Ei: {
      const double best_z = zscore_.transform(obs_y_[incumbent_index()]);
      fn = std::make_unique<acq::Ei>(&model_, best_z, cfg_.ei_xi);
      break;
    }
    case AcqKind::EasyBo: {
      const double w = cfg_.uniform_w
                           ? rng_.uniform()
                           : acq::sample_easybo_weight(rng_, cfg_.lambda);
      if (cfg_.penalize && !pending.empty()) {
        hallucinated = model_.hallucinate(pending);
        fn = std::make_unique<acq::WeightedUcb>(&model_, hallucinated.get(),
                                                w);
      } else {
        fn = std::make_unique<acq::WeightedUcb>(&model_, &model_, w);
      }
      if (!con_models_.empty()) {
        base_acq = std::move(fn);
        fn = feasibility_weighted(base_acq.get(), w);
      }
      break;
    }
    case AcqKind::Pbo: {
      const Vec grid = acq::pbo_weight_grid(cfg_.batch);
      fn = std::make_unique<acq::WeightedUcb>(&model_, &model_,
                                              grid[slot % grid.size()]);
      break;
    }
    case AcqKind::Phcbo: {
      const Vec grid = acq::pbo_weight_grid(cfg_.batch);
      fn = std::make_unique<acq::PhcboAcquisition>(
          &model_, grid[slot % grid.size()],
          &hc_penalties_[slot % hc_penalties_.size()]);
      break;
    }
    case AcqKind::Bucb: {
      if (!pending.empty()) {
        hallucinated = model_.hallucinate(pending);
        fn = std::make_unique<acq::Bucb>(&model_, hallucinated.get(),
                                         kBucbKappa);
      } else {
        fn = std::make_unique<acq::Bucb>(&model_, &model_, kBucbKappa);
      }
      break;
    }
    case AcqKind::Lp: {
      const double best_z = zscore_.transform(obs_y_[incumbent_index()]);
      base_acq = std::make_unique<acq::Ei>(&model_, best_z, cfg_.ei_xi);
      const double lipschitz = acq::estimate_lipschitz(model_, rng_);
      fn = std::make_unique<acq::LocalPenalization>(
          base_acq.get(), &model_, pending, lipschitz, best_z);
      break;
    }
  }

  auto best = acq::maximize_acquisition(*fn, dim, rng_, anchors,
                                        cfg_.acq_opt, trace_, stop_);
  Vec x = dedup(std::move(best.best_x), pending);
  if (cfg_.acq == AcqKind::Phcbo) {
    hc_penalties_[slot % hc_penalties_.size()].record(x);
  }
  return x;
}

std::unique_ptr<acq::AcquisitionFn> AskTellCore::feasibility_weighted(
    const acq::AcquisitionFn* base, double w) const {
  // The floor keeps the weighted term non-negative over the data without
  // distorting its ordering.
  const acq::WeightedUcb plain(&model_, &model_, w);
  Vec at_obs(obs_x_.size());
  plain.evaluate_batch(obs_x_, at_obs);
  const double floor = *std::min_element(at_obs.begin(), at_obs.end());
  std::vector<const gp::Regressor*> models;
  models.reserve(con_models_.size());
  for (const auto& m : con_models_) models.push_back(&m);
  return std::make_unique<acq::FeasibilityWeighted>(base, floor,
                                                    std::move(models));
}

Vec AskTellCore::dedup(Vec x, const std::vector<Vec>& pending) {
  if (failed_x_.empty()) {
    return dedup_proposal(std::move(x), obs_x_, pending, rng_, trace_);
  }
  // Discarded failure locations block proposals too: re-evaluating a point
  // that just crashed verbatim would burn budget on a known failure.
  std::vector<Vec> blocked = pending;
  blocked.insert(blocked.end(), failed_x_.begin(), failed_x_.end());
  return dedup_proposal(std::move(x), obs_x_, blocked, rng_, trace_);
}

Vec dedup_proposal(Vec x, const std::vector<Vec>& observed,
                   const std::vector<Vec>& pending, Rng& rng,
                   obs::TraceSink* trace) {
  auto collides = [&](const Vec& candidate) {
    auto too_close = [&](const Vec& other) {
      return linalg::dist_sq(candidate, other) < 1e-12;
    };
    return std::any_of(observed.begin(), observed.end(), too_close) ||
           std::any_of(pending.begin(), pending.end(), too_close);
  };
  if (!collides(x)) return x;

  // Nudge inside the cube; an exact duplicate adds no information and can
  // degrade the covariance conditioning. A single nudge is not enough: on
  // a boundary duplicate (e.g. the unit-cube corner the acquisition keeps
  // proposing) the clamp can put the point right back onto the duplicate,
  // so retry, then give up on locality and resample uniformly.
  constexpr int kNudges = 4;
  for (int attempt = 0; attempt < kNudges; ++attempt) {
    Vec nudged = x;
    for (auto& v : nudged) {
      v = std::clamp(v + rng.normal(0.0, 0.01), 0.0, 1.0);
    }
    obs::count(trace, "bo.dedup_nudge");
    if (!collides(nudged)) return nudged;
  }
  constexpr int kResamples = 16;
  Vec resampled = std::move(x);
  for (int attempt = 0; attempt < kResamples; ++attempt) {
    resampled = rng.uniform_vector(resampled.size());
    obs::count(trace, "bo.dedup_resample");
    if (!collides(resampled)) break;
  }
  return resampled;  // last candidate even if saturated: progress > purity
}

// ---------------------------------------------------------------------------
// Model management
// ---------------------------------------------------------------------------

void AskTellCore::update_model(bool force_train) {
  {
    obs::ScopedTimer span(trace_, obs::Phase::ModelFit);
    zscore_.refit(obs_y_);
    model_.set_data(obs_x_, zscore_.transform(obs_y_));
    for (std::size_t i = 0; i < con_models_.size(); ++i) {
      con_models_[i].set_data(obs_x_, column(obs_g_, i));
    }
  }

  // Constraint models share the objective model's schedule and are
  // trained right after it, from the same RNG stream.
  const bool train = force_train || obs_x_.size() >= next_hyper_refit_;
  if (train) {
    const auto refit_begin = cfg_.adapt_refit_cadence
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    {
      obs::ScopedTimer span(trace_, obs::Phase::HyperRefit);
      gp::train_mle(model_, rng_, cfg_.trainer, stop_);
      for (auto& m : con_models_) gp::train_mle(m, rng_, cfg_.trainer, stop_);
    }
    obs::count(trace_, "bo.hyper_refit");
    ++hyper_refits_;
    const auto n = obs_x_.size();
    if (cfg_.adapt_refit_cadence) {
      adapt_refit_cema_.add(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                refit_begin)
                                .count());
      if (adapt_eval_cema_.count() > 0) {
        // Cost-driven schedule: wait long enough that refitting stays
        // near adapt_refit_budget of measured eval spend.
        next_hyper_refit_ =
            n + adaptive_refit_gap(adapt_refit_cema_.value(),
                                   adapt_eval_cema_.value(),
                                   cfg_.adapt_refit_budget,
                                   cfg_.refit_every);
        obs::count(trace_, "bo.adapt_refit");
      } else {
        next_hyper_refit_ = n + cfg_.refit_every;
      }
    } else {
      // Geometrically thinning schedule: early observations shift the
      // hyperparameters a lot, late ones barely; this caps total O(n^3)
      // training cost without changing behaviour materially.
      next_hyper_refit_ = std::max(
          n + cfg_.refit_every,
          static_cast<std::size_t>(static_cast<double>(n) * 1.5));
    }
  } else {
    obs::ScopedTimer span(trace_, obs::Phase::ModelFit);
    model_.fit();
    for (auto& m : con_models_) m.fit();
  }
}

std::size_t AskTellCore::incumbent_index() const {
  EASYBO_REQUIRE(!obs_y_.empty(), "incumbent of empty dataset");
  if (con_models_.empty()) return linalg::argmax(obs_y_);
  // The best feasible point, else the least violating; first wins ties.
  // Observation 0 is always real (penalizing needs one to anchor on).
  std::size_t best = 0;
  double best_violation = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < obs_y_.size(); ++k) {
    if (obs_penalized_[k]) continue;
    const double v = total_violation(obs_g_[k]);
    if (v < best_violation ||
        (v == 0.0 && best_violation == 0.0 && obs_y_[k] > obs_y_[best])) {
      best = k;
      best_violation = v;
    }
  }
  return best;
}

Vec AskTellCore::to_design(const Vec& unit_x) const {
  return box_.from_unit(unit_x);
}

double AskTellCore::best_y() const { return obs_y_[incumbent_index()]; }

Vec AskTellCore::best_x() const {
  return box_.from_unit(obs_x_[incumbent_index()]);
}

Vec AskTellCore::best_g() const {
  return con_models_.empty() ? Vec{} : obs_g_[incumbent_index()];
}

// ---------------------------------------------------------------------------
// Durability (docs/checkpoint-format.md)
// ---------------------------------------------------------------------------

void AskTellCore::set_checkpoint_path(const std::string& path) {
  EASYBO_REQUIRE(!journal_.is_open(),
                 "AskTellCore: checkpoint path cannot change after "
                 "journaling started");
  cfg_.checkpoint_path = path;
}

void AskTellCore::start_fresh_journal() {
  {
    obs::ScopedTimer span(trace_, obs::Phase::Checkpoint);
    journal_.open(journal_file(cfg_.checkpoint_path), /*truncate_to=*/0);
    JournalHeader header;
    header.config_hash = config_hash_;
    header.seed = cfg_.seed;
    journal_.append(header.to_payload());
  }
  write_snapshot();
}

namespace {

enum class SnapLoad { Missing, Damaged, Ok };

/// Loads one snapshot generation. Missing and framing-level damage (torn
/// or unreadable — everything a crashed replace can leave behind) are
/// reported for the caller to fall back on; a frame whose checksum holds
/// but whose JSON does not is corruption no torn write produces, and that
/// parse error propagates as the hard refusal it deserves.
SnapLoad load_snapshot(const std::string& path, BoCheckpoint& out) {
  if (!io::file_exists(path)) return SnapLoad::Missing;
  io::JournalReadResult sr;
  try {
    sr = io::read_journal(path);
  } catch (const io::CheckpointError&) {
    return SnapLoad::Damaged;
  }
  if (sr.payloads.size() != 1 || sr.torn_tail) return SnapLoad::Damaged;
  out = BoCheckpoint::parse(sr.payloads.front());
  return SnapLoad::Ok;
}

}  // namespace

Resumed AskTellCore::resume(const char* owner) {
  EASYBO_REQUIRE(journaling() && !journal_.is_open() && prop_x_.empty(),
                 "AskTellCore::resume needs a fresh core with a checkpoint "
                 "path");
  const std::string jpath = journal_file(cfg_.checkpoint_path);
  const std::string spath = snapshot_file(cfg_.checkpoint_path);
  const std::string old_path = spath + ".old";
  if (!io::file_exists(jpath)) {
    throw io::CheckpointError("cannot resume: no journal at " + jpath);
  }
  const io::JournalReadResult jr = io::read_journal(jpath);
  Resumed r;
  r.torn_tail = jr.torn_tail;
  if (jr.payloads.empty() && !io::file_exists(spath) &&
      !io::file_exists(old_path)) {
    // No intact header and no snapshot: appends are sequential, a failed
    // append rolls the file back and the pristine snapshot follows the
    // header, so this is the wreckage of a crashed start_fresh_journal.
    // Nothing was ever observable; starting fresh is exact.
    start_fresh_journal();
    return r;
  }
  r.records = checked_journal_records(jr, jpath, config_hash_, owner);
  journal_v1_ =
      JournalHeader::parse(jr.payloads.front()).schema == kJournalSchemaV1;

  // A missing or torn "<path>.snapshot" is the signature of a crash (or
  // injected fault) mid-replace; the previous generation plus its longer
  // journal tail resumes to the same state (write_snapshot). A
  // half-written snapshot is never accepted, and only when neither
  // generation is usable does resume refuse — unless the journal holds no
  // record, where nothing beyond the pristine state was ever published.
  BoCheckpoint snap;
  std::string used = spath;
  const SnapLoad primary = load_snapshot(spath, snap);
  if (primary != SnapLoad::Ok) {
    used = old_path;
    if (load_snapshot(old_path, snap) != SnapLoad::Ok) {
      if (!r.records.empty()) {
        throw io::CheckpointError(
            std::string("cannot resume ") + owner + ": snapshot " + spath +
            " is " + (primary == SnapLoad::Missing ? "missing" : "damaged") +
            " and no usable fallback snapshot exists at " + old_path);
      }
      journal_.open(jpath, static_cast<long>(jr.valid_bytes));
      // snapshot_valid_ is still false, so this first write does not
      // rotate whatever damaged file sits at spath into the fallback.
      write_snapshot();
      return r;
    }
  }
  check_snapshot(snap, used, jpath, r.records.size(), config_hash_, owner);

  // Truncating to valid_bytes drops a torn tail: a record that never
  // became durable, made again when its command or evaluation is.
  journal_.open(jpath, static_cast<long>(jr.valid_bytes));
  journal_lines_ = r.records.size();
  restore_snapshot(snap, used);
  // A damaged primary must not be rotated over the generation this
  // resume restored from; the next snapshot replaces it instead.
  snapshot_valid_ = used == spath;
  r.absorbed = snap.journal_count;
  last_record_time_ = snap.now;

  // The eval records the snapshot absorbed; the tail's re-enter through
  // observe().
  for (std::size_t i = 0; i < r.absorbed; ++i) {
    const JournalRecord& jrec = r.records[i];
    if (jrec.suggest || jrec.action == "abort") continue;
    EvalRecord rec;
    rec.x = to_design(jrec.x);
    rec.y = jrec.y;
    rec.g = jrec.g;
    rec.start = jrec.start;
    rec.finish = jrec.finish;
    rec.worker = jrec.worker;
    rec.is_init = jrec.is_init;
    rec.attempts = jrec.attempts;
    rec.failed = jrec.action != "observed";
    if (rec.failed) rec.failure = jrec.status;
    evals_.push_back(std::move(rec));
  }

  // Re-apply the tail with no acquisition: suggest records as recorded,
  // eval records through the model update they ran live.
  for (std::size_t i = r.absorbed; i < r.records.size(); ++i) {
    const JournalRecord& rec = r.records[i];
    obs::count(trace_, "ckpt.replayed");
    if (rec.suggest) {
      apply_suggestion(rec);
      last_record_time_ = rec.submit;
      continue;
    }
    if (journal_v1_ && pending_tags_.count(rec.tag) == 0) {
      throw io::CheckpointError(
          "cannot resume: record " + std::to_string(rec.index) + " of " +
          jpath + " completes evaluation " + std::to_string(rec.tag) +
          ", which no record suggested; an " + kJournalSchemaV1 +
          " journal holds no suggest records, so its tail may only complete "
          "evaluations its snapshot holds in flight");
    }
    const Observed ob = observe(rec.tag, replayed_outcome(rec, *this));
    if (rec.action != ob.action) {
      throw io::CheckpointError(
          "journal record " + std::to_string(rec.index) +
          " was applied as \"" + rec.action + "\" by the original " + owner +
          " but replays as \"" + ob.action +
          "\" — the files and this build disagree on failure policy");
    }
    last_record_time_ = rec.finish;
  }
  r.now = last_record_time_;
  return r;
}

void AskTellCore::journal_eval(std::size_t tag, const Outcome& o,
                               const char* action, double y, const Vec& g) {
  if (!journal_.is_open() || o.replayed) return;
  JournalRecord rec;
  rec.index = journal_lines_;
  rec.tag = tag;
  rec.status = sched::to_string(o.status);
  rec.action = action;
  rec.attempts = o.attempts;
  rec.worker = o.worker;
  rec.start = o.start;
  rec.finish = o.finish;
  rec.is_init = prop_init_[tag];
  rec.x = prop_x_[tag];
  rec.y = y;
  rec.g = g;
  rec.error = o.error;
  obs::ScopedTimer span(trace_, obs::Phase::Checkpoint);
  journal_.append(rec.to_payload());
  ++journal_lines_;
  last_record_time_ = o.finish;
  obs::count(trace_, "ckpt.journal_appends");
}

void AskTellCore::journal_suggestion(const Suggestion& s) {
  if (journal_v1_) upgrade_journal();
  JournalRecord rec;
  rec.index = journal_lines_;
  rec.suggest = true;
  rec.tag = s.tag;
  rec.is_init = s.is_init;
  rec.x = s.unit_x;
  rec.submit = prop_submit_[s.tag];
  rec.duration = s.duration;
  rec.rng = rng_.save();
  obs::ScopedTimer span(trace_, obs::Phase::Checkpoint);
  journal_.append(rec.to_payload());
  ++journal_lines_;
  last_record_time_ = rec.submit;
  obs::count(trace_, "ckpt.journal_appends");
}

void AskTellCore::apply_suggestion(const JournalRecord& rec) {
  const std::string record = "journal record " + std::to_string(rec.index);
  if (rec.tag != prop_x_.size() || issued_ >= cfg_.max_sims ||
      rec.x.size() != bounds_.dim()) {
    throw io::CheckpointError(
        record + " suggests evaluation " + std::to_string(rec.tag) +
        " where the replay expects evaluation " +
        std::to_string(prop_x_.size()) + " of a budget of " +
        std::to_string(cfg_.max_sims) + " in " +
        std::to_string(bounds_.dim()) + " dimensions");
  }
  // suggest() draws an init point exactly while the design has room, and
  // proposes through the model only once every init point is observed.
  const bool init_slot = !init_done_ && obs_x_.size() + pending_tags_.size() <
                                            cfg_.init_points;
  if (rec.is_init != init_slot ||
      (!rec.is_init && !init_done_ && obs_x_.size() < cfg_.init_points)) {
    throw io::CheckpointError(
        record + " does not fit the replayed initial design (is_init " +
        (rec.is_init ? "true" : "false") + " with " +
        std::to_string(obs_x_.size()) + " observed and " +
        std::to_string(pending_tags_.size()) + " pending)");
  }
  if (!rec.is_init) {
    train_first_model();  // the first model-based suggest trained it
    if (cfg_.acq == AcqKind::Phcbo) {
      const std::size_t slot =
          cfg_.mode == Mode::SyncBatch ? pending_tags_.size() : 0;
      hc_penalties_[slot % hc_penalties_.size()].record(rec.x);
    }
  }
  prop_x_.push_back(rec.x);
  prop_init_.push_back(rec.is_init);
  prop_submit_.push_back(rec.submit);
  prop_duration_.push_back(rec.duration);
  pending_tags_.insert(rec.tag);
  ++issued_;
  rng_.load(rec.rng);
}

BoCheckpoint AskTellCore::make_snapshot() const {
  BoCheckpoint snap;
  snap.config_hash = config_hash_;
  snap.journal_count = journal_lines_;
  snap.now = last_record_time_;
  snap.busy = 0.0;  // frozen, unused
  snap.init_done = init_done_;
  snap.sync_dirty = sync_dirty_;
  snap.issued = issued_;
  snap.rng = rng_.save();
  snap.sup_rng = Rng(cfg_.seed ^ 0x5AFEB0FFu).save();  // frozen, unused
  snap.obs_x = obs_x_;
  snap.obs_y = obs_y_;
  snap.obs_is_init = obs_is_init_;
  snap.failed_x = failed_x_;
  snap.prop_x = prop_x_;
  snap.prop_init = prop_init_;
  snap.prop_submit = prop_submit_;
  snap.prop_duration = prop_duration_;
  snap.pending.assign(pending_tags_.begin(), pending_tags_.end());
  snap.hc_histories.reserve(hc_penalties_.size());
  for (const auto& hc : hc_penalties_) {
    snap.hc_histories.emplace_back(hc.history().begin(), hc.history().end());
  }
  snap.next_hyper_refit = next_hyper_refit_;
  snap.hyper_refits = hyper_refits_;
  if (init_done_) snap.gp_log_hyperparams = model_.log_hyperparams();
  if (!con_models_.empty()) {
    snap.obs_g = obs_g_;
    snap.obs_penalized = obs_penalized_;
    if (init_done_) {
      for (const auto& m : con_models_) {
        snap.g_log_hyperparams.push_back(m.log_hyperparams());
      }
    }
  }
  return snap;
}

void AskTellCore::upgrade_journal() {
  const std::string jpath = journal_file(cfg_.checkpoint_path);
  const std::string content = io::read_file(jpath);
  JournalHeader header;
  header.config_hash = config_hash_;
  header.seed = cfg_.seed;
  const std::string upgraded = io::frame_line(header.to_payload()) + "\n" +
                               content.substr(content.find('\n') + 1);
  io::atomic_write_file(jpath, upgraded);
  journal_.open(jpath, static_cast<long>(upgraded.size()));
  journal_v1_ = false;
}

void AskTellCore::write_snapshot() {
  obs::ScopedTimer span(trace_, obs::Phase::Checkpoint);
  const std::string spath = snapshot_file(cfg_.checkpoint_path);
  if (snapshot_valid_) {
    try {
      io::try_rename_file(spath, spath + ".old");
    } catch (const io::CheckpointError&) {
      // Rotation is defense in depth: a failed rotation leaves the
      // fallback one generation stale, which is still a valid resume
      // point — it never blocks the snapshot itself.
    }
  }
  snapshot_valid_ = false;
  const BoCheckpoint snap = make_snapshot();
  io::atomic_write_file(spath, io::frame_line(snap.to_payload()) + "\n");
  snapshot_valid_ = true;
  obs::count(trace_, "ckpt.snapshots");
}

void AskTellCore::snapshot_if_refit(std::size_t refits_before) {
  snapshot_error_.clear();
  if (!journal_.is_open() || hyper_refits_ == refits_before) return;
  try {
    write_snapshot();
  } catch (const io::CheckpointError& e) {
    // The command is committed through its journal record; a failed
    // snapshot only lengthens the tail the next resume re-applies.
    snapshot_error_ = e.what();
    obs::count(trace_, "ckpt.snapshot_failures");
  }
}

void AskTellCore::restore_snapshot(const BoCheckpoint& snap,
                                   const std::string& origin) {
  rng_.load(snap.rng);
  obs_x_ = snap.obs_x;
  obs_y_ = snap.obs_y;
  obs_is_init_ = snap.obs_is_init;
  failed_x_ = snap.failed_x;
  prop_x_ = snap.prop_x;
  prop_init_ = snap.prop_init;
  prop_submit_ = snap.prop_submit;
  prop_duration_ = snap.prop_duration;
  issued_ = snap.issued;
  init_done_ = snap.init_done;
  next_hyper_refit_ = snap.next_hyper_refit;
  hyper_refits_ = snap.hyper_refits;
  if (cfg_.acq == AcqKind::Phcbo) {
    if (snap.hc_histories.size() != hc_penalties_.size()) {
      throw io::CheckpointError(
          "snapshot " + origin + " carries " +
          std::to_string(snap.hc_histories.size()) +
          " pHCBO penalty histories; this configuration needs " +
          std::to_string(hc_penalties_.size()));
    }
    for (std::size_t i = 0; i < hc_penalties_.size(); ++i) {
      hc_penalties_[i] = acq::HighCoveragePenalty(cfg_.hc_d, cfg_.hc_n);
      for (const Vec& x : snap.hc_histories[i]) hc_penalties_[i].record(x);
    }
  }
  if (!con_models_.empty()) {
    const std::size_t c = con_models_.size();
    if (snap.obs_g.size() != obs_x_.size() ||
        snap.obs_penalized.size() != obs_x_.size() ||
        std::any_of(snap.obs_g.begin(), snap.obs_g.end(),
                    [c](const Vec& g) { return g.size() != c; }) ||
        (init_done_ && snap.g_log_hyperparams.size() != c)) {
      throw io::CheckpointError("snapshot " + origin +
                                " lacks the constraint state of its run");
    }
    obs_g_ = snap.obs_g;
    obs_penalized_ = snap.obs_penalized;
  }
  if (init_done_ && !obs_x_.empty()) {
    zscore_.refit(obs_y_);
    model_.set_data(obs_x_, zscore_.transform(obs_y_));
    if (!snap.gp_log_hyperparams.empty()) {
      model_.set_log_hyperparams(snap.gp_log_hyperparams);
    }
    model_.fit();
    for (std::size_t i = 0; i < con_models_.size(); ++i) {
      con_models_[i].set_data(obs_x_, column(obs_g_, i));
      con_models_[i].set_log_hyperparams(snap.g_log_hyperparams[i]);
      con_models_[i].fit();
    }
  }
  pending_tags_.clear();
  for (const std::size_t tag : snap.pending) {
    if (tag >= prop_x_.size()) {
      throw io::CheckpointError(
          "snapshot " + origin + " marks evaluation " + std::to_string(tag) +
          " in flight but records only " + std::to_string(prop_x_.size()) +
          " proposals");
    }
    pending_tags_.insert(tag);
  }
  sync_dirty_ = snap.sync_dirty;
}

}  // namespace easybo::bo
