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

enum class SnapLoad { Missing, Damaged, Ok };

/// Loads one snapshot generation. Missing and framing-level damage (torn
/// or unreadable — everything a crashed replace can leave behind) are
/// reported for the caller to fall back on; a frame whose checksum holds
/// but whose JSON does not is corruption no torn write produces, and that
/// parse error propagates as the hard refusal it deserves.
SnapLoad load_snapshot(const std::string& path, bo::BoCheckpoint& out) {
  if (!io::file_exists(path)) return SnapLoad::Missing;
  io::JournalReadResult sr;
  try {
    sr = io::read_journal(path);
  } catch (const io::CheckpointError&) {
    return SnapLoad::Damaged;
  }
  if (sr.payloads.size() != 1 || sr.torn_tail) return SnapLoad::Damaged;
  out = bo::BoCheckpoint::parse(sr.payloads.front());
  return SnapLoad::Ok;
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
  s->core_.start_fresh_journal(bo::kJournalSchemaV2);
  // Durable before the first reply: a host crash between NEW and the
  // first SUGGEST must still resume to a pristine session.
  s->snapshot();
  return s;
}

std::unique_ptr<Session> Session::resume(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base) {
  auto s = std::unique_ptr<Session>(
      new Session(std::move(name), std::move(spec)));
  bo::AskTellCore& core = s->core_;
  core.set_checkpoint_path(checkpoint_base);

  const std::string jpath = bo::journal_file(checkpoint_base);
  const std::string spath = bo::snapshot_file(checkpoint_base);
  if (!io::file_exists(jpath)) {
    throw io::CheckpointError("cannot resume: no journal at " + jpath);
  }
  const io::JournalReadResult jr = io::read_journal(jpath);
  if (jr.payloads.empty()) {
    // No intact header. Appends are sequential and a failed append rolls
    // the file back, so nothing can ever have been journaled — and the
    // first snapshot is written only after the header. If no snapshot
    // generation exists either, this is the wreckage of a crashed (or
    // storage-faulted) NEW: nothing was ever observable, so re-creating
    // fresh is exact. Any surviving snapshot alongside a headerless
    // journal is real corruption and keeps the hard refusal.
    bo::BoCheckpoint ignored;
    if (load_snapshot(spath, ignored) == SnapLoad::Missing &&
        load_snapshot(spath + ".old", ignored) == SnapLoad::Missing) {
      core.start_fresh_journal(bo::kJournalSchemaV2);
      s->snapshot();
      return s;
    }
    throw io::CheckpointError("cannot resume: journal at " + jpath +
                              " holds no intact header line");
  }
  const std::vector<bo::JournalRecord> records = bo::checked_journal_records(
      jr, jpath, core.config_hash(), "session");
  s->journal_v1_ = bo::JournalHeader::parse(jr.payloads.front()).schema ==
                   bo::kJournalSchemaV1;

  // Sessions write a snapshot inside create(), so a resumable session
  // normally has one. A missing or torn "<base>.snapshot" is the
  // signature of a crash (or injected fault) mid-replace; the previous
  // generation "<base>.snapshot.old" plus its longer journal tail resumes
  // to the exact same state (see snapshot()), so a half-written snapshot
  // is never accepted and never fatal on its own. Only when neither
  // generation is usable does resume give up — and if the journal holds
  // no records, nothing beyond the pristine state was ever published (a
  // crash inside create()), so the session is recreated fresh rather
  // than refused.
  const std::string old_path = spath + ".old";
  bo::BoCheckpoint snap;
  const SnapLoad primary = load_snapshot(spath, snap);
  bool from_fallback = false;
  if (primary != SnapLoad::Ok) {
    if (load_snapshot(old_path, snap) == SnapLoad::Ok) {
      from_fallback = true;
    } else if (records.empty()) {
      core.reopen_journal(jr.valid_bytes, 0, 0);
      // snapshot_valid_ is still false, so this first write does not
      // rotate whatever damaged file sits at spath into the fallback.
      s->snapshot();
      return s;
    } else {
      throw io::CheckpointError(
          "cannot resume session: snapshot " + spath + " is " +
          (primary == SnapLoad::Missing ? "missing" : "damaged") +
          " and no usable fallback snapshot exists at " + old_path);
    }
  }
  const std::string used = from_fallback ? old_path : spath;
  bo::check_snapshot(snap, used, jpath, records.size(), core.config_hash(),
                     "session");

  core.reopen_journal(jr.valid_bytes, records.size(), snap.journal_count);
  core.restore_snapshot(snap, used);
  s->now_ = snap.now;
  // A damaged primary must not be rotated over the generation this
  // resume restored from; the next refit snapshot replaces it instead.
  s->snapshot_valid_ = !from_fallback;

  // Re-apply the tail with no acquisition: suggest records as recorded,
  // eval records through the model update they ran live. Replayed
  // outcomes are already durable: observe() must not journal them again.
  for (std::size_t i = snap.journal_count; i < records.size(); ++i) {
    const bo::JournalRecord& rec = records[i];
    if (rec.suggest) {
      core.apply_suggestion(rec);
      continue;
    }
    const bo::Observed ob =
        core.observe(rec.tag, bo::replayed_outcome(rec, core));
    if (rec.action != ob.action) {
      throw io::CheckpointError(
          "journal record " + std::to_string(rec.index) +
          " was applied as \"" + rec.action + "\" by the original session "
          "but replays as \"" + ob.action +
          "\" — the files and this build disagree on failure policy");
    }
    s->now_ = rec.finish;  // live observes tick the clock to their finish
  }
  return s;
}

void Session::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  core_.set_trace(sink);
  if (sink == nullptr) inflight_wall_.clear();
}

bo::Suggestion Session::suggest(const common::StopToken* stop) {
  snapshot_error_.clear();
  const std::size_t refits = core_.hyper_refits();
  bo::Suggestion s = core_.suggest(now_, stop);
  // The pre-commit gate: a suggest whose deadline passed while it
  // computed must not become durable, even when the computation ignored
  // every cooperative poll on the way (the watchdog path). Before the
  // journal append below, nothing of this suggest has been published.
  if (stop != nullptr) stop->check("suggest commit");
  // Durable before the reply leaves the process: the tag in this
  // suggestion must survive eviction and crash — the client holds it and
  // will OBSERVE it against whatever object resumes from these files.
  if (journal_v1_) upgrade_journal();
  core_.journal_suggestion(s);
  snapshot_after_refit(refits);
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
  snapshot_error_.clear();
  const std::size_t refits = core_.hyper_refits();
  o.start = tag < core_.num_proposals() ? core_.proposal_submit_time(tag)
                                        : 0.0;
  o.finish = now_ + 1.0;
  // Durable the moment core_.observe returns: its journal append fsyncs
  // before the model applies the outcome.
  const bo::Observed ob = core_.observe(tag, o);
  now_ += 1.0;
  record_turnaround(tag);
  snapshot_after_refit(refits);
  return ob.action;
}

void Session::snapshot_after_refit(std::size_t refits_before) {
  if (core_.hyper_refits() == refits_before) return;
  try {
    snapshot();
  } catch (const io::CheckpointError& e) {
    // The command is committed through its journal record; a failed
    // snapshot only lengthens the tail the next resume re-applies.
    snapshot_error_ = e.what();
  }
}

void Session::upgrade_journal() {
  const std::string jpath = bo::journal_file(core_.config().checkpoint_path);
  const std::string content = io::read_file(jpath);
  bo::JournalHeader header;
  header.schema = bo::kJournalSchemaV2;
  header.config_hash = core_.config_hash();
  header.seed = core_.config().seed;
  const std::string upgraded = io::frame_line(header.to_payload()) + "\n" +
                               content.substr(content.find('\n') + 1);
  io::atomic_write_file(jpath, upgraded);
  core_.reopen_journal(upgraded.size(), core_.journal_lines(),
                       core_.lines_at_snapshot());
  journal_v1_ = false;
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

void Session::snapshot() {
  if (snapshot_valid_) {
    // Its own span: write_snapshot below books the write in another.
    obs::ScopedTimer span(trace_, obs::Phase::Checkpoint);
    const std::string spath =
        bo::snapshot_file(core_.config().checkpoint_path);
    try {
      io::try_rename_file(spath, spath + ".old");
    } catch (const io::CheckpointError&) {
      // Rotation is defense in depth: a failed rotation leaves the
      // fallback one generation stale, which is still a valid resume
      // point — it never blocks the snapshot itself.
    }
  }
  snapshot_valid_ = false;
  core_.write_snapshot(now_, 0.0);
  snapshot_valid_ = true;
}

}  // namespace easybo::serve
