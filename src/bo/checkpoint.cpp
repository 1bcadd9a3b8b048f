#include "bo/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "bo/ask_tell.h"
#include "bo/config.h"
#include "common/error.h"
#include "io/journal.h"
#include "io/json.h"

namespace easybo::bo {

namespace {

using io::JsonValue;

constexpr const char* kSnapshotSchema = "easybo.checkpoint.v1";
constexpr const char* kSuggestKind = "suggest";

// --- JSON building blocks ------------------------------------------------

std::string vecs_json(const std::vector<Vec>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += io::json_vec(vs[i]);
  }
  out.push_back(']');
  return out;
}

std::string bools_json(const std::vector<bool>& bs) {
  std::string out = "[";
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += bs[i] ? "1" : "0";
  }
  out.push_back(']');
  return out;
}

std::string sizes_json(const std::vector<std::size_t>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(xs[i]);
  }
  out.push_back(']');
  return out;
}

std::string rng_json(const RngState& s) {
  std::string out = "{\"s\":[";
  for (std::size_t i = 0; i < 4; ++i) {
    if (i > 0) out.push_back(',');
    out += io::json_quote(io::json_u64(s.s[i]));
  }
  out += "],\"cached\":";
  out += io::json_number(s.cached_normal);
  out += ",\"has_cached\":";
  out += s.has_cached_normal ? "true" : "false";
  out.push_back('}');
  return out;
}

std::vector<Vec> vecs_from(const JsonValue& j) {
  const auto& arr = j.as_array();
  std::vector<Vec> vs;
  vs.reserve(arr.size());
  for (const auto& item : arr) vs.push_back(io::vec_from(item));
  return vs;
}

std::vector<bool> bools_from(const JsonValue& j) {
  const auto& arr = j.as_array();
  std::vector<bool> bs(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    bs[i] = arr[i].as_double() != 0.0;
  }
  return bs;
}

/// Integer field \p key of \p j, refused unless it is an integer in
/// [0, 2^53]; \p context ("snapshot" | "journal record") words the error.
std::size_t size_at(const JsonValue& j, const char* context,
                    const char* key) {
  return io::uint_from(j.at(key), context, key);
}

std::vector<std::size_t> sizes_at(const JsonValue& j, const char* context,
                                  const char* key) {
  const auto& arr = j.at(key).as_array();
  std::vector<std::size_t> xs(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    xs[i] = io::uint_from(arr[i], context, key);
  }
  return xs;
}

RngState rng_from(const JsonValue& j) {
  RngState s;
  const auto& words = j.at("s").as_array();
  EASYBO_REQUIRE(words.size() == 4, "rng state needs four words");
  for (std::size_t i = 0; i < 4; ++i) {
    s.s[i] = io::parse_u64(words[i].as_string());
  }
  const JsonValue& cached = j.at("cached");
  s.cached_normal = cached.is_null()
                        ? std::numeric_limits<double>::quiet_NaN()
                        : cached.as_double();
  s.has_cached_normal = j.at("has_cached").as_bool();
  return s;
}

/// FNV-1a 64-bit over the canonical config string.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

void put(std::string& s, std::string_view key, double v) {
  s.append(key);
  s.push_back('=');
  s += io::json_number(v);
  s.push_back(';');
}

void put(std::string& s, std::string_view key, std::string_view v) {
  s.append(key);
  s.push_back('=');
  s.append(v);
  s.push_back(';');
}

void put_u(std::string& s, std::string_view key, std::uint64_t v) {
  s.append(key);
  s.push_back('=');
  s += io::json_u64(v);
  s.push_back(';');
}

/// The status a journal record names; refuses an unknown name.
sched::EvalStatus status_of(const JournalRecord& rec) {
  using sched::EvalStatus;
  for (const EvalStatus st : {EvalStatus::Ok, EvalStatus::Exception,
                              EvalStatus::Timeout, EvalStatus::NonFinite}) {
    if (rec.status == sched::to_string(st)) return st;
  }
  throw io::CheckpointError("journal corrupted: record " +
                            std::to_string(rec.index) +
                            " carries unknown eval status \"" + rec.status +
                            "\"");
}

}  // namespace

// --- journal record ------------------------------------------------------

std::string JournalRecord::to_payload() const {
  std::string out = "{\"index\":" + std::to_string(index);
  if (suggest) {
    out += ",\"kind\":";
    out += io::json_quote(kSuggestKind);
    out += ",\"tag\":" + std::to_string(tag);
    out += ",\"is_init\":";
    out += is_init ? "true" : "false";
    out += ",\"x\":" + io::json_vec(x);
    out += ",\"submit\":" + io::json_number(submit);
    out += ",\"duration\":" + io::json_number(duration);
    out += ",\"rng\":" + rng_json(rng);
    out.push_back('}');
    return out;
  }
  // Eval records carry no "kind": their bytes are the v1 format's.
  out += ",\"tag\":" + std::to_string(tag);
  out += ",\"status\":" + io::json_quote(status);
  out += ",\"action\":" + io::json_quote(action);
  out += ",\"attempts\":" + std::to_string(attempts);
  out += ",\"worker\":" + std::to_string(worker);
  out += ",\"start\":" + io::json_number(start);
  out += ",\"finish\":" + io::json_number(finish);
  out += ",\"is_init\":";
  out += is_init ? "true" : "false";
  out += ",\"x\":" + io::json_vec(x);
  out += ",\"y\":" + io::json_number(y);  // null when NaN
  if (!g.empty()) out += ",\"g\":" + io::json_vec(g);
  if (!error.empty()) out += ",\"error\":" + io::json_quote(error);
  out.push_back('}');
  return out;
}

JournalRecord JournalRecord::parse(const std::string& payload) {
  const JsonValue j = io::parse_json(payload);
  constexpr const char* kRecord = "journal record";
  JournalRecord r;
  r.index = size_at(j, kRecord, "index");
  r.tag = size_at(j, kRecord, "tag");
  r.is_init = j.at("is_init").as_bool();
  r.x = io::vec_from(j.at("x"));
  if (const JsonValue* kind = j.find("kind")) {
    if (kind->as_string() != kSuggestKind) {
      throw io::CheckpointError("journal record " + std::to_string(r.index) +
                                " has unknown kind \"" + kind->as_string() +
                                "\"");
    }
    r.suggest = true;
    r.submit = j.at("submit").as_double();
    r.duration = j.at("duration").as_double();
    r.rng = rng_from(j.at("rng"));
    return r;
  }
  r.status = j.at("status").as_string();
  r.action = j.at("action").as_string();
  r.attempts = static_cast<std::uint32_t>(
      io::uint_from(j.at("attempts"), kRecord, "attempts",
                    std::numeric_limits<std::uint32_t>::max()));
  r.worker = size_at(j, kRecord, "worker");
  r.start = j.at("start").as_double();
  r.finish = j.at("finish").as_double();
  const JsonValue& y = j.at("y");
  r.y = y.is_null() ? std::numeric_limits<double>::quiet_NaN()
                    : y.as_double();
  if (const JsonValue* g = j.find("g")) r.g = io::vec_from(*g);
  if (const JsonValue* err = j.find("error")) r.error = err->as_string();
  return r;
}

// --- journal header ------------------------------------------------------

std::string JournalHeader::to_payload() const {
  std::string out = "{\"schema\":";
  out += io::json_quote(schema);
  out += ",\"config_hash\":" + io::json_quote(io::json_u64(config_hash));
  out += ",\"seed\":" + io::json_quote(io::json_u64(seed));
  out.push_back('}');
  return out;
}

JournalHeader JournalHeader::parse(const std::string& payload) {
  const JsonValue j = io::parse_json(payload);
  JournalHeader h;
  h.schema = j.at("schema").as_string();
  if (h.schema != kJournalSchemaV1 && h.schema != kJournalSchemaV2) {
    throw io::CheckpointError("journal schema \"" + h.schema +
                              "\" is not one of the supported \"" +
                              kJournalSchemaV1 + "\" and \"" +
                              kJournalSchemaV2 + "\"");
  }
  h.config_hash = io::parse_u64(j.at("config_hash").as_string());
  h.seed = io::parse_u64(j.at("seed").as_string());
  return h;
}

// --- snapshot ------------------------------------------------------------

std::string BoCheckpoint::to_payload() const {
  std::string out = "{\"schema\":";
  out += io::json_quote(kSnapshotSchema);
  out += ",\"config_hash\":" + io::json_quote(io::json_u64(config_hash));
  out += ",\"journal_count\":" + std::to_string(journal_count);
  out += ",\"now\":" + io::json_number(now);
  out += ",\"busy\":" + io::json_number(busy);
  out += ",\"init_done\":";
  out += init_done ? "true" : "false";
  out += ",\"sync_dirty\":";
  out += sync_dirty ? "true" : "false";
  out += ",\"issued\":" + std::to_string(issued);
  out += ",\"rng\":" + rng_json(rng);
  out += ",\"sup_rng\":" + rng_json(sup_rng);
  out += ",\"obs_x\":" + vecs_json(obs_x);
  out += ",\"obs_y\":" + io::json_vec(obs_y);
  out += ",\"obs_is_init\":" + bools_json(obs_is_init);
  out += ",\"failed_x\":" + vecs_json(failed_x);
  out += ",\"prop_x\":" + vecs_json(prop_x);
  out += ",\"prop_init\":" + bools_json(prop_init);
  out += ",\"prop_submit\":" + io::json_vec(prop_submit);
  out += ",\"prop_duration\":" + io::json_vec(prop_duration);
  out += ",\"pending\":" + sizes_json(pending);
  out += ",\"hc\":[";
  for (std::size_t i = 0; i < hc_histories.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += vecs_json(hc_histories[i]);
  }
  // The retired GP-Hedge state, frozen at the values every remaining
  // acquisition wrote: files stay byte-identical and older readers, which
  // require both keys, still read them. parse() ignores both.
  out += "],\"hedge_gains\":[0,0,0],\"hedge_nominees\":[]";
  out += ",\"next_hyper_refit\":" + std::to_string(next_hyper_refit);
  out += ",\"hyper_refits\":" + std::to_string(hyper_refits);
  out += ",\"gp_log_hyperparams\":" + io::json_vec(gp_log_hyperparams);
  if (!obs_g.empty() || !g_log_hyperparams.empty()) {
    out += ",\"obs_g\":" + vecs_json(obs_g);
    out += ",\"obs_penalized\":" + bools_json(obs_penalized);
    out += ",\"g_log_hyperparams\":" + vecs_json(g_log_hyperparams);
  }
  out.push_back('}');
  return out;
}

BoCheckpoint BoCheckpoint::parse(const std::string& payload) {
  const JsonValue j = io::parse_json(payload);
  const std::string schema = j.at("schema").as_string();
  if (schema != kSnapshotSchema) {
    throw io::CheckpointError("snapshot schema \"" + schema +
                              "\" is not the supported \"" + kSnapshotSchema +
                              "\"");
  }
  constexpr const char* kSnapshot = "snapshot";
  BoCheckpoint c;
  c.config_hash = io::parse_u64(j.at("config_hash").as_string());
  c.journal_count = size_at(j, kSnapshot, "journal_count");
  c.now = j.at("now").as_double();
  c.busy = j.at("busy").as_double();
  c.init_done = j.at("init_done").as_bool();
  // Absent in files written before the field existed: those snapshots
  // were all taken at batch barriers, where the flag is false.
  if (const JsonValue* sd = j.find("sync_dirty")) {
    c.sync_dirty = sd->as_bool();
  }
  c.issued = size_at(j, kSnapshot, "issued");
  c.rng = rng_from(j.at("rng"));
  c.sup_rng = rng_from(j.at("sup_rng"));
  c.obs_x = vecs_from(j.at("obs_x"));
  c.obs_y = io::vec_from(j.at("obs_y"));
  c.obs_is_init = bools_from(j.at("obs_is_init"));
  c.failed_x = vecs_from(j.at("failed_x"));
  c.prop_x = vecs_from(j.at("prop_x"));
  c.prop_init = bools_from(j.at("prop_init"));
  c.prop_submit = io::vec_from(j.at("prop_submit"));
  c.prop_duration = io::vec_from(j.at("prop_duration"));
  c.pending = sizes_at(j, kSnapshot, "pending");
  for (const auto& h : j.at("hc").as_array()) {
    c.hc_histories.push_back(vecs_from(h));
  }
  c.next_hyper_refit = size_at(j, kSnapshot, "next_hyper_refit");
  c.hyper_refits = size_at(j, kSnapshot, "hyper_refits");
  c.gp_log_hyperparams = io::vec_from(j.at("gp_log_hyperparams"));
  if (const JsonValue* g = j.find("obs_g")) c.obs_g = vecs_from(*g);
  if (const JsonValue* p = j.find("obs_penalized")) {
    c.obs_penalized = bools_from(*p);
  }
  if (const JsonValue* h = j.find("g_log_hyperparams")) {
    c.g_log_hyperparams = vecs_from(*h);
  }
  return c;
}

// --- config fingerprint --------------------------------------------------

std::uint64_t config_fingerprint(const BoConfig& config,
                                 const opt::Bounds& bounds,
                                 std::size_t num_constraints) {
  // Removed knobs stay in the string as literals frozen at the values
  // every run hashed while they existed (bucb_kappa, ts_candidates,
  // hedge_eta, async_slot_rotation, pin_hallucinated_mean, the RFF
  // backend's three, the five eval_backoff_* / eval_retry_timeouts values
  // and the eight trainer optimizer constants): checkpoints and sessions
  // written with those values keep their fingerprint and resume, and one
  // written with any other value refuses with "checkpoint config
  // mismatch" instead of splicing two proposal streams.
  // adapt_refit_cadence/adapt_refit_budget are absent: the adaptive
  // schedule is wall-clock driven — never reproducible across machines
  // anyway — and the schedule state itself rides in snapshots via
  // next_hyper_refit, so resume stays coherent.
  std::string s;
  s.reserve(768);
  put(s, "v", kSnapshotSchema);
  put(s, "mode", to_string(config.mode));
  put(s, "acq", to_string(config.acq));
  put(s, "penalize", config.penalize ? "1" : "0");
  put_u(s, "batch", config.batch);
  put_u(s, "init_points", config.init_points);
  put_u(s, "max_sims", config.max_sims);
  put(s, "lambda", config.lambda);
  put(s, "uniform_w", config.uniform_w ? "1" : "0");
  put(s, "lcb_kappa", config.lcb_kappa);
  put(s, "bucb_kappa", 2.0);
  put_u(s, "ts_candidates", 192);
  put(s, "hedge_eta", 1.0);
  put(s, "ei_xi", config.ei_xi);
  put(s, "hc_d", config.hc_d);
  put(s, "hc_n", config.hc_n);
  put_u(s, "refit_every", config.refit_every);
  put(s, "async_slot_rotation", "0");
  put(s, "kernel", config.kernel);
  put(s, "gp_backend", "exact");
  put_u(s, "rff_features", 128);
  put_u(s, "rff_train_subset", 512);
  put(s, "pin_hallucinated_mean", "0");
  put_u(s, "seed", config.seed);
  put(s, "on_eval_failure", to_string(config.on_eval_failure));
  put(s, "eval_timeout", config.eval_timeout);
  put_u(s, "eval_max_retries", config.eval_max_retries);
  put(s, "eval_backoff_init", 0.5);
  put(s, "eval_backoff_factor", 2.0);
  put(s, "eval_backoff_max", 30.0);
  put(s, "eval_backoff_jitter", 0.1);
  put(s, "eval_retry_timeouts", "0");
  put(s, "eval_failure_quantile", config.eval_failure_quantile);
  put(s, "trainer.max_iters", static_cast<double>(config.trainer.max_iters));
  put(s, "trainer.restarts", static_cast<double>(config.trainer.restarts));
  put(s, "trainer.learning_rate", 0.1);
  put(s, "trainer.tol", 1e-5);
  put(s, "trainer.log_sf2_min", std::log(1e-4));
  put(s, "trainer.log_sf2_max", std::log(1e4));
  put(s, "trainer.log_len_min", std::log(5e-3));
  put(s, "trainer.log_len_max", std::log(1e2));
  put(s, "trainer.log_noise_min", std::log(1e-8));
  put(s, "trainer.log_noise_max", std::log(1e-1));
  put_u(s, "acq_opt.sobol_candidates", config.acq_opt.sobol_candidates);
  put_u(s, "acq_opt.random_candidates", config.acq_opt.random_candidates);
  put_u(s, "acq_opt.anchor_jitter", config.acq_opt.anchor_jitter);
  put(s, "acq_opt.jitter_scale", config.acq_opt.jitter_scale);
  put_u(s, "acq_opt.refine_top_k", config.acq_opt.refine_top_k);
  put_u(s, "acq_opt.refine_evals", config.acq_opt.refine_evals);
  put(s, "bounds.lower", io::json_vec(bounds.lower));
  put(s, "bounds.upper", io::json_vec(bounds.upper));
  if (num_constraints > 0) put_u(s, "constraints", num_constraints);
  return fnv1a(s);
}

std::string journal_file(const std::string& base) {
  return base + ".journal";
}

std::string snapshot_file(const std::string& base) {
  return base + ".snapshot";
}

// --- resume checks -------------------------------------------------------

std::vector<JournalRecord> checked_journal_records(
    const io::JournalReadResult& jr, const std::string& jpath,
    std::uint64_t config_hash, const char* owner) {
  if (jr.payloads.empty()) {
    throw io::CheckpointError("cannot resume: journal at " + jpath +
                              " holds no intact header line");
  }
  const JournalHeader header = JournalHeader::parse(jr.payloads.front());
  if (header.config_hash != config_hash) {
    throw io::CheckpointError(
        "checkpoint config mismatch: journal " + jpath +
        " was written with config fingerprint " +
        io::json_u64(header.config_hash) + " but this " + owner +
        " is configured with fingerprint " + io::json_u64(config_hash) +
        "; resuming would splice two different proposal streams");
  }
  std::vector<JournalRecord> records;
  records.reserve(jr.payloads.size() - 1);
  for (std::size_t i = 1; i < jr.payloads.size(); ++i) {
    JournalRecord rec = JournalRecord::parse(jr.payloads[i]);
    if (rec.index != records.size()) {
      throw io::CheckpointError(
          "journal corrupted: line " + std::to_string(i + 1) + " of " +
          jpath + " carries record index " + std::to_string(rec.index) +
          " where " + std::to_string(records.size()) + " was expected");
    }
    if (rec.suggest && header.schema == kJournalSchemaV1) {
      throw io::CheckpointError(
          "journal corrupted: line " + std::to_string(i + 1) + " of " +
          jpath + " is a \"" + kSuggestKind + "\" record, which a " +
          kJournalSchemaV1 + " journal cannot hold");
    }
    records.push_back(std::move(rec));
  }
  return records;
}

void check_snapshot(const BoCheckpoint& snap, const std::string& spath,
                    const std::string& jpath, std::size_t journal_records,
                    std::uint64_t config_hash, const char* owner) {
  if (snap.config_hash != config_hash) {
    throw io::CheckpointError(
        "checkpoint config mismatch: snapshot " + spath +
        " was written with config fingerprint " +
        io::json_u64(snap.config_hash) + " but this " + owner +
        " is configured with fingerprint " + io::json_u64(config_hash));
  }
  if (snap.journal_count > journal_records) {
    throw io::CheckpointError(
        "snapshot " + spath + " absorbs " +
        std::to_string(snap.journal_count) + " evaluations but journal " +
        jpath + " holds only " + std::to_string(journal_records) +
        " — the files do not belong to the same run");
  }
}

Outcome replayed_outcome(const JournalRecord& rec, const AskTellCore& core) {
  const std::string record = "record " + std::to_string(rec.index);
  if (rec.x != core.proposal(rec.tag)) {
    throw io::CheckpointError(
        "journal " + record +
        " does not match this configuration's proposal stream "
        "(evaluation " + std::to_string(rec.tag) +
        " replays to a different point) — was the journal written by a "
        "different configuration or code version?");
  }
  Outcome o;
  o.status = status_of(rec);
  if (o.status == sched::EvalStatus::Ok) {
    if (rec.g.size() != core.num_constraints()) {
      throw io::CheckpointError(
          "journal corrupted: " + record + " carries " +
          std::to_string(rec.g.size()) + " constraint values for a run with " +
          std::to_string(core.num_constraints()) + " constraints");
    }
    o.value = rec.y;
    o.g = rec.g;
  } else {
    o.value = std::numeric_limits<double>::quiet_NaN();
  }
  o.attempts = rec.attempts;
  o.worker = rec.worker;
  o.start = rec.start;
  o.finish = rec.finish;
  o.error = rec.error;
  o.replayed = true;
  return o;
}

}  // namespace easybo::bo
