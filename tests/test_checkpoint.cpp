// Tests for the crash-safe run subsystem (bo/checkpoint + io/journal +
// the engine's resume path): CRC-framed JSONL round trips, the 50-seed
// snapshot/RNG serialization regression, corruption handling (torn tail
// tolerated, interior damage and config mismatches refused with the
// documented messages), and the headline guarantee — a run killed at an
// arbitrary evaluation and resumed produces the same proposal sequence
// as the uninterrupted run, on both executor backends.

#include "bo/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bo/constrained.h"
#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/rng.h"
#include "io/journal.h"
#include "io/json.h"
#include "serve/host.h"
#include "serve/session.h"
#include "serve/session_config.h"

namespace easybo::bo {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Small, fast engine configuration shared by the run-level tests.
BoConfig quick(Mode mode, std::size_t batch, std::uint64_t seed) {
  BoConfig c;
  c.mode = mode;
  c.acq = AcqKind::EasyBo;
  c.penalize = true;
  c.batch = batch;
  c.init_points = 8;
  c.max_sims = 24;
  c.seed = seed;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  return c;
}

/// Varying virtual durations so async completions genuinely interleave.
double varied_sim_time(const Vec& x) {
  return 0.6 + 0.05 * std::abs(x[0]);
}

/// Checkpoint base under the test temp dir, with any files from a
/// previous run of the same test removed.
std::string fresh_base(const std::string& name) {
  const std::string base = ::testing::TempDir() + "easybo_ckpt_" + name;
  std::remove(journal_file(base).c_str());
  std::remove(snapshot_file(base).c_str());
  std::remove((snapshot_file(base) + ".old").c_str());
  return base;
}

/// FNV-1a 64 over the bytes of the journal, then the snapshot, under
/// checkpoint base \p base.
std::uint64_t durable_bytes_hash(const std::string& base) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::string& path : {journal_file(base), snapshot_file(base)}) {
    for (const char c : io::read_file(path)) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// The equivalence the subsystem promises: identical proposal sequence,
/// outcomes and virtual times. Worker attribution is deliberately NOT
/// compared — a resumed run re-submits in-flight work to a fresh idle
/// pool, which may hand out different (equally idle) worker ids without
/// affecting any proposal (docs/checkpoint-format.md).
void expect_same_run(const BoResult& a, const BoResult& b) {
  ASSERT_EQ(a.num_evals(), b.num_evals());
  for (std::size_t i = 0; i < a.num_evals(); ++i) {
    EXPECT_EQ(a.evals[i].x, b.evals[i].x) << "eval " << i;
    if (std::isnan(a.evals[i].y)) {  // a discarded failure
      EXPECT_TRUE(std::isnan(b.evals[i].y)) << "eval " << i;
    } else {
      EXPECT_DOUBLE_EQ(a.evals[i].y, b.evals[i].y) << "eval " << i;
    }
    EXPECT_DOUBLE_EQ(a.evals[i].start, b.evals[i].start) << "eval " << i;
    EXPECT_DOUBLE_EQ(a.evals[i].finish, b.evals[i].finish) << "eval " << i;
    EXPECT_EQ(a.evals[i].is_init, b.evals[i].is_init) << "eval " << i;
    EXPECT_EQ(a.evals[i].failed, b.evals[i].failed) << "eval " << i;
    EXPECT_EQ(a.evals[i].g, b.evals[i].g) << "eval " << i;
  }
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_DOUBLE_EQ(a.best_y, b.best_y);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_NEAR(a.total_sim_time, b.total_sim_time, 1e-9);
}

/// Runs \p cfg journaled under \p base in a forked child whose objective
/// calls std::_Exit on its \p kill_at_call-th invocation — a SIGKILL
/// stand-in landing at an arbitrary point mid-run, with whatever journal
/// and snapshot exist at that instant left behind for the parent.
void run_and_kill(const BoConfig& cfg, const circuit::TestFunction& tf,
                  const std::string& base, int kill_at_call,
                  const std::vector<Constraint>& constraints = {}) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    int calls = 0;
    auto lethal = [&calls, &tf, kill_at_call](const Vec& x) -> double {
      if (++calls == kill_at_call) std::_Exit(0);
      return tf.fn(x);
    };
    BoConfig child_cfg = cfg;
    child_cfg.checkpoint_path = base;
    try {
      BoEngine engine(child_cfg, tf.bounds, lethal, varied_sim_time,
                      constraints);
      engine.run();
    } catch (...) {
      std::_Exit(9);
    }
    std::_Exit(7);  // ran to completion: the kill point never hit
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child was expected to die mid-run";
}

// ---------------------------------------------------------------------------
// CRC framing and journal file reading
// ---------------------------------------------------------------------------

TEST(JournalFraming, RoundTripAndCorruptionDetection) {
  const std::string payload = R"({"k":"v","n":1})";
  const std::string line = io::frame_line(payload);
  ASSERT_GE(line.size(), 10u);
  EXPECT_EQ(line[8], ' ');

  std::string back;
  ASSERT_TRUE(io::unframe_line(line, back));
  EXPECT_EQ(back, payload);

  // Any single flipped byte — checksum or payload — fails verification.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{11}}) {
    std::string damaged = line;
    damaged[pos] = damaged[pos] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(io::unframe_line(damaged, back)) << "pos " << pos;
  }
  EXPECT_FALSE(io::unframe_line("short", back));
}

TEST(JournalFraming, TornTailIsToleratedInteriorDamageIsNot) {
  const std::string path = ::testing::TempDir() + "easybo_torn.journal";
  const std::string a = io::frame_line("alpha") + "\n";
  const std::string b = io::frame_line("beta") + "\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << a << b << "deadbeef {\"trunc";  // crash mid-append: no newline
  }
  const io::JournalReadResult r = io::read_journal(path);
  ASSERT_EQ(r.payloads.size(), 2u);
  EXPECT_EQ(r.payloads[0], "alpha");
  EXPECT_EQ(r.payloads[1], "beta");
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.valid_bytes, a.size() + b.size());

  // The same damage in the interior is not a torn tail: refuse loudly.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << a << "deadbeef {\"corrupt\"}\n" << b;
  }
  try {
    io::read_journal(path);
    FAIL() << "interior corruption must throw";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("journal corrupted: line 2"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serialization round trips
// ---------------------------------------------------------------------------

TEST(JournalRecordJson, RoundTripsEveryField) {
  JournalRecord rec;
  rec.index = 17;
  rec.tag = 23;
  rec.status = "exception";
  rec.action = "penalized";
  rec.attempts = 3;
  rec.worker = 2;
  rec.start = 1.2500000000000004;  // not representable in few digits
  rec.finish = 3.7000000000000011;
  rec.is_init = true;
  rec.x = {0.125, 0.98765432109876543, 1.0};
  rec.y = std::numeric_limits<double>::quiet_NaN();
  rec.error = "simulator said \"no\"\\core dumped";

  const JournalRecord back = JournalRecord::parse(rec.to_payload());
  EXPECT_EQ(back.index, rec.index);
  EXPECT_EQ(back.tag, rec.tag);
  EXPECT_EQ(back.status, rec.status);
  EXPECT_EQ(back.action, rec.action);
  EXPECT_EQ(back.attempts, rec.attempts);
  EXPECT_EQ(back.worker, rec.worker);
  EXPECT_EQ(back.start, rec.start);    // bit-identical, not just near
  EXPECT_EQ(back.finish, rec.finish);
  EXPECT_EQ(back.is_init, rec.is_init);
  EXPECT_EQ(back.x, rec.x);
  EXPECT_TRUE(std::isnan(back.y));     // NaN travels as JSON null
  EXPECT_EQ(back.error, rec.error);

  EXPECT_TRUE(back.g.empty());
  // Constraint values are written only when the record carries some.
  EXPECT_EQ(rec.to_payload().find("\"g\""), std::string::npos);

  rec.y = -123.456789012345678;
  rec.g = {-0.5, 1.0000000000000002e-17, 3.25};
  rec.error.clear();
  const JournalRecord ok = JournalRecord::parse(rec.to_payload());
  EXPECT_EQ(ok.y, rec.y);
  EXPECT_EQ(ok.g, rec.g);
  EXPECT_TRUE(ok.error.empty());
}

TEST(JournalRecordJson, SuggestRecordRoundTripsAndUnknownKindsAreRefused) {
  JournalRecord rec;
  rec.index = 9;
  rec.suggest = true;
  rec.tag = 4;
  rec.is_init = false;
  rec.x = {0.1, 0.30000000000000004};
  rec.submit = 3.0;
  rec.duration = 1.2500000000000004;
  Rng rng(77);
  (void)rng.normal(0.0, 1.0);  // leaves a cached normal behind
  rec.rng = rng.save();

  const std::string payload = rec.to_payload();
  EXPECT_EQ(payload.rfind("{\"index\":9,\"kind\":\"suggest\",", 0), 0u)
      << payload;
  const JournalRecord back = JournalRecord::parse(payload);
  EXPECT_TRUE(back.suggest);
  EXPECT_EQ(back.index, rec.index);
  EXPECT_EQ(back.tag, rec.tag);
  EXPECT_EQ(back.is_init, rec.is_init);
  EXPECT_EQ(back.x, rec.x);
  EXPECT_EQ(back.submit, rec.submit);
  EXPECT_EQ(back.duration, rec.duration);
  Rng restored(1);
  restored.load(back.rng);
  EXPECT_EQ(restored.normal(0.0, 1.0), rng.normal(0.0, 1.0));
  EXPECT_EQ(restored.uniform(), rng.uniform());

  // Eval records carry no kind, so their bytes stay the v1 format's.
  EXPECT_FALSE(JournalRecord::parse(R"({"index":0,"tag":0,"status":"ok",)"
                                    R"("action":"observed","attempts":1,)"
                                    R"("worker":0,"start":0,"finish":1,)"
                                    R"("is_init":true,"x":[0.5],"y":1})")
                   .suggest);
  std::string foreign = payload;
  foreign.replace(foreign.find("suggest"), 7, "observe");
  EXPECT_THROW(JournalRecord::parse(foreign), io::CheckpointError);
}

/// The easybo::Error message \p parse throws on \p payload; empty when it
/// parses.
template <class Parse>
std::string parse_error(const Parse& parse, const std::string& payload) {
  try {
    (void)parse(payload);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// \p payload with its one occurrence of \p from replaced by \p to.
std::string with_field(std::string payload, const std::string& from,
                       const std::string& to) {
  const std::size_t pos = payload.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) payload.replace(pos, from.size(), to);
  return payload;
}

// Every integer of the journal and snapshot schemas is read through one
// checked reader: a negative, fractional or out-of-range value in a file
// whose checksum holds is refused naming its field, never cast (undefined
// behaviour) into a count.
TEST(CheckpointJson, RefusesMalformedIntegersNamingTheField) {
  BoCheckpoint snap;
  snap.rng = Rng(1).save();
  snap.sup_rng = Rng(2).save();
  snap.journal_count = 2;
  snap.issued = 4;
  snap.pending = {3};
  const std::string good = snap.to_payload();
  const auto parse_snap = [](const std::string& p) {
    return BoCheckpoint::parse(p);
  };
  EXPECT_EQ(parse_error(parse_snap, good), "");
  const struct {
    const char* from;
    const char* to;
    const char* field;
  } snap_cases[] = {
      {"\"issued\":4", "\"issued\":-1", "\"issued\""},
      {"\"issued\":4", "\"issued\":1.5", "\"issued\""},
      {"\"pending\":[3]", "\"pending\":[-3]", "\"pending\""},
      {"\"journal_count\":2", "\"journal_count\":1e300",
       "\"journal_count\""},
  };
  for (const auto& c : snap_cases) {
    const std::string error =
        parse_error(parse_snap, with_field(good, c.from, c.to));
    EXPECT_NE(error.find(c.field), std::string::npos)
        << c.to << " -> \"" << error << "\"";
  }

  JournalRecord rec;
  rec.status = "ok";
  rec.action = "observed";
  rec.x = {0.5};
  rec.y = 1.0;
  const std::string line = rec.to_payload();
  const auto parse_rec = [](const std::string& p) {
    return JournalRecord::parse(p);
  };
  EXPECT_NE(parse_error(parse_rec, with_field(line, "\"attempts\":1",
                                              "\"attempts\":-2"))
                .find("\"attempts\""),
            std::string::npos);
  // attempts is a uint32_t: 2^32 - 1 is the largest it holds.
  EXPECT_NE(parse_error(parse_rec, with_field(line, "\"attempts\":1",
                                              "\"attempts\":4294967296"))
                .find("\"attempts\""),
            std::string::npos);
  EXPECT_EQ(JournalRecord::parse(with_field(line, "\"attempts\":1",
                                            "\"attempts\":4294967295"))
                .attempts,
            4294967295u);
  EXPECT_NE(
      parse_error(parse_rec, with_field(line, "\"tag\":0", "\"tag\":0.5"))
          .find("\"tag\""),
      std::string::npos);
}

// Every 64-bit decimal — journal and snapshot words, the session config's
// seed, the command-line integer flags — goes through one strict reader.
TEST(ParseU64, AcceptsOnlyPlainDecimalDigits) {
  EXPECT_EQ(io::parse_u64("0"), 0u);
  EXPECT_EQ(io::parse_u64("18446744073709551615"), 18446744073709551615ull);
  for (const char* bad : {"-1", " 7", "+7", "7 ", "", "18446744073709551616"}) {
    SCOPED_TRACE(std::string("\"") + bad + "\"");
    try {
      (void)io::parse_u64(bad);
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      // A plain message quoting the input, not a precondition report.
      EXPECT_NE(std::string(e.what()).find(std::string("\"") + bad + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JournalHeaderJson, ReadsBothVersionsAndWritesTheOneItNames) {
  JournalHeader h;
  EXPECT_EQ(h.schema, std::string(kJournalSchemaV2));  // what both write
  h.config_hash = 42;
  EXPECT_NE(h.to_payload().find("\"easybo.journal.v2\""), std::string::npos);
  h.schema = kJournalSchemaV1;
  EXPECT_NE(h.to_payload().find("\"easybo.journal.v1\""), std::string::npos);
  EXPECT_EQ(JournalHeader::parse(h.to_payload()).schema,
            std::string(kJournalSchemaV1));
}

TEST(JournalHeaderJson, RoundTripsAndRejectsForeignSchemas) {
  JournalHeader h;
  h.schema = "easybo.journal.v1";
  h.config_hash = 0xDEADBEEFCAFEF00Dull;  // needs full 64-bit fidelity
  h.seed = 0xFFFFFFFFFFFFFFFFull;
  const JournalHeader back = JournalHeader::parse(h.to_payload());
  EXPECT_EQ(back.config_hash, h.config_hash);
  EXPECT_EQ(back.seed, h.seed);

  EXPECT_THROW(JournalHeader::parse(R"({"schema":"easybo.journal.v9"})"),
               io::CheckpointError);
  EXPECT_THROW(BoCheckpoint::parse(h.to_payload()), io::CheckpointError);
}

TEST(BoCheckpointJson, RoundTripsBitIdenticalAcross50Seeds) {
  // The snapshot is the run's full durable state; any field that fails
  // to round-trip bit-identically silently forks the proposal stream on
  // resume. Fuzz the whole struct from 50 seeds.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng fuzz(seed);
    auto rvec = [&fuzz](std::size_t n) {
      Vec v(n);
      for (double& e : v) e = fuzz.normal() * 1e3;
      return v;
    };

    BoCheckpoint snap;
    snap.config_hash = fuzz();
    snap.journal_count = seed * 3;
    snap.now = fuzz.normal() * 100.0;
    snap.busy = fuzz.uniform() * 500.0;
    snap.init_done = seed % 2 == 0;
    snap.issued = seed + 5;
    Rng prop_stream(seed * 7 + 1);
    for (std::uint64_t i = 0; i < seed % 5; ++i) (void)prop_stream.normal();
    snap.rng = prop_stream.save();
    Rng jitter_stream(seed * 13 + 2);
    snap.sup_rng = jitter_stream.save();
    const std::size_t n_obs = 1 + seed % 4;
    for (std::size_t i = 0; i < n_obs; ++i) snap.obs_x.push_back(rvec(3));
    snap.obs_y = rvec(n_obs);
    for (std::size_t i = 0; i < n_obs; ++i) {
      snap.obs_is_init.push_back(fuzz.uniform() < 0.5);
    }
    if (seed % 3 == 0) snap.failed_x.push_back(rvec(3));
    for (std::size_t i = 0; i < n_obs + 2; ++i) {
      snap.prop_x.push_back(rvec(3));
      snap.prop_init.push_back(i < 2);
      snap.prop_submit.push_back(fuzz.uniform() * 50.0);
      snap.prop_duration.push_back(fuzz.uniform() + 0.1);
    }
    snap.pending = {n_obs, n_obs + 1};
    if (seed % 4 == 0) {
      snap.hc_histories.push_back({rvec(3), rvec(3)});
      snap.hc_histories.push_back({});
    }
    snap.next_hyper_refit = seed + 10;
    snap.hyper_refits = seed / 3;
    snap.gp_log_hyperparams = seed % 2 == 0 ? rvec(4) : Vec{};
    const bool constrained = seed % 3 == 1;
    if (constrained) {
      for (std::size_t i = 0; i < n_obs; ++i) {
        snap.obs_g.push_back(rvec(2));
        snap.obs_penalized.push_back(i % 2 == 1);
      }
      snap.g_log_hyperparams = {rvec(4), rvec(4)};
    }

    const std::string payload = snap.to_payload();
    EXPECT_EQ(payload.find("obs_g") != std::string::npos, constrained);
    const BoCheckpoint back = BoCheckpoint::parse(payload);
    EXPECT_EQ(back.config_hash, snap.config_hash);
    EXPECT_EQ(back.journal_count, snap.journal_count);
    EXPECT_EQ(back.now, snap.now);
    EXPECT_EQ(back.busy, snap.busy);
    EXPECT_EQ(back.init_done, snap.init_done);
    EXPECT_EQ(back.issued, snap.issued);
    EXPECT_EQ(back.rng, snap.rng);
    EXPECT_EQ(back.sup_rng, snap.sup_rng);
    EXPECT_EQ(back.obs_x, snap.obs_x);
    EXPECT_EQ(back.obs_y, snap.obs_y);
    EXPECT_EQ(back.obs_is_init, snap.obs_is_init);
    EXPECT_EQ(back.failed_x, snap.failed_x);
    EXPECT_EQ(back.prop_x, snap.prop_x);
    EXPECT_EQ(back.prop_init, snap.prop_init);
    EXPECT_EQ(back.prop_submit, snap.prop_submit);
    EXPECT_EQ(back.prop_duration, snap.prop_duration);
    EXPECT_EQ(back.pending, snap.pending);
    EXPECT_EQ(back.hc_histories, snap.hc_histories);
    EXPECT_EQ(back.next_hyper_refit, snap.next_hyper_refit);
    EXPECT_EQ(back.hyper_refits, snap.hyper_refits);
    EXPECT_EQ(back.gp_log_hyperparams, snap.gp_log_hyperparams);
    EXPECT_EQ(back.obs_g, snap.obs_g);
    EXPECT_EQ(back.obs_penalized, snap.obs_penalized);
    EXPECT_EQ(back.g_log_hyperparams, snap.g_log_hyperparams);

    // The restored RNG continues the stream bit for bit.
    Rng restored(1);
    restored.load(back.rng);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(restored(), prop_stream()) << "seed " << seed;
    }
  }
}

TEST(ConfigFingerprint, SeparatesStreamsIgnoresDurabilityKnobs) {
  const auto tf = easybo::circuit::branin();
  const BoConfig base_cfg = quick(Mode::AsyncBatch, 4, 11);
  const std::uint64_t fp = config_fingerprint(base_cfg, tf.bounds);
  EXPECT_EQ(fp, config_fingerprint(base_cfg, tf.bounds));  // stable

  BoConfig other = base_cfg;
  other.seed = 12;
  EXPECT_NE(config_fingerprint(other, tf.bounds), fp);
  other = base_cfg;
  other.batch = 5;
  EXPECT_NE(config_fingerprint(other, tf.bounds), fp);
  other = base_cfg;
  other.lambda += 0.5;
  EXPECT_NE(config_fingerprint(other, tf.bounds), fp);

  opt::Bounds shifted = tf.bounds;
  shifted.upper[0] += 1.0;
  EXPECT_NE(config_fingerprint(base_cfg, shifted), fp);

  // The durability knob never shapes proposals.
  other = base_cfg;
  other.checkpoint_path = "/somewhere/else";
  EXPECT_EQ(config_fingerprint(other, tf.bounds), fp);
}

// One row per field: changing any field the fingerprint hashes must move
// it, and changing a field it leaves out must not. The two tables name
// all 24 BoConfig fields (trainer and acq_opt by their members), so a
// hashed field dropped from the canonical string, or a durability knob
// added to it, fails here.
TEST(ConfigFingerprint, MovesWithEveryHashedFieldAndNoOther) {
  using Edit = std::function<void(BoConfig&)>;
  const std::vector<std::pair<const char*, Edit>> hashed = {
      {"mode", [](BoConfig& c) { c.mode = Mode::SyncBatch; }},
      {"acq", [](BoConfig& c) { c.acq = AcqKind::Bucb; }},
      {"penalize", [](BoConfig& c) { c.penalize = false; }},
      {"batch", [](BoConfig& c) { c.batch = 6; }},
      {"init_points", [](BoConfig& c) { c.init_points = 21; }},
      {"max_sims", [](BoConfig& c) { c.max_sims = 151; }},
      {"lambda", [](BoConfig& c) { c.lambda = 6.5; }},
      {"uniform_w", [](BoConfig& c) { c.uniform_w = true; }},
      {"lcb_kappa", [](BoConfig& c) { c.lcb_kappa = 2.5; }},
      {"ei_xi", [](BoConfig& c) { c.ei_xi = 0.01; }},
      {"hc_d", [](BoConfig& c) { c.hc_d = 0.2; }},
      {"hc_n", [](BoConfig& c) { c.hc_n = 2.0; }},
      {"refit_every", [](BoConfig& c) { c.refit_every = 6; }},
      {"kernel", [](BoConfig& c) { c.kernel = "matern52"; }},
      {"seed", [](BoConfig& c) { c.seed = 2; }},
      {"on_eval_failure",
       [](BoConfig& c) { c.on_eval_failure = EvalFailurePolicy::Discard; }},
      {"eval_timeout", [](BoConfig& c) { c.eval_timeout = 1.0; }},
      {"eval_max_retries", [](BoConfig& c) { c.eval_max_retries = 1; }},
      {"eval_failure_quantile",
       [](BoConfig& c) { c.eval_failure_quantile = 0.5; }},
      {"trainer.max_iters", [](BoConfig& c) { c.trainer.max_iters += 1; }},
      {"trainer.restarts", [](BoConfig& c) { c.trainer.restarts += 1; }},
      {"acq_opt.sobol_candidates",
       [](BoConfig& c) { c.acq_opt.sobol_candidates += 1; }},
      {"acq_opt.random_candidates",
       [](BoConfig& c) { c.acq_opt.random_candidates += 1; }},
      {"acq_opt.anchor_jitter",
       [](BoConfig& c) { c.acq_opt.anchor_jitter += 1; }},
      {"acq_opt.jitter_scale",
       [](BoConfig& c) { c.acq_opt.jitter_scale *= 2.0; }},
      {"acq_opt.refine_top_k",
       [](BoConfig& c) { c.acq_opt.refine_top_k += 1; }},
      {"acq_opt.refine_evals",
       [](BoConfig& c) { c.acq_opt.refine_evals += 1; }},
  };
  const std::vector<std::pair<const char*, Edit>> ignored = {
      {"checkpoint_path", [](BoConfig& c) { c.checkpoint_path = "/x"; }},
      {"adapt_refit_cadence",
       [](BoConfig& c) { c.adapt_refit_cadence = true; }},
      {"adapt_refit_budget",
       [](BoConfig& c) { c.adapt_refit_budget = 0.5; }},
  };
  ASSERT_EQ(hashed.size(), 19u + 2u + 6u);

  const auto tf = easybo::circuit::branin();
  const std::uint64_t fp = config_fingerprint(BoConfig{}, tf.bounds);
  for (const auto& [field, edit] : hashed) {
    BoConfig c;
    edit(c);
    EXPECT_NE(config_fingerprint(c, tf.bounds), fp) << field;
  }
  for (const auto& [field, edit] : ignored) {
    BoConfig c;
    edit(c);
    EXPECT_EQ(config_fingerprint(c, tf.bounds), fp) << field;
  }
}

// Every checkpoint and served session on disk is bound to its config by
// this hash, so the canonical string must never drift. Pinned to the
// value the fingerprint had while BoConfig still carried the RFF knobs
// (gp_backend / rff_features / rff_train_subset) and the ts_candidates /
// hedge_eta / async_slot_rotation / pin_hallucinated_mean knobs, all now
// hashed as frozen literals: dropping those lines fails here instead of
// orphaning every existing checkpoint.
TEST(ConfigFingerprint, MatchesValuesFromBeforeTheBackendRemoval) {
  const auto tf = easybo::circuit::branin();
  const std::uint64_t plain = config_fingerprint(BoConfig{}, tf.bounds);
  EXPECT_EQ(plain, 6662251224650069979ull);
}

// The constraint count is hashed only when there is at least one
// constraint: every unconstrained fingerprint keeps its value.
TEST(ConfigFingerprint, HashesTheConstraintCountOnlyWhenConstrained) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg;
  EXPECT_EQ(config_fingerprint(cfg, tf.bounds, 0), 6662251224650069979ull);
  const std::uint64_t one = config_fingerprint(cfg, tf.bounds, 1);
  EXPECT_NE(one, config_fingerprint(cfg, tf.bounds, 0));
  EXPECT_NE(one, config_fingerprint(cfg, tf.bounds, 2));
}

// ---------------------------------------------------------------------------
// Run-level guarantees
// ---------------------------------------------------------------------------

// The files a run leaves behind are a durable format: older binaries
// read what newer ones write. Every journal line and the last snapshot
// of a journaled engine run and of a hosted session are pinned here,
// including the frozen fields of retired knobs (docs/checkpoint-format.md),
// so a change that moves one byte fails instead of passing unnoticed.
TEST(Checkpointing, DurableBytesMatchPinnedHash) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 3);
  cfg.max_sims = 40;
  cfg.checkpoint_path = fresh_base("pinned_bytes");
  BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
  // Re-pinned when the core took over the engine's snapshots: an
  // AsyncBatch snapshot now sits right after its refit, before the
  // suggestions that refill the pool, and "busy" is a frozen 0. The
  // journal bytes did not move.
  EXPECT_EQ(durable_bytes_hash(cfg.checkpoint_path), 3230861479316508857ull);

  // A hosted session: the initial design observed, then 12 turns that
  // each suggest with one point in flight and observe the oldest.
  const std::string dir = ::testing::TempDir() + "easybo_ckpt_pinned_host";
  std::filesystem::remove_all(dir);
  BoConfig scfg = quick(Mode::AsyncBatch, 2, 5);
  scfg.init_points = 4;
  scfg.max_sims = 20;
  scfg.on_eval_failure = EvalFailurePolicy::Discard;
  serve::SessionHost host(dir, 4);
  ASSERT_EQ(host.handle_line("NEW s " +
                             serve::session_config_json(scfg, tf.bounds)),
            "OK created s");
  std::deque<std::pair<std::size_t, double>> fly;  // tag, objective value
  const auto suggest = [&] {
    const std::string reply = host.handle_line("SUGGEST s");
    ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
    const io::JsonValue j = io::parse_json(reply.substr(3));
    Vec x;
    for (const auto& v : j.at("x").as_array()) x.push_back(v.as_double());
    fly.emplace_back(static_cast<std::size_t>(j.at("tag").as_double()),
                     tf.fn(x));
  };
  const auto observe_oldest = [&] {
    const auto [tag, y] = fly.front();
    fly.pop_front();
    const std::string reply = host.handle_line(
        "OBSERVE s " + std::to_string(tag) + " " + io::json_number(y));
    ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  };
  for (std::size_t i = 0; i < scfg.init_points; ++i) suggest();
  while (!fly.empty()) observe_oldest();
  suggest();
  for (int turn = 0; turn < 12; ++turn) {
    suggest();
    observe_oldest();
  }
  observe_oldest();
  EXPECT_EQ(durable_bytes_hash(dir + "/s"), 1896373974308966847ull);
}

TEST(Checkpointing, JournalingItselfChangesNothing) {
  const auto tf = easybo::circuit::branin();
  const BoConfig plain = quick(Mode::AsyncBatch, 4, 21);
  const BoResult ref =
      BoEngine(plain, tf.bounds, tf.fn, varied_sim_time).run();

  BoConfig journaled = plain;
  journaled.checkpoint_path = fresh_base("noop");
  const BoResult r =
      BoEngine(journaled, tf.bounds, tf.fn, varied_sim_time).run();
  expect_same_run(ref, r);
  // Here even worker ids must match: nothing was re-submitted.
  for (std::size_t i = 0; i < ref.num_evals(); ++i) {
    EXPECT_EQ(ref.evals[i].worker, r.evals[i].worker);
  }
  EXPECT_TRUE(io::file_exists(journal_file(journaled.checkpoint_path)));
  EXPECT_TRUE(io::file_exists(snapshot_file(journaled.checkpoint_path)));
}

TEST(Checkpointing, KillAndResumeMatchesUninterruptedAsync) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 11);
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  for (const int kill_at : {3, 9, 17}) {
    const std::string base =
        fresh_base("kill_async_" + std::to_string(kill_at));
    run_and_kill(cfg, tf, base, kill_at);
    BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
    const BoResult r = engine.resume(base);
    expect_same_run(ref, r);
    EXPECT_FALSE(r.resume_note.empty());
    EXPECT_FALSE(r.interrupted);
  }
}

TEST(Checkpointing, KillAndResumeMatchesUninterruptedSyncAndSequential) {
  const auto tf = easybo::circuit::branin();
  struct Case {
    Mode mode;
    std::size_t batch;
    int kill_at;
  };
  for (const Case c : {Case{Mode::SyncBatch, 4, 13},
                       Case{Mode::Sequential, 1, 12}}) {
    const BoConfig cfg = quick(c.mode, c.batch, 31);
    const BoResult ref =
        BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
    const std::string base =
        fresh_base("kill_mode_" + std::to_string(int(c.mode)));
    run_and_kill(cfg, tf, base, c.kill_at);
    BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
    expect_same_run(ref, engine.resume(base));
  }
}

TEST(Checkpointing, KillAndResumeWithSparseSnapshots) {
  // Snapshots sit only at refit points, so the kill lands many journal
  // lines past the last one and resume applies a real tail.
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 41);
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
  const std::string base = fresh_base("kill_sparse");
  run_and_kill(cfg, tf, base, 14);
  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  expect_same_run(ref, engine.resume(base));
}

TEST(Checkpointing, KillAndResumeConstrainedMatchesUninterrupted) {
  // A constrained run is an ordinary engine run, so it resumes exactly
  // too: constraint values, constraint models and (under penalize) the
  // penalty pseudo points all come back from the journal and snapshot.
  // The constraint is non-finite where x1 > 12, so evaluations there
  // fail and take the configured policy.
  const auto tf = easybo::circuit::branin();
  const std::vector<Constraint> cons = {
      {"x0+x1<=8", [](const Vec& x) {
         return x[1] > 12.0 ? std::numeric_limits<double>::quiet_NaN()
                            : 8.0 - x[0] - x[1];
       }}};
  struct Case {
    Mode mode;
    std::size_t batch;
    EvalFailurePolicy policy;
    std::vector<int> kills;
  };
  const Case cases[] = {
      {Mode::AsyncBatch, 4, EvalFailurePolicy::Penalize, {3, 9, 17}},
      {Mode::AsyncBatch, 4, EvalFailurePolicy::Discard, {14}},
      {Mode::Sequential, 1, EvalFailurePolicy::Penalize, {12}},
  };
  for (const Case& c : cases) {
    BoConfig cfg = quick(c.mode, c.batch, 61);
    cfg.on_eval_failure = c.policy;
    const BoResult ref =
        BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time, cons).run();
    ASSERT_TRUE(std::any_of(ref.evals.begin(), ref.evals.end(),
                            [](const EvalRecord& e) { return e.failed; }))
        << "the failing region must be visited";
    for (const int kill_at : c.kills) {
      const std::string base =
          fresh_base("kill_constrained_" + std::to_string(int(c.mode)) +
                     "_" + std::to_string(kill_at));
      run_and_kill(cfg, tf, base, kill_at, cons);
      BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time, cons);
      expect_same_run(ref, engine.resume(base));
    }
  }
}

// A kill at any objective call resumes exactly, in every issue mode: the
// journal holds each suggestion before its evaluation starts, and resume
// re-runs what was in flight from its own submit time.
TEST(Checkpointing, KillAtEveryCallResumesExactly) {
  const auto tf = easybo::circuit::branin();
  const std::vector<Constraint> cons = {
      {"x0+x1<=8", [](const Vec& x) {
         return x[1] > 12.0 ? std::numeric_limits<double>::quiet_NaN()
                            : 8.0 - x[0] - x[1];
       }}};
  struct Case {
    const char* name;
    BoConfig cfg;
    std::vector<Constraint> constraints;
  };
  std::vector<Case> cases = {
      {"async", quick(Mode::AsyncBatch, 4, 13), {}},
      {"sync", quick(Mode::SyncBatch, 4, 14), {}},
      {"sequential", quick(Mode::Sequential, 1, 15), {}},
      {"constrained", quick(Mode::AsyncBatch, 4, 16), cons},
      {"phcbo", quick(Mode::SyncBatch, 4, 17), {}},
  };
  cases[3].cfg.on_eval_failure = EvalFailurePolicy::Penalize;
  cases[4].cfg.acq = AcqKind::Phcbo;
  for (const Case& c : cases) {
    const BoResult ref = BoEngine(c.cfg, tf.bounds, tf.fn, varied_sim_time,
                                  c.constraints)
                             .run();
    if (!c.constraints.empty()) {
      ASSERT_TRUE(std::any_of(ref.evals.begin(), ref.evals.end(),
                              [](const EvalRecord& e) { return e.failed; }))
          << "the failing region must be visited";
    }
    for (int kill_at = 1; kill_at <= static_cast<int>(c.cfg.max_sims);
         ++kill_at) {
      SCOPED_TRACE(std::string(c.name) + ", kill at call " +
                   std::to_string(kill_at));
      const std::string base = fresh_base(std::string("every_") + c.name);
      run_and_kill(c.cfg, tf, base, kill_at, c.constraints);
      BoEngine engine(c.cfg, tf.bounds, tf.fn, varied_sim_time,
                      c.constraints);
      expect_same_run(ref, engine.resume(base));
    }
  }
}

/// Branin whose FIRST call at a point throws wherever floor(1000 |x0|) is
/// odd: a transient simulator crash that one retry recovers. The memory
/// of which points crashed is per instance, as it is per process, so
/// every run and every resume takes a fresh one.
circuit::TestFunction flaky_branin() {
  circuit::TestFunction tf = circuit::branin();
  auto crashed = std::make_shared<std::set<double>>();
  tf.fn = [branin = tf.fn, crashed](const Vec& x) {
    if (static_cast<long>(std::floor(1000.0 * std::abs(x[0]))) % 2 == 1 &&
        crashed->insert(x[0]).second) {
      throw std::runtime_error("transient simulator crash");
    }
    return branin(x);
  };
  return tf;
}

/// What the kills of one resume sweep covered.
struct SweepCounts {
  int kills = 0;            ///< resumed runs, each held to expect_same_run
  int tail_retried = 0;     ///< kills re-running an evaluation mid-retry
  int timeout_resumed = 0;  ///< kills re-running a timeout-destined one
  int drain_resumed = 0;    ///< SyncBatch kills inside a batch's drain
};

/// Kills a flaky-Branin run (\p cfg: B = 4, discard, its mode, retry and
/// timeout settings) at each of the objective calls \p kills on each of
/// the \p seeds, resumes each kill and requires the uninterrupted run,
/// failure statuses and attempt counts included. It also reads the files
/// each kill left behind: the evaluations still pending once the journal
/// tail is applied are the ones the resume re-runs from their submit
/// times. One whose first attempt ended before the last record was
/// retrying at the kill; one longer than the deadline re-runs as a
/// timeout; a last record that is an outcome with work still pending is
/// a SyncBatch run inside a batch's drain.
void resume_sweep(BoConfig cfg, const std::string& name,
                  const std::vector<std::uint64_t>& seeds,
                  const std::vector<int>& kills, SweepCounts& n) {
  for (const std::uint64_t seed : seeds) {
    cfg.seed = seed;
    const circuit::TestFunction ref_tf = flaky_branin();
    const BoResult ref =
        BoEngine(cfg, ref_tf.bounds, ref_tf.fn, varied_sim_time).run();
    for (const int kill_at : kills) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", kill at call " +
                   std::to_string(kill_at));
      const std::string base = fresh_base(name + "_" + std::to_string(seed) +
                                          "_" + std::to_string(kill_at));
      run_and_kill(cfg, flaky_branin(), base, kill_at);

      const BoCheckpoint snap = BoCheckpoint::parse(
          io::read_journal(snapshot_file(base)).payloads.at(0));
      std::map<std::size_t, std::pair<double, double>> pending;  // submit,
      for (const std::size_t tag : snap.pending) {              // duration
        pending[tag] = {snap.prop_submit.at(tag), snap.prop_duration.at(tag)};
      }
      double last = snap.now;
      bool last_outcome = false;
      const io::JournalReadResult jr = io::read_journal(journal_file(base));
      for (std::size_t i = 1 + snap.journal_count; i < jr.payloads.size();
           ++i) {
        const JournalRecord rec = JournalRecord::parse(jr.payloads[i]);
        if (rec.suggest) {
          pending[rec.tag] = {rec.submit, rec.duration};
          last = rec.submit;
        } else {
          pending.erase(rec.tag);
          last = rec.finish;
        }
        last_outcome = !rec.suggest;
      }
      bool retrying = false;
      bool timeout = false;
      for (const auto& [tag, flight] : pending) {
        const auto [submit, duration] = flight;
        const bool cut = cfg.eval_timeout > 0.0 && duration > cfg.eval_timeout;
        retrying |= submit + (cut ? cfg.eval_timeout : duration) < last;
        timeout |= cut;
      }

      const circuit::TestFunction tf = flaky_branin();
      BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
      const BoResult r = engine.resume(base);
      ++n.kills;
      n.tail_retried += retrying;
      n.timeout_resumed += timeout;
      n.drain_resumed += cfg.mode == Mode::SyncBatch && last_outcome &&
                         !pending.empty();
      expect_same_run(ref, r);
      for (std::size_t i = 0; i < std::min(ref.num_evals(), r.num_evals());
           ++i) {
        EXPECT_EQ(ref.evals[i].failure, r.evals[i].failure) << "eval " << i;
        EXPECT_EQ(ref.evals[i].attempts, r.evals[i].attempts) << "eval " << i;
      }
    }
  }
}

TEST(Checkpointing, KillAndResumeWithRetriesMatchesUninterrupted) {
  // Every retry's backoff is a pure function of (seed, tag, retry), so a
  // resume re-draws nothing: an evaluation re-run from its submit time
  // fails, retries and finishes exactly where the uninterrupted run's
  // did, and the busy total of a journaled one is its attempt chain.
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 11);
  cfg.on_eval_failure = EvalFailurePolicy::Discard;
  cfg.eval_max_retries = 2;
  SweepCounts n;
  resume_sweep(cfg, "kill_retries", {11, 12, 13, 14}, {5, 9, 13, 17, 21}, n);
  // On seed 19 a pending evaluation's first attempt fails before the
  // completion that frees the next worker; on seed 21 a journaled
  // evaluation retried after its snapshot. Seed 35 call 21, seed 53 call
  // 17 and seed 54 call 23 diverged while resume refactored a model the
  // live run had extended.
  resume_sweep(cfg, "kill_retries", {19}, {19}, n);
  resume_sweep(cfg, "kill_retries", {21}, {13}, n);
  resume_sweep(cfg, "kill_retries", {35}, {21}, n);
  resume_sweep(cfg, "kill_retries", {53}, {17}, n);
  resume_sweep(cfg, "kill_retries", {54}, {23}, n);
  // A SyncBatch run killed at a retry inside a batch's drain finishes
  // that drain before it issues the next batch.
  BoConfig sync = cfg;
  sync.mode = Mode::SyncBatch;
  resume_sweep(sync, "kill_retries_sync", {11}, {11, 21}, n);
  EXPECT_EQ(n.kills, 27);
  EXPECT_GE(n.tail_retried, 1)
      << "no kill re-ran an evaluation that was retrying";
  EXPECT_EQ(n.drain_resumed, 2);
}

TEST(Checkpointing, KillAndResumeWithTimeoutsMatchesUninterrupted) {
  // A flight cut at its deadline in the original run re-runs from its
  // submit time and still comes back as a timeout at its original finish.
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 11);
  cfg.on_eval_failure = EvalFailurePolicy::Discard;
  cfg.eval_timeout = 0.66;
  SweepCounts n;
  resume_sweep(cfg, "kill_timeouts", {11, 12, 13, 14}, {5, 9, 13, 17, 21}, n);
  EXPECT_EQ(n.kills, 20);
  EXPECT_GE(n.timeout_resumed, 1)
      << "no kill re-ran a timeout-destined evaluation";
}

TEST(Checkpointing, KillAndResumeOnThreadExecutorSequential) {
  // The other executor backend. Sequential keeps the wall-clock
  // completion order deterministic; wall times are loose on resume, so
  // compare the proposal/outcome sequence only.
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::Sequential, 1, 51);

  // The reference executor's worker is joined before fork(): a child
  // forked from a multi-threaded parent may not start threads (TSan
  // refuses it outright).
  const BoResult ref = [&] {
    sched::ThreadExecutor ref_exec(1);
    BoEngine ref_engine(cfg, tf.bounds, tf.fn, nullptr);
    return ref_engine.run(ref_exec);
  }();

  const std::string base = fresh_base("kill_threads");
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    int calls = 0;
    auto lethal = [&calls, &tf](const Vec& x) -> double {
      if (++calls == 10) std::_Exit(0);
      return tf.fn(x);
    };
    BoConfig child_cfg = cfg;
    child_cfg.checkpoint_path = base;
    try {
      sched::ThreadExecutor exec(1);
      BoEngine engine(child_cfg, tf.bounds, lethal, nullptr);
      engine.run(exec);
    } catch (...) {
      std::_Exit(9);
    }
    std::_Exit(7);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  sched::ThreadExecutor exec(1);
  BoEngine engine(cfg, tf.bounds, tf.fn, nullptr);
  const BoResult r = engine.resume(base, exec);
  ASSERT_EQ(r.num_evals(), ref.num_evals());
  for (std::size_t i = 0; i < ref.num_evals(); ++i) {
    EXPECT_EQ(r.evals[i].x, ref.evals[i].x) << "eval " << i;
    EXPECT_DOUBLE_EQ(r.evals[i].y, ref.evals[i].y) << "eval " << i;
  }
  EXPECT_EQ(r.best_x, ref.best_x);
  EXPECT_DOUBLE_EQ(r.best_y, ref.best_y);
}

TEST(Checkpointing, GracefulStopDrainsSavesAndResumes) {
  // A graceful stop is a deliberate deviation from the uninterrupted
  // schedule: the engine stops issuing new work and drains what's in
  // flight, so the resumed run is NOT a bit-replica of the never-stopped
  // run (that guarantee belongs to kill -9, where the pending set is
  // restored with its original submit times — the KillAndResume tests
  // above). What graceful stop + resume must deliver instead: nothing
  // drained is lost, the resumed run extends the partial run exactly,
  // finishes the budget, and the whole stop-then-resume pipeline is
  // deterministic end to end.
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 61);

  auto stop_then_resume = [&](const std::string& base) -> BoResult {
    std::atomic<bool> stop{false};
    std::atomic<int> calls{0};
    auto counting = [&](const Vec& x) -> double {
      if (++calls == 12) stop.store(true);
      return tf.fn(x);
    };
    BoConfig journaled = cfg;
    journaled.checkpoint_path = base;
    BoEngine first(journaled, tf.bounds, counting, varied_sim_time);
    first.set_stop_token(&stop);
    const BoResult partial = first.run();
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.num_evals(), cfg.max_sims);
    EXPECT_GE(partial.num_evals(), 12u);  // in-flight work was drained

    BoEngine second(cfg, tf.bounds, tf.fn, varied_sim_time);
    const BoResult full = second.resume(base);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.num_evals(), cfg.max_sims);
    // Every drained eval survived, in order, bit-identical.
    const std::size_t prefix =
        std::min(full.num_evals(), partial.num_evals());
    for (std::size_t i = 0; i < prefix; ++i) {
      EXPECT_EQ(full.evals[i].x, partial.evals[i].x) << "eval " << i;
      EXPECT_DOUBLE_EQ(full.evals[i].y, partial.evals[i].y) << "eval " << i;
      EXPECT_DOUBLE_EQ(full.evals[i].start, partial.evals[i].start);
      EXPECT_DOUBLE_EQ(full.evals[i].finish, partial.evals[i].finish);
    }
    return full;
  };

  const BoResult a = stop_then_resume(fresh_base("graceful_a"));
  const BoResult b = stop_then_resume(fresh_base("graceful_b"));
  expect_same_run(a, b);  // the pipeline itself is deterministic
}

TEST(Checkpointing, ResumeOfCompletedRunIsIdempotent) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::SyncBatch, 4, 71);
  cfg.checkpoint_path = fresh_base("idempotent");
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult r = engine.resume(cfg.checkpoint_path);
  expect_same_run(ref, r);
  EXPECT_FALSE(r.interrupted);
}

TEST(Checkpointing, ResumeToleratesATornJournalTail) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 81);
  cfg.checkpoint_path = fresh_base("torn");
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  // A crash mid-append leaves a half-written final line; resume must
  // truncate it away and carry on without losing any completed eval.
  {
    std::ofstream out(journal_file(cfg.checkpoint_path),
                      std::ios::binary | std::ios::app);
    out << "deadbeef {\"index\":99,\"half";
  }
  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult r = engine.resume(cfg.checkpoint_path);
  expect_same_run(ref, r);
  // The reopened journal was truncated back to intact lines.
  const auto journal = io::read_journal(journal_file(cfg.checkpoint_path));
  EXPECT_FALSE(journal.torn_tail);
  // The header, then a suggest and an eval record per evaluation.
  EXPECT_EQ(journal.payloads.size(), 1 + 2 * cfg.max_sims);
}

// A torn "<path>.snapshot" falls back to "<path>.snapshot.old", whose
// longer tail crosses the refit the torn generation was written at. A
// resume writes no snapshot of its own (the files it restored from and
// the longer tail resume exactly; only a live refit snapshots, at a
// refactor point), so a kill after the run's last snapshotted refit
// leaves both files as the kill left them, and resuming again is exact.
TEST(Checkpointing, ResumeFromTheOlderSnapshotWritesNoSnapshot) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 11);
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
  const std::string base = fresh_base("torn_snapshot");
  run_and_kill(cfg, tf, base, 24);
  const std::string spath = snapshot_file(base);
  ASSERT_TRUE(io::file_exists(spath + ".old"));
  const std::string primary = io::read_file(spath);
  {
    std::ofstream out(spath, std::ios::binary | std::ios::trunc);
    out << primary.substr(0, primary.size() / 2);
  }
  const std::string torn = io::read_file(spath);
  const std::string older = io::read_file(spath + ".old");

  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  expect_same_run(ref, engine.resume(base));
  EXPECT_TRUE(io::read_file(spath) == torn) << "resume wrote a snapshot";
  EXPECT_TRUE(io::read_file(spath + ".old") == older) << "resume rotated";
  BoEngine again(cfg, tf.bounds, tf.fn, varied_sim_time);
  expect_same_run(ref, again.resume(base));
}

/// Copies tests/golden/engine_v1/<name>.{journal,snapshot} under a fresh
/// checkpoint base. The files were written by the BoEngine of the commit
/// before engine journals became v2: quick(...) runs on Branin with
/// varied_sim_time, killed at an objective call.
std::string v1_engine_files(const std::string& name) {
  const std::string base = fresh_base("v1_" + name);
  const std::string from = std::string(EASYBO_TESTS_GOLDEN_DIR) +
                           "/engine_v1/" + name;
  for (const char* ext : {".journal", ".snapshot"}) {
    std::filesystem::copy_file(
        from + ext, base + ext,
        std::filesystem::copy_options::overwrite_existing);
  }
  return base;
}

// golden/engine_v1/async: AsyncBatch B = 4, seed 7, killed at call 14
// with tags 8, 10, 11 and 12 in flight in its snapshot and one tail
// record, which completes tag 8. The files continue under this build's
// arithmetic — not as a replica of the binary that wrote them — and every
// record they hold is kept.
TEST(Checkpointing, V1EngineJournalContinuesAsV2) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 7);
  const std::string base = v1_engine_files("async");
  const std::string v1_journal = io::read_file(journal_file(base));
  std::vector<JournalRecord> v1_records;
  const io::JournalReadResult v1 = io::read_journal(journal_file(base));
  for (std::size_t i = 1; i < v1.payloads.size(); ++i) {
    v1_records.push_back(JournalRecord::parse(v1.payloads[i]));
  }
  ASSERT_EQ(v1_records.size(), 10u);

  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult r = engine.resume(base);
  EXPECT_FALSE(r.interrupted);
  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  for (std::size_t i = 0; i < v1_records.size(); ++i) {
    EXPECT_EQ(r.evals[i].x, engine.core().to_design(v1_records[i].x)) << i;
    EXPECT_EQ(r.evals[i].y, v1_records[i].y) << i;
    EXPECT_EQ(r.evals[i].finish, v1_records[i].finish) << i;
  }

  // The header became v2 before the first suggest record, and the v1
  // record lines follow it byte for byte.
  const std::string journal = io::read_file(journal_file(base));
  const std::string header = journal.substr(0, journal.find('\n'));
  std::string payload;
  ASSERT_TRUE(io::unframe_line(header, payload));
  EXPECT_EQ(JournalHeader::parse(payload).schema,
            std::string(kJournalSchemaV2));
  const std::string records = v1_journal.substr(v1_journal.find('\n') + 1);
  EXPECT_EQ(journal.substr(header.size() + 1, records.size()), records);
  const io::JournalReadResult v2 = io::read_journal(journal_file(base));
  // An eval record per evaluation, and a suggest record for each of the
  // 11 issued after the 13 the v1 run issued.
  EXPECT_EQ(v2.payloads.size(), 1 + cfg.max_sims + (cfg.max_sims - 13));
}

// ---------------------------------------------------------------------------
// Refusal paths (golden messages documented in docs/checkpoint-format.md)
// ---------------------------------------------------------------------------

/// Expects resume() to throw a CheckpointError mentioning \p needle.
void expect_resume_error(const BoConfig& cfg,
                         const circuit::TestFunction& tf,
                         const std::string& base,
                         const std::string& needle,
                         const std::vector<Constraint>& constraints = {}) {
  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time, constraints);
  try {
    engine.resume(base);
    FAIL() << "resume was expected to refuse";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what();
  }
}

// A v1 journal holds no suggest records, so a tail record completing an
// evaluation its snapshot does not hold in flight has no record to apply
// it from. golden/engine_v1/sequential: Sequential, seed 8, snapshotted
// every four records and killed at call 11; its tail completes tag 8.
// golden/engine_v1/sync_drain: SyncBatch B = 4, seed 9, killed right
// after the second journal append of its second batch's drain. The v1
// engine snapshotted only at the top of each batch, so every v1 SyncBatch
// run killed inside a drain after its first completion is refused too:
// its tail's first record (index 12) completes tag 15.
TEST(ResumeRefusal, V1TailCompletingAnUnsuggestedEvaluation) {
  const auto tf = easybo::circuit::branin();
  struct Case {
    const char* name;
    BoConfig cfg;
    int record;  // the refused record's index
    int tag;     // the evaluation it completes
  };
  const Case cases[] = {
      {"sequential", quick(Mode::Sequential, 1, 8), 8, 8},
      {"sync_drain", quick(Mode::SyncBatch, 4, 9), 12, 15},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string base = v1_engine_files(c.name);
    expect_resume_error(c.cfg, tf, base,
                        "record " + std::to_string(c.record) + " of " +
                            journal_file(base) + " completes evaluation " +
                            std::to_string(c.tag) + ",");
    expect_resume_error(c.cfg, tf, base, kJournalSchemaV1);
  }
}

TEST(ResumeRefusal, MissingJournal) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 91);
  expect_resume_error(cfg, tf, fresh_base("missing"),
                      "cannot resume: no journal at");
}

TEST(ResumeRefusal, ConfigMismatch) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 101);
  cfg.checkpoint_path = fresh_base("mismatch");
  (void)BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  BoConfig other = cfg;
  other.seed = 102;  // a different proposal stream
  expect_resume_error(other, tf, cfg.checkpoint_path,
                      "checkpoint config mismatch");
}

// A checkpoint written under the removed random-Fourier-feature backend
// carries a fingerprint no current config produces: resume refuses it by
// name instead of continuing an RFF stream on the exact GP.
TEST(ResumeRefusal, RffEraCheckpoint) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 7);
  const std::string base = fresh_base("rff_era");
  {
    // The journal header such a run began with: this config's
    // fingerprint with gp_backend = "rff".
    JournalHeader header;
    header.config_hash = 2928852024203121947ull;
    header.seed = cfg.seed;
    io::JournalWriter journal;
    journal.open(journal_file(base), /*truncate_to=*/0);
    journal.append(header.to_payload());
  }
  expect_resume_error(cfg, tf, base, "checkpoint config mismatch");
}

// Files written while a removed switch was on, or a retired option was
// off its one value, carry a fingerprint no current config produces: the
// engine and a session both refuse them by name instead of continuing the
// stream under the one behaviour. The constants are BoConfig{} on Branin's
// bounds, as the fingerprint read while the knobs existed, with
// pin_hallucinated_mean on, async_slot_rotation on, eval_backoff_init =
// 1.0, eval_retry_timeouts = true, trainer.learning_rate = 0.05 and
// trainer.log_noise_min = log(1e-6).
TEST(ResumeRefusal, RemovedSwitchOnCheckpoint) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg;
  for (const std::uint64_t hash :
       {5280235188366560086ull, 8241358697215460316ull,
        6977448529800071321ull, 16829380203513314566ull,
        8528938695701972273ull, 5007298504152950309ull}) {
    SCOPED_TRACE(hash);
    const std::string base = fresh_base("switch_on");
    {
      JournalHeader header;
      header.config_hash = hash;
      header.seed = cfg.seed;
      io::JournalWriter journal;
      journal.open(journal_file(base), /*truncate_to=*/0);
      journal.append(header.to_payload());
    }
    expect_resume_error(cfg, tf, base, "checkpoint config mismatch");
    try {
      (void)serve::Session::resume("s", serve::SessionSpec{cfg, tf.bounds},
                                   base);
      FAIL() << "session resume was expected to refuse";
    } catch (const io::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint config mismatch"),
                std::string::npos)
          << "message: " << e.what();
    }
  }
}

TEST(ResumeRefusal, InteriorJournalCorruption) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 111);
  cfg.checkpoint_path = fresh_base("interior");
  (void)BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  // Flip one payload byte in an interior line: a bad disk, not a torn
  // tail. The checksum catches it and resume refuses.
  const std::string path = journal_file(cfg.checkpoint_path);
  std::string content = io::read_file(path);
  const std::size_t second_line = content.find('\n') + 1;
  const std::size_t victim = second_line + 12;
  ASSERT_LT(victim, content.size());
  content[victim] = content[victim] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  expect_resume_error(cfg, tf, cfg.checkpoint_path, "journal corrupted");
}

TEST(ResumeRefusal, ConstrainedFilesNeedTheirConstraints) {
  const auto tf = easybo::circuit::branin();
  const std::vector<Constraint> cons = {
      {"x0<=5", [](const Vec& x) { return 5.0 - x[0]; }}};
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 131);
  cfg.checkpoint_path = fresh_base("constrained_state");
  (void)BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time, cons).run();

  // The constraint count is part of the fingerprint.
  expect_resume_error(cfg, tf, cfg.checkpoint_path,
                      "checkpoint config mismatch");

  // A snapshot whose constraint rows do not match its observations.
  const std::string spath = snapshot_file(cfg.checkpoint_path);
  BoCheckpoint snap =
      BoCheckpoint::parse(io::read_journal(spath).payloads.front());
  snap.obs_g.back().push_back(1.0);
  io::atomic_write_file(spath, io::frame_line(snap.to_payload()) + "\n");
  expect_resume_error(cfg, tf, cfg.checkpoint_path,
                      "lacks the constraint state", cons);
}

TEST(ResumeRefusal, SnapshotFromADifferentRun) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 121);
  cfg.checkpoint_path = fresh_base("foreign_snap");
  (void)BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  // Truncate the journal to fewer records than the final snapshot has
  // absorbed: the snapshot is now "ahead" of the journal, which can only
  // happen when the files are not from the same run.
  const std::string path = journal_file(cfg.checkpoint_path);
  const std::string content = io::read_file(path);
  std::size_t pos = 0;
  for (int lines = 0; lines < 4; ++lines) pos = content.find('\n', pos) + 1;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content.substr(0, pos);
  }
  expect_resume_error(cfg, tf, cfg.checkpoint_path,
                      "do not belong to the same run");
}

}  // namespace
}  // namespace easybo::bo
