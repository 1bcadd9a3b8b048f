// Exact resume of hosted sessions (journal v2): a session's files after
// any command — intact, with a torn final record, or without their
// snapshot — boot a host that reports the live STATUS and then
// answers the rest of the live command sequence byte for byte; sessions
// evicted before nearly every command keep their standalone streams; and
// a state directory written before suggest records existed resumes,
// upgrades its journal in place and continues its standalone stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "bo/checkpoint.h"
#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "io/journal.h"
#include "io/json.h"
#include "serve/host.h"
#include "serve/session_config.h"
#include "temp_dir.h"

namespace easybo::serve {
namespace {

namespace fs = std::filesystem;
using linalg::Vec;

using tests::temp_dir;

/// Copies state directory \p from to \p to (replacing it).
void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

bo::BoConfig small_config(bo::Mode mode, bo::AcqKind acq, std::size_t batch,
                          std::size_t max_sims, std::uint64_t seed) {
  bo::BoConfig cfg;
  cfg.mode = mode;
  cfg.acq = acq;
  cfg.penalize = true;
  cfg.batch = batch;
  cfg.init_points = 3;
  cfg.max_sims = max_sims;
  cfg.seed = seed;
  cfg.on_eval_failure = bo::EvalFailurePolicy::Discard;
  cfg.acq_opt.sobol_candidates = 32;
  cfg.acq_opt.random_candidates = 16;
  cfg.acq_opt.refine_evals = 15;
  cfg.trainer.max_iters = 8;
  cfg.trainer.restarts = 1;
  return cfg;
}

std::string wire(const bo::BoConfig& cfg, std::size_t dim) {
  opt::Bounds bounds;
  bounds.lower.assign(dim, 0.0);
  bounds.upper.assign(dim, 1.0);
  return session_config_json(cfg, bounds);
}

double objective_of(const Vec& x) {
  double s = 0.0;
  for (const double v : x) s += std::sin(3.0 * v) + v * v;
  return s;
}

struct Suggested {
  std::size_t tag = 0;
  Vec x;
};

Suggested parse_suggest_reply(const std::string& reply) {
  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  const io::JsonValue j = io::parse_json(reply.substr(3));
  Suggested s;
  s.tag = static_cast<std::size_t>(j.at("tag").as_double());
  for (const auto& v : j.at("x").as_array()) s.x.push_back(v.as_double());
  return s;
}

std::string observe_line(const std::string& name, const Suggested& s) {
  return "OBSERVE " + name + " " + std::to_string(s.tag) + " " +
         io::json_number(objective_of(s.x));
}

/// The standalone stream of \p config_json: BoEngine::run's evaluations
/// in order.
std::vector<Vec> standalone_stream(const std::string& config_json,
                                   const opt::Objective& objective) {
  const SessionSpec spec = parse_session_config(config_json);
  const bo::BoResult r =
      bo::BoEngine(spec.config, spec.bounds, objective).run();
  std::vector<Vec> xs;
  for (const auto& e : r.evals) xs.push_back(e.x);
  return xs;
}

// ---------------------------------------------------------------------------
// A crash after any record resumes exactly
// ---------------------------------------------------------------------------

/// One command of a live run, the reply it got and the session STATUS
/// right after it.
struct LiveStep {
  std::string line;
  std::string reply;
  std::string status;
};

/// Boots a host on \p dir, requires STATUS == \p status, then sends
/// \p steps[from..] and requires each live reply byte for byte.
void expect_continues(const std::string& dir, const std::string& status,
                      const std::vector<LiveStep>& steps, std::size_t from) {
  SessionHost host(dir, 4);
  ASSERT_EQ(host.handle_line("STATUS s"), status);
  for (std::size_t k = from; k < steps.size(); ++k) {
    ASSERT_EQ(host.handle_line(steps[k].line), steps[k].reply)
        << "command " << k << ": " << steps[k].line;
  }
}

/// Drives session "s" with \p config_json to budget exhaustion, keeping
/// up to \p in_flight points pending once its initial design is observed
/// (the oldest is observed first; SyncBatch observes whole batches), and
/// copies its state directory after every command. Then boots a fresh
/// host on three copies per command: as written, with the journal's
/// final record torn in half (the files of a crash mid-append), and
/// with no snapshot (the journal alone). Each must report the live
/// STATUS and answer the rest of the live commands with the live
/// replies. \p refits receives the number of refits the run took.
void crash_after_every_record(const std::string& tag,
                              const std::string& config_json,
                              std::size_t in_flight, std::size_t* refits) {
  const SessionSpec spec = parse_session_config(config_json);
  const std::string live_dir = temp_dir(tag + "_live");
  SessionHost live(live_dir, 4);
  std::vector<LiveStep> steps;
  std::vector<std::string> copies;
  const auto run = [&](const std::string& line) {
    LiveStep step;
    step.line = line;
    step.reply = live.handle_line(line);
    step.status = live.handle_line("STATUS s");
    copies.push_back(temp_dir(tag + "_after" + std::to_string(steps.size())));
    copy_dir(live_dir, copies.back());
    steps.push_back(step);
    return step.reply;
  };
  EXPECT_EQ(run("NEW s " + config_json), "OK created s");
  // NEW writes the config and the journal header, and nothing else.
  std::vector<std::string> created;
  for (const auto& entry : fs::directory_iterator(copies.back())) {
    created.push_back(entry.path().filename().string());
  }
  std::sort(created.begin(), created.end());
  EXPECT_EQ(created, (std::vector<std::string>{"s.config", "s.journal"}));
  std::deque<Suggested> fly;
  std::size_t issued = 0;
  const std::size_t batch = spec.config.mode == bo::Mode::SyncBatch
                                ? spec.config.batch
                                : in_flight;
  std::size_t most_in_flight = 0;
  for (;;) {
    // The initial design is suggested whole and observed before the
    // first model-based proposal; then the pending set is refilled to
    // its size and the oldest observed (SyncBatch observes the batch).
    const bool init = issued < spec.config.init_points;
    const std::size_t room = init ? spec.config.init_points : batch;
    while (fly.size() < room && issued < spec.config.max_sims) {
      fly.push_back(parse_suggest_reply(run("SUGGEST s")));
      ++issued;
    }
    if (!init) most_in_flight = std::max(most_in_flight, fly.size());
    if (fly.empty()) break;
    const bool drain = init || spec.config.mode == bo::Mode::SyncBatch ||
                       issued == spec.config.max_sims;
    do {
      EXPECT_EQ(run(observe_line("s", fly.front())),
                "OK {\"action\":\"observed\"}");
      fly.pop_front();
    } while (drain && !fly.empty());
  }
  EXPECT_EQ(run("SUGGEST s").rfind("ERR ", 0), 0u);
  EXPECT_EQ(most_in_flight, batch);

  // Each boot works on its own copy: continuing mutates the files.
  const std::string work = temp_dir(tag + "_work");
  std::size_t torn_boots = 0;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    SCOPED_TRACE(tag + " after command " + std::to_string(k));
    copy_dir(copies[k], work);
    expect_continues(work, steps[k].status, steps, k + 1);
    if (k > 0) {
      // A crash mid-append of command k's record: command k-1's files
      // with half of the one line command k appended.
      const std::string prev = io::read_file(copies[k - 1] + "/s.journal");
      const std::string next = io::read_file(copies[k] + "/s.journal");
      if (next.size() > prev.size()) {
        ASSERT_EQ(next.compare(0, prev.size(), prev), 0);
        copy_dir(copies[k - 1], work);
        const std::string line = next.substr(prev.size());
        ASSERT_EQ(line.find('\n'), line.size() - 1) << "one record";
        io::atomic_write_file(work + "/s.journal",
                              prev + line.substr(0, line.size() / 2));
        expect_continues(work, steps[k - 1].status, steps, k);
        ++torn_boots;
      }
    }
    copy_dir(copies[k], work);
    fs::remove(work + "/s.snapshot");
    expect_continues(work, steps[k].status, steps, k + 1);
  }
  EXPECT_EQ(torn_boots, steps.size() - 2);  // every command but NEW and
                                            // the refused last SUGGEST
  SessionHost reopened(copies.back(), 4);
  EXPECT_EQ(reopened.handle_line("STATUS s"), steps.back().status);
  const io::JournalReadResult last =
      io::read_journal(copies.back() + "/s.snapshot");
  *refits = bo::BoCheckpoint::parse(last.payloads.front()).hyper_refits;
}

TEST(ServeResume, CrashAfterAnyRecordResumesExactlyEasyBoAsync) {
  bo::BoConfig cfg = small_config(bo::Mode::AsyncBatch, bo::AcqKind::EasyBo,
                                  3, 11, 61);
  cfg.refit_every = 2;
  std::size_t refits = 0;
  crash_after_every_record("easybo", wire(cfg, 2), 2, &refits);
  EXPECT_GE(refits, 3u);
}

TEST(ServeResume, CrashAfterAnyRecordResumesExactlyPhcboSync) {
  bo::BoConfig cfg = small_config(bo::Mode::SyncBatch, bo::AcqKind::Phcbo,
                                  3, 12, 62);
  cfg.refit_every = 2;
  cfg.hc_d = 0.4;  // a radius wide enough that each slot's history steers
  std::size_t refits = 0;
  crash_after_every_record("phcbo", wire(cfg, 2), 3, &refits);
  EXPECT_GE(refits, 3u);
}

// ---------------------------------------------------------------------------
// Eviction at scale
// ---------------------------------------------------------------------------

/// 12 sessions on a host that keeps 2 live, driven in rounds: SUGGEST on
/// every session, then OBSERVE on every session. Every command therefore
/// names a session evicted since its last command and resumes it from
/// disk, 34 times per session with 30 model-based turns. Each session's
/// stream must equal its standalone BoEngine::run. Before suggest records
/// existed (a snapshot after every mutation, each resume a refactor of
/// the factor the live session had extended), sessions e0, e8, e9 and
/// e10 left their standalone streams under this shape.
TEST(ServeResume, EvictionAtScaleKeepsEveryStandaloneStream) {
  constexpr std::size_t kSessions = 12;
  const auto tf = circuit::sphere(2);
  SessionHost host(temp_dir("evict_scale"), 2);
  std::vector<std::string> configs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    bo::BoConfig cfg = small_config(bo::Mode::Sequential, bo::AcqKind::EasyBo,
                                    1, 34, 700 + i);
    cfg.init_points = 4;
    cfg.acq_opt.sobol_candidates = 64;
    cfg.acq_opt.random_candidates = 32;
    cfg.acq_opt.refine_evals = 30;
    cfg.trainer.max_iters = 10;
    configs.push_back(session_config_json(cfg, tf.bounds));
    // Appended, not "e" + std::to_string(i): GCC 12 reads the insert of
    // a literal into a temporary as an overlapping copy (-Wrestrict).
    const std::string name = std::string("e").append(std::to_string(i));
    ASSERT_EQ(host.handle_line("NEW " + name + " " + configs[i]),
              "OK created " + name);
  }
  std::vector<std::vector<Vec>> xs(kSessions);
  for (std::size_t round = 0; round < 34; ++round) {
    std::vector<Suggested> fly(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      fly[i] = parse_suggest_reply(
          host.handle_line("SUGGEST e" + std::to_string(i)));
      xs[i].push_back(fly[i].x);
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      ASSERT_EQ(host.handle_line("OBSERVE e" + std::to_string(i) + " " +
                                 std::to_string(fly[i].tag) + " " +
                                 io::json_number(tf.fn(fly[i].x))),
                "OK {\"action\":\"observed\"}");
    }
  }
  EXPECT_LE(host.live_count(), 2u);
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(xs[i], standalone_stream(configs[i], tf.fn)) << "session e" << i;
  }
}

// ---------------------------------------------------------------------------
// State directories written before suggest records existed
// ---------------------------------------------------------------------------

/// tests/golden/serve_v1 was written by the host of the commit before
/// journal v2: session "u" (sequential EasyBO, seed 2718, 8 sims) past
/// its 3-point initial design with model-based tag 3 pending — an
/// easybo.journal.v1 journal with 3 eval records, the snapshot taken
/// after that SUGGEST and the rotated one before it.
TEST(ServeResume, V1StateDirectoryUpgradesAndContinuesItsStream) {
  const std::string dir = temp_dir("v1");
  copy_dir(std::string(EASYBO_TESTS_GOLDEN_DIR) + "/serve_v1", dir);
  const std::string v1_journal = io::read_file(dir + "/u.journal");
  const std::string v1_snapshot = io::read_file(dir + "/u.snapshot");
  const std::vector<Vec> want =
      standalone_stream(io::read_file(dir + "/u.config"), objective_of);
  ASSERT_EQ(want.size(), 8u);

  SessionHost host(dir, 4);
  // The STATUS the writing build reported for these files.
  EXPECT_EQ(host.handle_line("STATUS u"),
            "OK {\"name\":\"u\",\"mode\":\"sequential\",\"acq\":\"EasyBO\","
            "\"dim\":2,\"issued\":4,\"observed\":3,\"max_sims\":8,"
            "\"init_done\":true,\"pending\":[3],"
            "\"best_y\":2.092773768617145,"
            "\"best_x\":[0.3172371410168676,0.9625500704518722]}");
  EXPECT_EQ(io::read_file(dir + "/u.journal"), v1_journal);  // resume
  EXPECT_EQ(io::read_file(dir + "/u.snapshot"), v1_snapshot);  // wrote nothing

  EXPECT_EQ(host.handle_line("OBSERVE u 3 " +
                             io::json_number(objective_of(want[3]))),
            "OK {\"action\":\"observed\"}");
  // An eval record is the same in both versions: appended to the v1 file.
  EXPECT_EQ(io::read_file(dir + "/u.journal").rfind(v1_journal, 0), 0u);
  const Suggested next = parse_suggest_reply(host.handle_line("SUGGEST u"));
  EXPECT_EQ(next.tag, 4u);
  EXPECT_EQ(next.x, want[4]);

  // The first suggest record rewrote the header as v2 and kept every v1
  // record line byte for byte after it.
  const std::string journal = io::read_file(dir + "/u.journal");
  const std::string header = journal.substr(0, journal.find('\n'));
  std::string payload;
  ASSERT_TRUE(io::unframe_line(header, payload));
  EXPECT_EQ(bo::JournalHeader::parse(payload).schema,
            std::string(bo::kJournalSchemaV2));
  const std::string v1_records = v1_journal.substr(v1_journal.find('\n') + 1);
  EXPECT_EQ(journal.substr(header.size() + 1, v1_records.size()), v1_records);

  std::vector<Vec> xs = {next.x};
  ASSERT_EQ(host.handle_line(observe_line("u", next)).rfind("OK ", 0), 0u);
  for (;;) {
    const std::string reply = host.handle_line("SUGGEST u");
    if (reply.rfind("ERR ", 0) == 0) break;
    const Suggested s = parse_suggest_reply(reply);
    xs.push_back(s.x);
    ASSERT_EQ(host.handle_line(observe_line("u", s)).rfind("OK ", 0), 0u);
  }
  EXPECT_EQ(xs, std::vector<Vec>(want.begin() + 4, want.end()));
  SessionHost reopened(dir, 4);
  EXPECT_EQ(reopened.handle_line("STATUS u"), host.handle_line("STATUS u"));
}

// A journal begun as easybo.journal.v1 holds no suggest records, so it
// resumes only from a snapshot. With u.snapshot removed, the legacy
// u.snapshot.old (taken before tag 3 was suggested) resumes and the
// session re-proposes tag 3 on, its standalone stream. With both files
// removed — as written, or after the SUGGEST that upgraded its header to
// v2 — resume is refused by one message naming the record, the tag, why
// no snapshot was usable and that the journal began as v1.
TEST(ServeResume, V1StateDirectoryResumesOnlyFromASnapshot) {
  const std::string golden = std::string(EASYBO_TESTS_GOLDEN_DIR) +
                             "/serve_v1";
  const std::vector<Vec> want =
      standalone_stream(io::read_file(golden + "/u.config"), objective_of);
  ASSERT_EQ(want.size(), 8u);

  const std::string old_only = temp_dir("old_only");
  copy_dir(golden, old_only);
  fs::remove(old_only + "/u.snapshot");
  {
    SessionHost host(old_only, 4);
    std::vector<Vec> xs;
    for (;;) {
      const std::string reply = host.handle_line("SUGGEST u");
      if (reply.rfind("ERR ", 0) == 0) break;
      const Suggested s = parse_suggest_reply(reply);
      xs.push_back(s.x);
      ASSERT_EQ(host.handle_line(observe_line("u", s)).rfind("OK ", 0), 0u);
    }
    EXPECT_EQ(xs, std::vector<Vec>(want.begin() + 3, want.end()));
  }

  const auto expect_refused = [](const std::string& dir) {
    SessionHost host(dir, 4);
    const std::string reply = host.handle_line("SUGGEST u");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    for (const std::string& part :
         {"cannot resume session: record 0 of " + dir +
              "/u.journal completes evaluation 0, which the replay never "
              "had in flight",
          "(no snapshot was usable: " + dir + "/u.snapshot is missing, " +
              dir + "/u.snapshot.old is missing)",
          std::string("a journal begun as ") + bo::kJournalSchemaV1 +
              " holds no suggest records and resumes only from a snapshot"}) {
      EXPECT_NE(reply.find(part), std::string::npos) << reply;
    }
  };
  const std::string bare = temp_dir("bare");
  copy_dir(golden, bare);
  fs::remove(bare + "/u.snapshot");
  fs::remove(bare + "/u.snapshot.old");
  expect_refused(bare);

  const std::string upgraded = temp_dir("upgraded");
  copy_dir(golden, upgraded);
  {
    SessionHost host(upgraded, 4);
    ASSERT_EQ(host.handle_line("OBSERVE u 3 " +
                               io::json_number(objective_of(want[3]))),
              "OK {\"action\":\"observed\"}");
    ASSERT_EQ(parse_suggest_reply(host.handle_line("SUGGEST u")).x, want[4]);
  }
  const io::JournalReadResult jr = io::read_journal(upgraded + "/u.journal");
  ASSERT_EQ(bo::JournalHeader::parse(jr.payloads.front()).schema,
            std::string(bo::kJournalSchemaV2));
  fs::remove(upgraded + "/u.snapshot");
  fs::remove(upgraded + "/u.snapshot.old");
  expect_refused(upgraded);
}

}  // namespace
}  // namespace easybo::serve
