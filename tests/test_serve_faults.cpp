// Storage-fault matrix for the session host (ISSUE: chaos-tested
// recovery). For every fault channel (ENOSPC, EIO, short write, torn
// rename) injected at many different operation indices, a session driven
// to budget exhaustion must end with the bit-identical proposal stream
// of an unfaulted control host: each injected fault either fails the
// request cleanly (ERR, on-disk state intact — the command retries after
// CLOSE clears the quarantine) or is absorbed (a command committed by its
// journal record with a stale or missing snapshot) — never a half-written
// snapshot accepted on resume, never a divergent stream.
//
// The same channels against a journaled BoEngine run (EngineFaultMatrix):
// a fault in a refit snapshot is absorbed and the run finishes as if
// unfaulted; only a fault in a journal operation fails run() with
// io::CheckpointError, and the files resume to the uninterrupted run.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "io/fs_fault.h"
#include "io/journal.h"
#include "io/json.h"
#include "serve/host.h"
#include "serve/session_config.h"
#include "temp_dir.h"

namespace easybo::serve {
namespace {

using linalg::Vec;

using tests::temp_dir;

std::string quick_config_json(std::uint64_t seed) {
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::Sequential;
  cfg.acq = bo::AcqKind::EasyBo;
  cfg.penalize = true;
  cfg.batch = 1;
  cfg.init_points = 3;
  cfg.max_sims = 7;
  cfg.seed = seed;
  cfg.on_eval_failure = bo::EvalFailurePolicy::Discard;
  cfg.acq_opt.sobol_candidates = 32;
  cfg.acq_opt.random_candidates = 16;
  cfg.acq_opt.refine_evals = 15;
  cfg.trainer.max_iters = 8;
  cfg.trainer.restarts = 1;
  opt::Bounds bounds;
  bounds.lower = {0.0, 0.0};
  bounds.upper = {1.0, 1.0};
  return session_config_json(cfg, bounds);
}

/// quick_config_json with refit_every = 1, so the observe that brings the
/// data to 4 points refits and writes a snapshot after its journal record.
std::string refitting_config_json(std::uint64_t seed) {
  SessionSpec spec = parse_session_config(quick_config_json(seed));
  spec.config.refit_every = 1;
  return session_config_json(spec.config, spec.bounds);
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

bool is_protocol_error(const std::string& reply) {
  // Replies that are a *correct answer*, not a storage failure: the
  // budget ran out. Everything else starting with ERR is treated as a
  // fault to recover from.
  return reply.find("budget exhausted") != std::string::npos;
}

/// Sends one command, recovering from storage faults the way an operator
/// (or a retrying client) would: a quarantined session is CLOSEd to
/// clear the quarantine, then the command is retried. With the fault
/// budget capped at one, a bounded number of retries must always reach a
/// non-storage reply; anything else is a recovery bug.
std::string send_recovering(SessionHost& host, const std::string& name,
                            const std::string& line) {
  for (int attempt = 0; attempt < 6; ++attempt) {
    const std::string reply = host.handle_line(line);
    if (reply.rfind("ERR ", 0) != 0 || is_protocol_error(reply)) {
      return reply;
    }
    if (reply.rfind("ERR quarantined", 0) == 0 ||
        reply.rfind("ERR storage", 0) == 0) {
      const std::string closed = host.handle_line("CLOSE " + name);
      EXPECT_EQ(closed.rfind("OK ", 0), 0u) << closed;
    }
    // Plain storage ERRs (a failed NEW or resume) retry as-is.
  }
  ADD_FAILURE() << "no recovery after repeated retries for: " << line;
  return "ERR unrecoverable";
}

/// Drives one session to exhaustion with fault recovery; returns the
/// accepted proposal stream.
std::vector<Vec> drive_recovering(SessionHost& host, const std::string& name,
                                  const std::string& config_json) {
  const std::string created =
      send_recovering(host, name, "NEW " + name + " " + config_json);
  EXPECT_EQ(created.rfind("OK ", 0), 0u) << created;
  std::vector<Vec> xs;
  for (;;) {
    const std::string reply =
        send_recovering(host, name, "SUGGEST " + name);
    if (reply.rfind("ERR ", 0) == 0) {
      EXPECT_TRUE(is_protocol_error(reply)) << reply;
      break;
    }
    const Suggested s = parse_suggest_reply(reply);
    const std::string ob = send_recovering(
        host, name,
        "OBSERVE " + name + " " + std::to_string(s.tag) + " " +
            io::json_number(objective_of(s.x)));
    EXPECT_EQ(ob.rfind("OK ", 0), 0u) << ob;
    // Count a proposal only once its observe was accepted — a SUGGEST
    // rolled back by quarantine re-issues the same tag on retry.
    xs.push_back(s.x);
  }
  return xs;
}

void expect_same_proposals(const std::vector<Vec>& a,
                           const std::vector<Vec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "proposal " << i;
  }
}

std::vector<Vec> control_stream(const std::string& channel_name,
                                const std::string& config_json) {
  // Unique per channel: ctest runs the sweep tests as separate parallel
  // processes, which must not share a control directory.
  const std::string dir = temp_dir("control_" + channel_name);
  SessionHost host(dir, 4);
  return drive_recovering(host, "ctl", config_json);
}

/// The matrix: one injected fault per run (max_faults = 1), swept across
/// operation indices, per channel. Every run must converge to the
/// control stream.
void sweep_channel(const char* channel_name,
                   void (*arm)(io::FsFaultPlan&, std::size_t)) {
  const std::string config = quick_config_json(101);
  const std::vector<Vec> expected = control_stream(channel_name, config);
  ASSERT_FALSE(expected.empty());
  // Indices chosen to land the single fault in create, early suggests,
  // journal appends and late snapshots alike.
  for (const std::size_t every : {1u, 2u, 3u, 5u, 9u, 17u, 33u}) {
    SCOPED_TRACE(std::string(channel_name) + " every=" +
                 std::to_string(every));
    const std::string dir =
        temp_dir(std::string(channel_name) + "_" + std::to_string(every));
    SessionHost host(dir, 4);
    io::FsFaultPlan plan;
    arm(plan, every);
    plan.max_faults = 1;
    std::vector<Vec> got;
    {
      io::ScopedFsFaults faults(plan);
      got = drive_recovering(host, "s", config);
    }
    expect_same_proposals(got, expected);
    // And a fresh host over the surviving files resumes to the same
    // exhausted session.
    SessionHost reopened(dir, 4);
    const std::string status = reopened.handle_line("STATUS s");
    ASSERT_EQ(status.rfind("OK ", 0), 0u) << status;
    const io::JsonValue j = io::parse_json(status.substr(3));
    EXPECT_EQ(j.at("observed").as_double(), 7.0) << status;
    EXPECT_EQ(reopened.handle_line("SUGGEST s").rfind("ERR ", 0), 0u);
  }
}

TEST(ServeFaultMatrix, EnospcSweep) {
  sweep_channel("enospc", [](io::FsFaultPlan& p, std::size_t every) {
    p.enospc_every = every;
  });
}

TEST(ServeFaultMatrix, EioSweep) {
  sweep_channel("eio", [](io::FsFaultPlan& p, std::size_t every) {
    p.eio_every = every;
  });
}

TEST(ServeFaultMatrix, ShortWriteSweep) {
  sweep_channel("short_write", [](io::FsFaultPlan& p, std::size_t every) {
    p.short_write_every = every;
  });
}

TEST(ServeFaultMatrix, TornRenameSweep) {
  sweep_channel("torn_rename", [](io::FsFaultPlan& p, std::size_t every) {
    p.torn_rename_every = every;
  });
}

// ---------------------------------------------------------------------------
// The engine's storage-fault matrix
// ---------------------------------------------------------------------------

bo::BoConfig engine_config(bo::Mode mode) {
  bo::BoConfig c;
  c.mode = mode;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 4;
  c.init_points = 8;
  c.max_sims = 24;
  c.seed = 19;
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

/// The same proposals, outcomes and virtual times, and the same result.
void expect_same_run(const bo::BoResult& a, const bo::BoResult& b) {
  ASSERT_EQ(a.num_evals(), b.num_evals());
  for (std::size_t i = 0; i < a.num_evals(); ++i) {
    EXPECT_EQ(a.evals[i].x, b.evals[i].x) << "eval " << i;
    EXPECT_EQ(a.evals[i].y, b.evals[i].y) << "eval " << i;
    EXPECT_EQ(a.evals[i].start, b.evals[i].start) << "eval " << i;
    EXPECT_EQ(a.evals[i].finish, b.evals[i].finish) << "eval " << i;
  }
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_y, b.best_y);
  EXPECT_EQ(a.makespan, b.makespan);
}

/// One fault per run (max_faults = 1) on the operations whose path
/// contains \p target (".journal" or ".snapshot"), swept over operation
/// indices, in a journaled AsyncBatch and SyncBatch run on Branin. Only
/// a journal operation may fail run(); every other fault is a refit
/// snapshot's and is absorbed. Either way the files resume to the
/// uninterrupted run.
void sweep_engine(const char* channel_name,
                  void (*arm)(io::FsFaultPlan&, std::size_t),
                  const std::string& target,
                  const std::vector<std::size_t>& indices) {
  const auto tf = circuit::branin();
  for (const bo::Mode mode : {bo::Mode::AsyncBatch, bo::Mode::SyncBatch}) {
    const bo::BoConfig plain = engine_config(mode);
    const bo::BoResult ref =
        bo::BoEngine(plain, tf.bounds, tf.fn, varied_sim_time).run();
    std::size_t absorbed = 0;
    for (const std::size_t every : indices) {
      SCOPED_TRACE(std::string(bo::to_string(mode)) + " " + channel_name +
                   " on " + target + " every=" + std::to_string(every));
      // One directory per sweep, emptied for each case.
      const std::string dir =
          temp_dir(std::string("engine_") + channel_name + "_" +
                    target.substr(1) + "_" + bo::to_string(mode));
      std::filesystem::create_directories(dir);
      bo::BoConfig cfg = plain;
      cfg.checkpoint_path = dir + "/run";
      io::FsFaultPlan plan;
      arm(plan, every);
      plan.max_faults = 1;
      plan.path_contains = target;
      bo::BoResult r;
      std::string error;
      std::size_t faults = 0;
      {
        io::ScopedFsFaults injected(plan);
        try {
          r = bo::BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
        } catch (const io::CheckpointError& e) {
          error = e.what();
        }
        faults = injected.injector().faults();
      }
      if (faults == 0) {  // the index lies past the run's last operation
        EXPECT_EQ(error, "");
        expect_same_run(ref, r);
        continue;
      }
      const std::string journal = bo::journal_file(cfg.checkpoint_path);
      if (!io::file_exists(journal)) {
        // Struck before the journal existed: nothing durable started.
        EXPECT_NE(error.find("journal"), std::string::npos) << error;
        continue;
      }
      EXPECT_EQ(!error.empty(), target == ".journal") << error;
      if (error.empty()) {
        expect_same_run(ref, r);
        ++absorbed;
      }
      bo::BoEngine resumed(plain, tf.bounds, tf.fn, varied_sim_time);
      expect_same_run(ref, resumed.resume(cfg.checkpoint_path));
    }
    if (target == ".snapshot") {
      EXPECT_GT(absorbed, 0u) << "no refit snapshot fault was injected";
    }
  }
}

/// Every snapshot operation of a 24-sim run (its refit snapshots), and
/// journal operations from the header to the last record.
void sweep_engine_files(const char* channel_name,
                        void (*arm)(io::FsFaultPlan&, std::size_t)) {
  std::vector<std::size_t> every_snapshot_op;
  for (std::size_t i = 1; i <= 20; ++i) every_snapshot_op.push_back(i);
  sweep_engine(channel_name, arm, ".snapshot", every_snapshot_op);
  sweep_engine(channel_name, arm, ".journal",
               {1, 2, 3, 4, 5, 8, 13, 21, 34, 55, 89});
}

TEST(EngineFaultMatrix, EnospcSweep) {
  sweep_engine_files("enospc", [](io::FsFaultPlan& p, std::size_t every) {
    p.enospc_every = every;
  });
}

TEST(EngineFaultMatrix, EioSweep) {
  sweep_engine_files("eio", [](io::FsFaultPlan& p, std::size_t every) {
    p.eio_every = every;
  });
}

TEST(EngineFaultMatrix, ShortWriteSweep) {
  sweep_engine_files("short_write", [](io::FsFaultPlan& p, std::size_t every) {
    p.short_write_every = every;
  });
}

TEST(EngineFaultMatrix, TornRenameSweep) {
  sweep_engine_files("torn_rename", [](io::FsFaultPlan& p, std::size_t every) {
    p.torn_rename_every = every;
  });
}

// ---------------------------------------------------------------------------
// Targeted failure-path anatomy
// ---------------------------------------------------------------------------

TEST(ServeFaults, ObserveJournalFaultQuarantinesWithStateRolledBack) {
  const std::string dir = temp_dir("observe_quarantine");
  SessionHost host(dir, 4);
  const std::string config = quick_config_json(7);
  ASSERT_EQ(host.handle_line("NEW q " + config).rfind("OK ", 0), 0u);
  const Suggested s = parse_suggest_reply(host.handle_line("SUGGEST q"));

  std::string reply;
  {
    // First eligible op of OBSERVE is the journal append's write.
    io::FsFaultPlan plan;
    plan.eio_every = 1;
    plan.max_faults = 1;
    io::ScopedFsFaults faults(plan);
    reply = host.handle_line("OBSERVE q " + std::to_string(s.tag) + " 1.0");
  }
  EXPECT_EQ(reply.rfind("ERR storage q:", 0), 0u) << reply;
  EXPECT_NE(reply.find("quarantined"), std::string::npos) << reply;
  EXPECT_TRUE(host.is_quarantined("q"));
  EXPECT_FALSE(host.is_live("q"));
  EXPECT_GE(host.io_fault_count(), 1u);

  // Quarantine refuses work but serves STATUS from memory, and the
  // health plane reports degraded storage.
  EXPECT_EQ(host.handle_line("SUGGEST q").rfind("ERR quarantined q:", 0),
            0u);
  EXPECT_EQ(host.handle_line("NEW q " + config).rfind("ERR quarantined", 0),
            0u);
  const std::string st = host.handle_line("STATUS q");
  EXPECT_NE(st.find("\"quarantined\":true"), std::string::npos) << st;
  EXPECT_NE(host.handle_line("STATUS").find("\"storage\":\"degraded\""),
            std::string::npos);

  // CLOSE clears the quarantine; the resumed session still has the tag
  // pending (the failed observe really was rolled back) and accepts it.
  EXPECT_EQ(host.handle_line("CLOSE q").rfind("OK ", 0), 0u);
  EXPECT_FALSE(host.is_quarantined("q"));
  const std::string st2 = host.handle_line("STATUS q");
  EXPECT_NE(st2.find("\"pending\":[" + std::to_string(s.tag) + "]"),
            std::string::npos)
      << st2;
  EXPECT_EQ(host.handle_line("OBSERVE q " + std::to_string(s.tag) + " 1.0")
                .rfind("OK ", 0),
            0u);
  EXPECT_NE(host.handle_line("STATUS").find("\"storage\":\"ok\""),
            std::string::npos);
}

/// Takes session \p name through its 3-point initial design: three
/// SUGGEST + OBSERVE turns. The next SUGGEST trains the first model.
void observe_initial_design(SessionHost& host, const std::string& name) {
  for (int i = 0; i < 3; ++i) {
    const Suggested s =
        parse_suggest_reply(host.handle_line("SUGGEST " + name));
    ASSERT_EQ(host.handle_line("OBSERVE " + name + " " +
                               std::to_string(s.tag) + " " +
                               io::json_number(objective_of(s.x)))
                  .rfind("OK ", 0),
              0u);
  }
}

TEST(ServeFaults, SuggestJournalFaultQuarantinesWithStateRolledBack) {
  const std::string config = quick_config_json(13);
  // The control: the first model-based suggest of an unfaulted session.
  Suggested want;
  {
    SessionHost control(temp_dir("suggest_quarantine_ctl"), 4);
    ASSERT_EQ(control.handle_line("NEW q " + config).rfind("OK ", 0), 0u);
    observe_initial_design(control, "q");
    want = parse_suggest_reply(control.handle_line("SUGGEST q"));
  }
  const std::string dir = temp_dir("suggest_quarantine");
  SessionHost host(dir, 4);
  ASSERT_EQ(host.handle_line("NEW q " + config).rfind("OK ", 0), 0u);
  observe_initial_design(host, "q");
  const std::string journal_before = io::read_file(dir + "/q.journal");

  std::string reply;
  {
    // The suggest computes without storage; its first storage operation
    // is the suggest record's write.
    io::FsFaultPlan plan;
    plan.eio_every = 1;
    plan.max_faults = 1;
    io::ScopedFsFaults faults(plan);
    reply = host.handle_line("SUGGEST q");
  }
  EXPECT_EQ(reply.rfind("ERR storage q:", 0), 0u) << reply;
  EXPECT_NE(reply.find("quarantined"), std::string::npos) << reply;
  EXPECT_TRUE(host.is_quarantined("q"));
  EXPECT_FALSE(host.is_live("q"));
  EXPECT_GE(host.io_fault_count(), 1u);
  // The failed append rolled the journal back byte for byte.
  EXPECT_EQ(io::read_file(dir + "/q.journal"), journal_before);

  // CLOSE clears the quarantine; the retried suggest resumes from the
  // files and hands out the identical tag and point.
  EXPECT_EQ(host.handle_line("CLOSE q").rfind("OK ", 0), 0u);
  const Suggested got = parse_suggest_reply(host.handle_line("SUGGEST q"));
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.x, want.x);
  EXPECT_NE(host.handle_line("STATUS").find("\"storage\":\"ok\""),
            std::string::npos);
}

TEST(ServeFaults, SuggestSnapshotFaultIsCommittedAndRepliesOk) {
  const std::string dir = temp_dir("suggest_committed");
  SessionHost host(dir, 4);
  const std::string config = quick_config_json(14);
  ASSERT_EQ(host.handle_line("NEW c " + config).rfind("OK ", 0), 0u);
  observe_initial_design(host, "c");

  std::string reply;
  {
    // This suggest trains the first model. Fsync #1 is its journal
    // record (succeeds), fsync #2 the refit snapshot's tmp file — the
    // fault lands there.
    io::FsFaultPlan plan;
    plan.enospc_every = 2;
    plan.max_faults = 1;
    io::ScopedFsFaults faults(plan);
    reply = host.handle_line("SUGGEST c");
  }
  // Journal-first: the suggest is durable, so the reply is OK and the
  // session is NOT quarantined — only the health counter moves.
  const Suggested s = parse_suggest_reply(reply);
  EXPECT_FALSE(host.is_quarantined("c"));
  EXPECT_EQ(host.io_fault_count(), 1u);
  const std::string live_status = host.handle_line("STATUS c");

  // A restart resumes from the previous snapshot generation plus the
  // journal tail to the exact post-suggest state, and takes the tag.
  SessionHost reopened(dir, 4);
  EXPECT_EQ(reopened.handle_line("STATUS c"), live_status);
  EXPECT_EQ(reopened.handle_line("OBSERVE c " + std::to_string(s.tag) +
                                 " 2.0"),
            "OK {\"action\":\"observed\"}");
}

TEST(ServeFaults, ObserveSnapshotFaultIsCommittedAndRepliesOk) {
  const std::string dir = temp_dir("observe_committed");
  SessionHost host(dir, 4);
  const std::string config = refitting_config_json(8);
  ASSERT_EQ(host.handle_line("NEW c " + config).rfind("OK ", 0), 0u);
  observe_initial_design(host, "c");
  const Suggested s = parse_suggest_reply(host.handle_line("SUGGEST c"));

  std::string reply;
  {
    // This observe refits (refit_every = 1). Fsync #1 of OBSERVE is the
    // journal append (succeeds), fsync #2 is the refit snapshot's tmp
    // file — the fault lands there.
    io::FsFaultPlan plan;
    plan.enospc_every = 2;
    plan.max_faults = 1;
    io::ScopedFsFaults faults(plan);
    reply = host.handle_line("OBSERVE c " + std::to_string(s.tag) + " 2.0");
  }
  // Journal-first: the observe is durable, so the reply is OK and the
  // session is NOT quarantined — only the health counter moves.
  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  EXPECT_FALSE(host.is_quarantined("c"));
  EXPECT_GE(host.io_fault_count(), 1u);

  // A restart resumes from the stale snapshot plus the journal tail to
  // the exact post-observe state.
  SessionHost reopened(dir, 4);
  const std::string st = reopened.handle_line("STATUS c");
  ASSERT_EQ(st.rfind("OK ", 0), 0u) << st;
  const io::JsonValue j = io::parse_json(st.substr(3));
  EXPECT_EQ(j.at("observed").as_double(), 4.0) << st;
  EXPECT_EQ(j.at("pending").as_array().size(), 0u) << st;
}

// A snapshot is a shortcut, so damage to it loses nothing: with a torn
// "<name>.snapshot" and a torn legacy "<name>.snapshot.old" (which
// binaries before this one rotated aside), the session resumes from its
// journal alone and continues exactly as the undamaged one does.
TEST(ServeFaults, BothSnapshotGenerationsDamagedResumeFromTheJournal) {
  const std::string config = quick_config_json(9);
  // Through the initial design, then the first model-based suggest,
  // which refits and writes the snapshot.
  const auto start = [&](SessionHost& host) {
    EXPECT_EQ(host.handle_line("NEW d " + config).rfind("OK ", 0), 0u);
    observe_initial_design(host, "d");
    return parse_suggest_reply(host.handle_line("SUGGEST d"));
  };
  const auto observe = [](SessionHost& host, const Suggested& s) {
    return host.handle_line("OBSERVE d " + std::to_string(s.tag) + " " +
                            io::json_number(objective_of(s.x)));
  };
  SessionHost control(temp_dir("both_damaged_ctl"), 4);
  const Suggested pending = start(control);
  const std::string live_status = control.handle_line("STATUS d");
  ASSERT_EQ(observe(control, pending), "OK {\"action\":\"observed\"}");
  const std::string next = control.handle_line("SUGGEST d");

  const std::string dir = temp_dir("both_damaged");
  {
    SessionHost host(dir, 4);
    start(host);
  }
  const std::string snapshot = io::read_file(dir + "/d.snapshot");
  const std::string torn = snapshot.substr(0, snapshot.size() / 2);
  io::atomic_write_file(dir + "/d.snapshot", torn);
  io::atomic_write_file(dir + "/d.snapshot.old", torn);
  SessionHost host(dir, 4);
  EXPECT_EQ(host.handle_line("STATUS d"), live_status);
  EXPECT_TRUE(host.is_live("d"));
  EXPECT_EQ(observe(host, pending), "OK {\"action\":\"observed\"}");
  EXPECT_EQ(host.handle_line("SUGGEST d"), next);
}

TEST(ServeFaults, MissingSnapshotsWithEmptyJournalRecreatePristine) {
  const std::string dir = temp_dir("create_crash");
  const std::string config = quick_config_json(10);
  Suggested first;
  {
    SessionHost ref(temp_dir("create_crash_ref"), 4);
    ASSERT_EQ(ref.handle_line("NEW p " + config).rfind("OK ", 0), 0u);
    first = parse_suggest_reply(ref.handle_line("SUGGEST p"));
  }
  {
    SessionHost host(dir, 4);
    // NEW writes the journal header and no snapshot; a suggest appends a
    // record, so the journal stays header-only while no command has run.
    ASSERT_EQ(host.handle_line("NEW p " + config).rfind("OK ", 0), 0u);
  }
  ASSERT_FALSE(io::file_exists(dir + "/p.snapshot"));
  SessionHost host(dir, 4);
  // The header alone resumes to the fresh session, whose first suggest
  // is bit-identical to the original.
  const std::string reply = host.handle_line("SUGGEST p");
  ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  const Suggested again = parse_suggest_reply(reply);
  EXPECT_EQ(again.tag, first.tag);
  EXPECT_EQ(again.x, first.x);
}

TEST(ServeFaults, ConfigWithoutJournalRecreatesOnNextCommand) {
  const std::string dir = temp_dir("config_only");
  const std::string config = quick_config_json(11);
  std::filesystem::create_directories(dir);
  // The on-disk signature of a NEW that crashed right after persisting
  // the config: no journal, no snapshot.
  io::atomic_write_file(dir + "/r.config", config);
  SessionHost host(dir, 4);
  const std::string reply = host.handle_line("SUGGEST r");
  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  // And the files are complete now: a restart resumes normally.
  SessionHost reopened(dir, 4);
  EXPECT_EQ(reopened.handle_line("STATUS r").rfind("OK ", 0), 0u);
}

TEST(ServeFaults, FaultDuringNewIsRetryableWithoutQuarantine) {
  const std::string dir = temp_dir("new_retry");
  SessionHost host(dir, 4);
  const std::string config = quick_config_json(12);
  std::string reply;
  {
    io::FsFaultPlan plan;
    plan.eio_every = 1;
    plan.max_faults = 1;
    io::ScopedFsFaults faults(plan);
    reply = host.handle_line("NEW n " + config);
  }
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
  EXPECT_FALSE(host.is_quarantined("n"));
  // The retry completes the creation from whatever subset survived.
  const std::string retry = host.handle_line("NEW n " + config);
  EXPECT_EQ(retry.rfind("OK ", 0), 0u) << retry;
  EXPECT_EQ(host.handle_line("SUGGEST n").rfind("OK ", 0), 0u);
}

}  // namespace
}  // namespace easybo::serve
