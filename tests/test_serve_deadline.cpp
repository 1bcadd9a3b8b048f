// Deadline-bounded serving: cooperative cancellation parity (a cut
// suggest consumed nothing — seeded sweeps with injected cuts + retries
// reproduce the uninterrupted proposal stream bit-identically, in both
// session modes and across a host restart), the worker pool's
// workers=0-vs-pooled equivalence, deadline cuts and rollback through
// the host, queue-wait shedding, the watchdog + quarantine ladder for
// requests that ignore cancellation, the STATUS try-lock busy fast path
// and the serve.* counter mirroring.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stop_token.h"
#include "io/json.h"
#include "obs/recording.h"
#include "serve/host.h"
#include "serve/session.h"
#include "serve/session_config.h"
#include "temp_dir.h"

namespace easybo::serve {
namespace {

using linalg::Vec;
using namespace std::chrono_literals;

using tests::temp_dir;

std::string config_json(std::uint64_t seed, bo::Mode mode,
                        std::size_t batch) {
  bo::BoConfig cfg;
  cfg.mode = mode;
  cfg.acq = bo::AcqKind::EasyBo;
  cfg.penalize = true;
  cfg.batch = batch;
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

std::vector<Vec> drive_to_exhaustion(SessionHost& host,
                                     const std::string& name) {
  std::vector<Vec> xs;
  for (;;) {
    const std::string reply = host.handle_line("SUGGEST " + name);
    if (reply.rfind("ERR ", 0) == 0) {
      EXPECT_NE(reply.find("budget exhausted"), std::string::npos) << reply;
      break;
    }
    const Suggested s = parse_suggest_reply(reply);
    xs.push_back(s.x);
    const std::string ob = host.handle_line(
        "OBSERVE " + name + " " + std::to_string(s.tag) + " " +
        io::json_number(objective_of(s.x)));
    EXPECT_EQ(ob.rfind("OK ", 0), 0u) << ob;
  }
  return xs;
}

/// The uninterrupted reference stream, straight through Session.
std::vector<Vec> reference_stream(const std::string& cfg,
                                  const std::string& dir) {
  auto s = Session::create("ref", parse_session_config(cfg), dir + "/ref");
  std::vector<Vec> xs;
  for (;;) {
    bo::Suggestion sg;
    try {
      sg = s->suggest();
    } catch (const Error&) {
      break;  // budget exhausted
    }
    xs.push_back(sg.x);
    s->observe_ok(sg.tag, objective_of(sg.x));
  }
  return xs;
}

/// Drives the same config while injecting deterministic cuts: each
/// suggest first runs under an after_polls(c) token; when the token
/// fires, the dirty session object is DISCARDED (the rollback the serve
/// layer performs), the session is resumed from its files, and the
/// suggest retried uninterrupted. Returns the proposal stream and the
/// number of cuts actually taken.
std::vector<Vec> cut_and_retry_stream(const std::string& cfg,
                                      const std::string& dir,
                                      std::size_t* cuts_out) {
  const std::string base = dir + "/cut";
  auto s = Session::create("cut", parse_session_config(cfg), base);
  std::vector<Vec> xs;
  std::size_t cuts = 0;
  // Deterministic cut points: 0 cuts at admission, small values cut the
  // init-phase and early model math, larger ones land mid-training or
  // mid-screening; values the computation outlives simply don't fire
  // (polling consumes no RNG, so a survived token changes nothing).
  const std::uint64_t cycle[] = {0, 1, 3, 7, 2, 30, 0, 5, 12, 1};
  std::size_t ci = 0;
  for (;;) {
    const common::StopToken token =
        common::StopToken::after_polls(cycle[ci++ % 10]);
    bo::Suggestion sg;
    try {
      sg = s->suggest(&token);
    } catch (const common::Cancelled&) {
      // The serve layer's rollback: drop the dirty object, resume from
      // the files (which never saw the cut suggest), retry clean.
      ++cuts;
      s.reset();
      s = Session::resume("cut", parse_session_config(cfg), base);
      try {
        sg = s->suggest();
      } catch (const Error&) {
        break;  // the retry found the budget exhausted
      }
    } catch (const Error&) {
      break;  // budget exhausted
    }
    xs.push_back(sg.x);
    s->observe_ok(sg.tag, objective_of(sg.x));
  }
  *cuts_out = cuts;
  return xs;
}

void expect_same_stream(const std::vector<Vec>& got,
                        const std::vector<Vec>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "proposal " << i << " diverged";
  }
}

TEST(ServeDeadline, CutSuggestsConsumeNothingSequentialMode) {
  const std::string dir = temp_dir("parity_seq");
  const std::string cfg = config_json(4242, bo::Mode::Sequential, 1);
  const std::vector<Vec> want = reference_stream(cfg, dir);
  ASSERT_GE(want.size(), 5u);
  std::size_t cuts = 0;
  const std::vector<Vec> got = cut_and_retry_stream(cfg, dir, &cuts);
  // The cycle starts with an admission cut, so at least the first
  // suggest plus some mid-computation ones were rolled back.
  EXPECT_GE(cuts, 2u);
  expect_same_stream(got, want);
}

TEST(ServeDeadline, CutSuggestsConsumeNothingAsyncBatchMode) {
  const std::string dir = temp_dir("parity_async");
  const std::string cfg = config_json(777, bo::Mode::AsyncBatch, 2);
  const std::vector<Vec> want = reference_stream(cfg, dir);
  ASSERT_GE(want.size(), 5u);
  std::size_t cuts = 0;
  const std::vector<Vec> got = cut_and_retry_stream(cfg, dir, &cuts);
  EXPECT_GE(cuts, 2u);
  expect_same_stream(got, want);
}

TEST(ServeDeadline, PooledHostReproducesDirectHostStreams) {
  // workers=0 (direct) and a pooled host with a generous deadline must
  // produce bit-identical streams: the pool only moves WHERE a command
  // runs, never what it computes.
  const std::string cfg = config_json(99, bo::Mode::Sequential, 1);
  std::vector<Vec> direct;
  {
    SessionHost host(temp_dir("pool_direct"), 4);
    ASSERT_EQ(host.handle_line("NEW a " + cfg).rfind("OK ", 0), 0u);
    direct = drive_to_exhaustion(host, "a");
    ASSERT_FALSE(direct.empty());
  }
  HostLimits limits;
  limits.serve_workers = 2;
  limits.request_deadline_s = 60.0;  // generous: sanitizers are slow
  limits.queue_wait_s = 0.0;         // never shed in this test
  SessionHost pooled(temp_dir("pool_pooled"), 4, limits);
  ASSERT_EQ(pooled.handle_line("NEW a " + cfg).rfind("OK ", 0), 0u);
  expect_same_stream(drive_to_exhaustion(pooled, "a"), direct);
  EXPECT_EQ(pooled.deadline_cut_count(), 0u);
  EXPECT_EQ(pooled.queue_shed_count(), 0u);
  EXPECT_EQ(pooled.watchdog_trip_count(), 0u);
}

TEST(ServeDeadline, DeadlineCutRollsBackAndSurvivesRestart) {
  const std::string cfg = config_json(1234, bo::Mode::Sequential, 1);
  // Reference: the first proposal of an undisturbed host.
  Vec first_x;
  {
    SessionHost ref(temp_dir("cutref"), 4);
    ASSERT_EQ(ref.handle_line("NEW s " + cfg).rfind("OK ", 0), 0u);
    first_x = parse_suggest_reply(ref.handle_line("SUGGEST s")).x;
  }

  const std::string dir = temp_dir("cut");
  HostLimits limits;
  limits.serve_workers = 2;
  limits.request_deadline_s = 0.15;
  limits.watchdog_grace_s = 10.0;  // cooperative cut, not a watchdog trip
  limits.queue_wait_s = 0.0;
  obs::RecordingSink sink;
  {
    SessionHost host(dir, 4, limits);
    host.set_trace(&sink);
    ASSERT_EQ(host.handle_line("NEW s " + cfg).rfind("OK ", 0), 0u);
    SessionHost::DebugSlowdown slow;
    slow.session = "s";
    slow.sleep_s = 5.0;  // cooperative: the token cuts it at ~150ms
    host.set_debug_slowdown(slow);
    const std::string reply = host.handle_line("SUGGEST s");
    EXPECT_EQ(reply.rfind("ERR deadline s", 0), 0u) << reply;
    EXPECT_NE(reply.find("retry"), std::string::npos) << reply;
    EXPECT_EQ(host.deadline_cut_count(), 1u);
    EXPECT_EQ(host.watchdog_trip_count(), 0u);
    EXPECT_EQ(sink.counter("serve.deadline_cut"), 1u);
    EXPECT_FALSE(host.is_quarantined("s"));
    // Retry on the same host, slowdown cleared: identical first proposal
    // — the cut consumed nothing.
    host.set_debug_slowdown({});
    const Suggested retried = parse_suggest_reply(host.handle_line("SUGGEST s"));
    EXPECT_EQ(retried.tag, 0u);
    EXPECT_EQ(retried.x, first_x);
    host.set_trace(nullptr);
  }
  // And a cut survives process death too (restart analogue): nothing of
  // it ever reached the files.
  std::filesystem::remove_all(dir);
  {
    SessionHost host(dir, 4, limits);
    ASSERT_EQ(host.handle_line("NEW s " + cfg).rfind("OK ", 0), 0u);
    SessionHost::DebugSlowdown slow;
    slow.session = "s";
    slow.sleep_s = 5.0;
    host.set_debug_slowdown(slow);
    EXPECT_EQ(host.handle_line("SUGGEST s").rfind("ERR deadline", 0), 0u);
  }
  SessionHost reopened(dir, 4, limits);
  const Suggested after = parse_suggest_reply(reopened.handle_line("SUGGEST s"));
  EXPECT_EQ(after.tag, 0u);
  EXPECT_EQ(after.x, first_x);
}

TEST(ServeDeadline, WatchdogQuarantinesOnlyTheRunawaySession) {
  const std::string cfg = config_json(31, bo::Mode::Sequential, 1);
  HostLimits limits;
  limits.serve_workers = 2;
  limits.request_deadline_s = 0.1;
  limits.watchdog_grace_s = 0.1;
  limits.queue_wait_s = 0.0;
  obs::RecordingSink sink;
  SessionHost host(temp_dir("watchdog"), 4, limits);
  host.set_trace(&sink);
  ASSERT_EQ(host.handle_line("NEW stuck " + cfg).rfind("OK ", 0), 0u);
  ASSERT_EQ(host.handle_line("NEW fine " + config_json(32, bo::Mode::Sequential, 1))
                .rfind("OK ", 0),
            0u);

  SessionHost::DebugSlowdown slow;
  slow.session = "stuck";
  slow.sleep_s = 0.6;
  slow.ignore_stop = true;  // no safe checkpoints: the watchdog case
  host.set_debug_slowdown(slow);

  const std::string reply = host.handle_line("SUGGEST stuck");
  EXPECT_EQ(reply.rfind("ERR deadline stuck", 0), 0u) << reply;
  EXPECT_NE(reply.find("watchdog"), std::string::npos) << reply;
  EXPECT_EQ(host.watchdog_trip_count(), 1u);
  EXPECT_EQ(sink.counter("serve.watchdog_trips"), 1u);

  // While the runaway still executes, commands on its session refuse
  // fast (poisoned or, once the quarantine lands, quarantined) — they
  // never queue behind its lock.
  const std::string while_stuck = host.handle_line("SUGGEST stuck");
  EXPECT_EQ(while_stuck.rfind("ERR ", 0), 0u) << while_stuck;

  // The OTHER session is entirely unaffected throughout.
  EXPECT_EQ(host.handle_line("SUGGEST fine").rfind("OK ", 0), 0u);

  // Once the runaway computation returns, the quarantine lands (and the
  // pre-commit token gate means it committed nothing).
  bool quarantined = false;
  for (int spin = 0; spin < 2000 && !quarantined; ++spin) {
    quarantined = host.is_quarantined("stuck");
    if (!quarantined) std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(quarantined);
  EXPECT_EQ(host.quarantined_count(), 1u);
  const std::string q = host.handle_line("SUGGEST stuck");
  EXPECT_EQ(q.rfind("ERR quarantined stuck", 0), 0u) << q;

  // CLOSE clears the quarantine; the rolled-back session then serves its
  // very first proposal — the runaway consumed nothing.
  host.set_debug_slowdown({});
  EXPECT_EQ(host.handle_line("CLOSE stuck").rfind("OK ", 0), 0u);
  const Suggested s = parse_suggest_reply(host.handle_line("SUGGEST stuck"));
  EXPECT_EQ(s.tag, 0u);
  host.set_trace(nullptr);
}

TEST(ServeDeadline, QueueWaitCapShedsStaleRequests) {
  const std::string cfg_a = config_json(61, bo::Mode::Sequential, 1);
  const std::string cfg_b = config_json(62, bo::Mode::Sequential, 1);
  HostLimits limits;
  limits.serve_workers = 1;  // one worker serializes the two sessions
  limits.request_deadline_s = 0.0;  // no deadline: isolate the wait cap
  limits.queue_wait_s = 0.05;
  SessionHost host(temp_dir("waitcap"), 4, limits);
  ASSERT_EQ(host.handle_line("NEW a " + cfg_a).rfind("OK ", 0), 0u);
  ASSERT_EQ(host.handle_line("NEW b " + cfg_b).rfind("OK ", 0), 0u);

  SessionHost::DebugSlowdown slow;
  slow.session = "a";
  slow.sleep_s = 0.3;  // cooperative, but no deadline: runs to completion
  host.set_debug_slowdown(slow);

  std::string slow_reply;
  std::thread slow_client([&] { slow_reply = host.handle_line("SUGGEST a"); });
  // Wait until the slow SUGGEST occupies the single worker: STATUS a
  // answers "busy" only while the worker holds a's session lock. (Bare
  // STATUS counts a request in flight before it reaches the queue, so b's
  // SUGGEST could still get to the worker first.)
  bool a_running = false;
  for (int spin = 0; spin < 2000 && !a_running; ++spin) {
    a_running = host.handle_line("STATUS a").find("\"busy\":true") !=
                std::string::npos;
    if (!a_running) std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(a_running);
  // b's request sits queued behind a's 300ms sleep — far past the 50ms
  // cap — and is shed at dequeue without touching the session.
  const std::string shed = host.handle_line("SUGGEST b");
  EXPECT_EQ(shed.rfind("ERR busy", 0), 0u) << shed;
  EXPECT_NE(shed.find("queue-wait cap"), std::string::npos) << shed;
  EXPECT_GE(host.queue_shed_count(), 1u);
  slow_client.join();
  EXPECT_EQ(slow_reply.rfind("OK ", 0), 0u) << slow_reply;

  // The shed left no mark: b's stream starts at tag 0.
  host.set_debug_slowdown({});
  EXPECT_EQ(parse_suggest_reply(host.handle_line("SUGGEST b")).tag, 0u);
}

TEST(ServeDeadline, StatusBusyFastPathServesCachedSummary) {
  const std::string cfg = config_json(71, bo::Mode::Sequential, 1);
  SessionHost host(temp_dir("statusbusy"), 4);  // direct mode
  ASSERT_EQ(host.handle_line("NEW s " + cfg).rfind("OK ", 0), 0u);
  // Populate the cache with one completed command.
  ASSERT_EQ(host.handle_line("STATUS s").rfind("OK ", 0), 0u);

  SessionHost::DebugSlowdown slow;
  slow.session = "s";
  slow.sleep_s = 0.4;
  host.set_debug_slowdown(slow);
  std::string suggest_reply;
  std::thread client([&] { suggest_reply = host.handle_line("SUGGEST s"); });

  // While the SUGGEST holds the slot lock, STATUS answers immediately
  // from the cache instead of queueing behind the model math.
  bool saw_busy = false;
  for (int spin = 0; spin < 2000 && !saw_busy; ++spin) {
    const std::string status = host.handle_line("STATUS s");
    ASSERT_EQ(status.rfind("OK ", 0), 0u) << status;
    const io::JsonValue j = io::parse_json(status.substr(3));
    if (j.find("busy") != nullptr && j.at("busy").as_bool()) {
      saw_busy = true;
      // The cached summary is the full status object of the last
      // completed command.
      ASSERT_TRUE(j.find("last") != nullptr);
      EXPECT_EQ(j.at("last").at("name").as_string(), "s");
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_TRUE(saw_busy);
  client.join();
  EXPECT_EQ(suggest_reply.rfind("OK ", 0), 0u) << suggest_reply;
  // Uncontended again: the normal status object, no "busy" marker.
  const std::string status = host.handle_line("STATUS s");
  EXPECT_EQ(io::parse_json(status.substr(3)).find("busy"), nullptr);
}

TEST(ServeDeadline, HealthPlaneCarriesPoolGaugesAndCounters) {
  const std::string cfg = config_json(81, bo::Mode::Sequential, 1);
  HostLimits limits;
  limits.serve_workers = 2;
  limits.request_deadline_s = 0.1;
  limits.watchdog_grace_s = 10.0;
  SessionHost host(temp_dir("health"), 4, limits);
  ASSERT_EQ(host.handle_line("NEW s " + cfg).rfind("OK ", 0), 0u);
  SessionHost::DebugSlowdown slow;
  slow.session = "s";
  slow.sleep_s = 5.0;
  host.set_debug_slowdown(slow);
  ASSERT_EQ(host.handle_line("SUGGEST s").rfind("ERR deadline", 0), 0u);
  host.set_debug_slowdown({});

  const std::string health = host.handle_line("STATUS");
  ASSERT_EQ(health.rfind("OK ", 0), 0u);
  const io::JsonValue j = io::parse_json(health.substr(3));
  EXPECT_EQ(j.at("workers").as_double(), 2.0);
  EXPECT_EQ(j.at("queue_depth").as_double(), 0.0);
  EXPECT_EQ(j.at("deadline_cut").as_double(), 1.0);
  EXPECT_EQ(j.at("queue_shed").as_double(), 0.0);
  EXPECT_EQ(j.at("watchdog_trips").as_double(), 0.0);
  EXPECT_GE(j.at("retry_hint_ms").as_double(), 25.0);
  EXPECT_LE(j.at("retry_hint_ms").as_double(), 30000.0);
  // The online stats objects are present and counted the cut request.
  EXPECT_GE(j.at("queue_wait").at("count").as_double(), 1.0);
  EXPECT_GE(j.at("exec").at("count").as_double(), 1.0);
  // Health ints and accessors agree (the obs_tail --check-health
  // contract reconciles these against the stream counters).
  EXPECT_EQ(j.at("deadline_cut").as_double(),
            static_cast<double>(host.deadline_cut_count()));
}

TEST(ServeDeadline, DirectModeHealthOmitsPoolStatsButKeepsCounters) {
  SessionHost host(temp_dir("health_direct"), 4);
  const std::string health = host.handle_line("STATUS");
  ASSERT_EQ(health.rfind("OK ", 0), 0u);
  const io::JsonValue j = io::parse_json(health.substr(3));
  EXPECT_EQ(j.at("workers").as_double(), 0.0);
  EXPECT_EQ(j.at("deadline_cut").as_double(), 0.0);
  EXPECT_EQ(j.at("queue_shed").as_double(), 0.0);
  EXPECT_EQ(j.at("watchdog_trips").as_double(), 0.0);
  EXPECT_EQ(j.find("queue_wait"), nullptr);
  EXPECT_EQ(j.find("exec"), nullptr);
}

}  // namespace
}  // namespace easybo::serve
