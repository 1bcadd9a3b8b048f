// Tests for the session host (src/serve): wire-config round trips that
// preserve the checkpoint fingerprint, the line protocol's happy path
// and error replies, and the headline guarantee — a session driven over
// the protocol reproduces the bit-identical proposal sequence of a
// standalone seeded BoEngine::run, surviving LRU eviction, explicit
// CLOSE, host restart, and a config swapped out from under it (refused).

#include "serve/host.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/error.h"
#include "io/journal.h"
#include "io/json.h"
#include "serve/session_config.h"
#include "temp_dir.h"

namespace easybo::serve {
namespace {

using linalg::Vec;

/// Fresh per-test state directory under the gtest temp dir.
using tests::temp_dir;

/// Small sequential session config as its wire JSON. Sequential keeps the
/// observe order trivially identical between a protocol client and a
/// standalone engine, so proposal parity is exact.
std::string quick_config_json(std::uint64_t seed) {
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::Sequential;
  cfg.acq = bo::AcqKind::EasyBo;
  cfg.penalize = true;
  cfg.batch = 1;
  cfg.init_points = 4;
  cfg.max_sims = 10;
  cfg.seed = seed;
  cfg.on_eval_failure = bo::EvalFailurePolicy::Discard;
  cfg.acq_opt.sobol_candidates = 64;
  cfg.acq_opt.random_candidates = 32;
  cfg.acq_opt.refine_evals = 30;
  cfg.trainer.max_iters = 10;
  cfg.trainer.restarts = 1;
  opt::Bounds bounds;
  bounds.lower = {0.0, 0.0};
  bounds.upper = {1.0, 1.0};
  return session_config_json(cfg, bounds);
}

/// The proposal sequence a standalone engine produces for the same wire
/// config — the parity reference. Round-trips the JSON through the same
/// parser the host uses so both sides run the identical BoConfig.
std::vector<Vec> standalone_proposals(const std::string& config_json,
                                      const opt::Objective& objective) {
  SessionSpec spec = parse_session_config(config_json);
  bo::BoEngine engine(spec.config, spec.bounds, objective);
  const bo::BoResult result = engine.run();
  std::vector<Vec> xs;
  xs.reserve(result.evals.size());
  for (const auto& e : result.evals) xs.push_back(e.x);
  return xs;
}

struct WireSuggestion {
  std::size_t tag = 0;
  Vec x;
};

/// Parses "OK {\"tag\":N,\"x\":[...]}".
WireSuggestion parse_suggest_reply(const std::string& reply) {
  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  const io::JsonValue j = io::parse_json(reply.substr(3));
  WireSuggestion s;
  s.tag = static_cast<std::size_t>(j.at("tag").as_double());
  for (const auto& v : j.at("x").as_array()) s.x.push_back(v.as_double());
  return s;
}

/// Drives one session to budget exhaustion over the protocol: SUGGEST,
/// evaluate client-side, OBSERVE; returns the proposal sequence.
std::vector<Vec> drive_to_exhaustion(SessionHost& host,
                                     const std::string& name,
                                     const opt::Objective& objective) {
  std::vector<Vec> xs;
  for (;;) {
    const std::string reply = host.handle_line("SUGGEST " + name);
    if (reply.rfind("ERR ", 0) == 0) {
      EXPECT_NE(reply.find("budget exhausted"), std::string::npos) << reply;
      break;
    }
    const WireSuggestion s = parse_suggest_reply(reply);
    xs.push_back(s.x);
    const std::string ob = host.handle_line(
        "OBSERVE " + name + " " + std::to_string(s.tag) + " " +
        io::json_number(objective(s.x)));
    EXPECT_EQ(ob.rfind("OK ", 0), 0u) << ob;
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

// ---------------------------------------------------------------------------
// Wire config
// ---------------------------------------------------------------------------

TEST(SessionConfig, RoundTripPreservesTheCheckpointFingerprint) {
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::AsyncBatch;
  cfg.acq = bo::AcqKind::Phcbo;
  cfg.penalize = true;
  cfg.batch = 5;
  cfg.init_points = 12;
  cfg.max_sims = 77;
  cfg.seed = 0xDEADBEEFCAFEBABEull;  // above 2^53: needs the string path
  cfg.lambda = 4.5;
  cfg.lcb_kappa = 2.25;
  cfg.hc_d = 0.3;
  cfg.hc_n = 7.0;
  cfg.kernel = "matern52";
  cfg.refit_every = 3;
  cfg.on_eval_failure = bo::EvalFailurePolicy::Penalize;
  cfg.eval_failure_quantile = 0.25;
  opt::Bounds bounds;
  bounds.lower = {-1.0, 0.5, 2.0};
  bounds.upper = {1.0, 1.5, 8.0};

  const SessionSpec back =
      parse_session_config(session_config_json(cfg, bounds));
  EXPECT_EQ(bo::config_fingerprint(cfg, bounds),
            bo::config_fingerprint(back.config, back.bounds));
  EXPECT_EQ(back.config.seed, cfg.seed);
  EXPECT_EQ(back.bounds.lower, bounds.lower);
  EXPECT_EQ(back.bounds.upper, bounds.upper);
}

TEST(SessionConfig, RejectsUnknownKeysAbortPolicyAndContradictions) {
  EXPECT_THROW(parse_session_config("{\"dim\":2,\"bacth\":3}"), Error);
  EXPECT_THROW(
      parse_session_config("{\"dim\":2,\"on_eval_failure\":\"abort\"}"),
      Error);
  EXPECT_THROW(
      parse_session_config("{\"dim\":3,\"lower\":[0,0],\"upper\":[1,1]}"),
      Error);
  EXPECT_THROW(parse_session_config("{\"dim\":0}"), Error);
  EXPECT_THROW(parse_session_config("{\"dim\":2,\"gp_backend\":\"rff\"}"),
               Error);

  // Sessions have no abort channel, so the default policy is discard.
  const SessionSpec spec = parse_session_config("{\"dim\":2}");
  EXPECT_EQ(spec.config.on_eval_failure, bo::EvalFailurePolicy::Discard);
}

// A config file exactly as written while sessions still carried the RFF
// backend keys: it must parse to the fingerprint it was persisted under,
// or every such session would refuse to resume.
TEST(SessionConfig, ConfigWithRemovedBackendKeysKeepsItsFingerprint) {
  const std::string persisted =
      R"({"dim":2,"lower":[0,0],"upper":[1,1],"seed":"5",)"
      R"("mode":"sequential","acq":"EasyBO","penalize":true,"batch":1,)"
      R"("init_points":4,"max_sims":1e+01,"lambda":6,"uniform_w":false,)"
      R"("lcb_kappa":2,"ei_xi":0,"hc_d":0.1,"hc_n":1,"kernel":"se",)"
      R"("gp_backend":"exact","rff_features":128,"rff_train_subset":512,)"
      R"("pin_hallucinated_mean":false,"refit_every":5,)"
      R"("checkpoint_every":1,"async_slot_rotation":false,)"
      R"("on_eval_failure":"discard","eval_failure_quantile":0,)"
      R"("sobol_candidates":64,"random_candidates":32,)"
      R"("refine_evals":3e+01,"trainer_max_iters":1e+01,)"
      R"("trainer_restarts":1,"adapt_refit_cadence":false,)"
      R"("adapt_refit_budget":0.1})";
  const SessionSpec spec = parse_session_config(persisted);
  EXPECT_EQ(bo::config_fingerprint(spec.config, spec.bounds),
            11200848181943753265ull);
  // Today's writer drops the keys without moving the fingerprint.
  const SessionSpec rewritten =
      parse_session_config(session_config_json(spec.config, spec.bounds));
  EXPECT_EQ(bo::config_fingerprint(rewritten.config, rewritten.bounds),
            11200848181943753265ull);
}

// The removed keys are accepted only at the values every exact-GP session
// carried; anything else is refused with an error naming the key.
TEST(SessionConfig, RemovedBackendKeysAcceptOnlyTheirFrozenValues) {
  const auto error_for = [](const std::string& json) -> std::string {
    try {
      parse_session_config(json);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_for(R"({"dim":2,"gp_backend":"rff"})")
                .find("gp_backend \"rff\" was removed"),
            std::string::npos);
  EXPECT_NE(error_for(R"({"dim":2,"rff_features":256})").find("rff_features"),
            std::string::npos);
  EXPECT_NE(
      error_for(R"({"dim":2,"rff_train_subset":64})").find("rff_train_subset"),
      std::string::npos);
  EXPECT_EQ(error_for(R"({"dim":2,"gp_backend":"exact","rff_features":128,)"
                      R"("rff_train_subset":512})"),
            "");
  // The removed switches: false is how every persisted config carries
  // them; true would ask for a stream no code produces any more.
  for (const std::string key :
       {"pin_hallucinated_mean", "async_slot_rotation"}) {
    EXPECT_NE(error_for(R"({"dim":2,")" + key + R"(":true})")
                  .find(key + " was removed"),
              std::string::npos)
        << key;
    EXPECT_EQ(error_for(R"({"dim":2,")" + key + R"(":false})"), "") << key;
  }
}

// JSON has no non-finite numbers: an overflowing literal is an error, not
// an infinity that would poison EasyBO's weight map, and sizes past 2^53
// are refused before the conversion to size_t.
TEST(SessionConfig, RejectsNonFiniteAndOversizedNumbers) {
  EXPECT_THROW(io::parse_json("1e999"), Error);
  EXPECT_THROW(io::parse_json("[-1e999]"), Error);
  EXPECT_THROW(parse_session_config(R"({"dim":2,"lambda":1e999})"), Error);
  EXPECT_THROW(parse_session_config(R"({"dim":1e300})"), Error);
  EXPECT_THROW(parse_session_config(R"({"dim":2,"max_sims":1e19})"), Error);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(SessionHostTest, ProtocolHappyPathAndErrorReplies) {
  SessionHost host(temp_dir("protocol"), 4);

  EXPECT_EQ(host.handle_line("NEW s1 " + quick_config_json(5)),
            "OK created s1");
  const WireSuggestion s0 =
      parse_suggest_reply(host.handle_line("SUGGEST s1"));
  EXPECT_EQ(s0.tag, 0u);
  EXPECT_EQ(s0.x.size(), 2u);

  EXPECT_EQ(host.handle_line("OBSERVE s1 0 1.25"),
            "OK {\"action\":\"observed\"}");
  // The tag-keyed pending set makes a double observe a loud wire error.
  const std::string twice = host.handle_line("OBSERVE s1 0 1.25");
  EXPECT_NE(twice.find("ERR observe: evaluation 0 is not pending"),
            std::string::npos)
      << twice;

  const std::string status = host.handle_line("STATUS s1");
  ASSERT_EQ(status.rfind("OK ", 0), 0u);
  const io::JsonValue j = io::parse_json(status.substr(3));
  EXPECT_EQ(j.at("issued").as_double(), 1.0);
  EXPECT_EQ(j.at("observed").as_double(), 1.0);
  EXPECT_EQ(j.at("name").as_string(), "s1");

  // Failed evaluations cross the wire as replies, not aborts.
  const WireSuggestion s1 =
      parse_suggest_reply(host.handle_line("SUGGEST s1"));
  EXPECT_EQ(host.handle_line("OBSERVE s1 " + std::to_string(s1.tag) +
                             " fail timeout spice hung"),
            "OK {\"action\":\"discarded\"}");

  // Error replies, not crashes:
  EXPECT_EQ(host.handle_line("SUGGEST nosuch").rfind("ERR ", 0), 0u);
  EXPECT_EQ(host.handle_line("NEW bad/name {\"dim\":2}").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(host.handle_line("OBSERVE s1 notanumber 1.0").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(host.handle_line("FROB s1").rfind("ERR ", 0), 0u);
  EXPECT_EQ(host.handle_line("NEW s2 {\"dim\":2,\"bogus\":1}").rfind(
                "ERR session config: unknown key", 0),
            0u);
  for (const std::string key :
       {"pin_hallucinated_mean", "async_slot_rotation"}) {
    const std::string reply =
        host.handle_line("NEW s2 {\"dim\":2,\"" + key + "\":true}");
    EXPECT_EQ(reply.rfind("ERR session config: " + key + " was removed", 0),
              0u)
        << reply;
  }

  EXPECT_EQ(host.handle_line("CLOSE s1"), "OK closed s1");
  EXPECT_FALSE(host.is_live("s1"));
  // Closed is not gone: the files resume on demand.
  EXPECT_EQ(host.handle_line("STATUS s1").rfind("OK ", 0), 0u);
}

// A config whose first model proposal could only fail is refused at NEW,
// naming the key, and nothing is persisted for it.
TEST(SessionHostTest, NewRefusesConfigsThatCanNeverPropose) {
  const std::string dir = temp_dir("never_propose");
  SessionHost host(dir, 4);
  const std::string base = R"("dim":2,"init_points":2,"max_sims":10)";
  const std::pair<std::string, std::string> cases[] = {
      {R"("acq":"LCB","mode":"sequential","lcb_kappa":-1)", "lcb_kappa"},
      {R"("trainer_max_iters":0)", "max_iters"},
      {R"("trainer_max_iters":4294967296)", "trainer_max_iters"},
      {R"("trainer_restarts":2147483648)", "trainer_restarts"},
      {R"("sobol_candidates":0,"random_candidates":0)", "sobol_candidates"},
  };
  int i = 0;
  for (const auto& [payload, key] : cases) {
    SCOPED_TRACE(payload);
    const std::string name = "bad" + std::to_string(i++);
    const std::string reply =
        host.handle_line("NEW " + name + " {" + base + "," + payload + "}");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find(key), std::string::npos) << reply;
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + name + ".config"));
  }
}

// Thompson sampling and GP-Hedge were measured and retired
// (EXPERIMENTS.md): NEW refuses them by name and persists nothing.
TEST(SessionHostTest, NewRefusesRemovedAcquisitionsByName) {
  const std::string dir = temp_dir("removed_acq");
  SessionHost host(dir, 4);
  for (const std::string acq : {"TS", "Hedge"}) {
    const std::string name = "s" + acq;
    const std::string reply = host.handle_line(
        "NEW " + name + R"( {"dim":2,"acq":")" + acq + R"("})");
    EXPECT_EQ(reply, "ERR session config: acq \"" + acq +
                         "\" was removed (expected "
                         "EI|LCB|EasyBO|pBO|pHCBO|BUCB|LP)");
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + name + ".config"));
  }
}

// A session persisted while it ran Thompson sampling cannot continue: its
// config fails to load with the same message on every command, and its
// files stay as they were.
TEST(SessionHostTest, PersistedRemovedAcquisitionFailsToLoad) {
  const auto tf = circuit::sphere(2);
  const std::string dir = temp_dir("removed_acq_persisted");
  const std::string config = quick_config_json(3);
  {
    SessionHost host(dir, 4);
    ASSERT_EQ(host.handle_line("NEW run " + config), "OK created run");
    for (int i = 0; i < 2; ++i) {
      const WireSuggestion s =
          parse_suggest_reply(host.handle_line("SUGGEST run"));
      ASSERT_EQ(host.handle_line("OBSERVE run " + std::to_string(s.tag) +
                                 " " + io::json_number(tf.fn(s.x)))
                    .rfind("OK ", 0),
                0u);
    }
  }
  // The config as a Thompson-sampling session wrote it.
  std::string ts_config = config;
  const std::string easybo = R"("acq":"EasyBO")";
  ASSERT_NE(ts_config.find(easybo), std::string::npos);
  ts_config.replace(ts_config.find(easybo), easybo.size(), R"("acq":"TS")");
  io::atomic_write_file(dir + "/run.config", ts_config);
  const std::string journal = io::read_file(bo::journal_file(dir + "/run"));

  SessionHost host(dir, 4);
  for (const std::string& cmd : {std::string("SUGGEST run"),
                                 std::string("STATUS run"),
                                 std::string("OBSERVE run 2 1.0"),
                                 "NEW run " + config}) {
    EXPECT_EQ(host.handle_line(cmd),
              "ERR session config: acq \"TS\" was removed (expected "
              "EI|LCB|EasyBO|pBO|pHCBO|BUCB|LP)")
        << cmd;
  }
  EXPECT_EQ(io::read_file(bo::journal_file(dir + "/run")), journal);
}

TEST(SessionHostTest, NewRefusesMalformedSeedsNamingTheKey) {
  const std::string dir = temp_dir("bad_seed");
  SessionHost host(dir, 4);
  const std::string base = R"("dim":2,"init_points":2,"max_sims":10)";
  int i = 0;
  for (const char* seed : {"-1", " 7", "+7", "18446744073709551616"}) {
    SCOPED_TRACE(seed);
    const std::string name = "bad" + std::to_string(i++);
    const std::string reply = host.handle_line(
        "NEW " + name + " {" + base + R"(,"seed":")" + seed + "\"}");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find("\"seed\""), std::string::npos) << reply;
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + name + ".config"));
  }
  // The whole 64-bit range still crosses the wire.
  EXPECT_EQ(host.handle_line("NEW max {" + base +
                             R"(,"seed":"18446744073709551615"})"),
            "OK created max");
}

// ---------------------------------------------------------------------------
// Parity with standalone BoEngine runs
// ---------------------------------------------------------------------------

TEST(SessionHostTest, SessionReproducesStandaloneEngineBitForBit) {
  const auto tf = circuit::sphere(2);
  const std::string config = quick_config_json(42);
  SessionHost host(temp_dir("parity"), 4);
  ASSERT_EQ(host.handle_line("NEW run " + config), "OK created run");

  expect_same_proposals(drive_to_exhaustion(host, "run", tf.fn),
                        standalone_proposals(config, tf.fn));
}

TEST(SessionHostTest, LruEvictionPreservesEveryInterleavedStream) {
  const auto tf = circuit::sphere(2);
  constexpr std::size_t kSessions = 4;
  // max_live=2 with 4 round-robin sessions: every single turn of every
  // session beyond the first two runs against an evicted-and-resumed
  // object.
  SessionHost host(temp_dir("evict"), 2);

  std::vector<std::string> configs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    configs.push_back(quick_config_json(100 + i));
    const std::string name = "s" + std::to_string(i);
    ASSERT_EQ(host.handle_line("NEW " + name + " " + configs[i]),
              "OK created " + name);
  }

  std::vector<std::vector<Vec>> xs(kSessions);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < kSessions; ++i) {
      // Appended, not "s" + std::to_string(i): GCC 12 reads the insert
      // of a literal into a temporary as an overlapping copy
      // (-Wrestrict at -O3).
      const std::string name = std::string("s").append(std::to_string(i));
      const std::string reply = host.handle_line("SUGGEST " + name);
      if (reply.rfind("ERR ", 0) == 0) continue;
      progressed = true;
      const WireSuggestion s = parse_suggest_reply(reply);
      xs[i].push_back(s.x);
      ASSERT_EQ(host.handle_line("OBSERVE " + name + " " +
                                 std::to_string(s.tag) + " " +
                                 io::json_number(tf.fn(s.x)))
                    .rfind("OK ", 0),
                0u);
    }
  }
  EXPECT_LE(host.live_count(), 2u);
  for (std::size_t i = 0; i < kSessions; ++i) {
    expect_same_proposals(xs[i], standalone_proposals(configs[i], tf.fn));
  }
}

TEST(SessionHostTest, HostRestartResumesMidRunBitForBit) {
  const auto tf = circuit::sphere(2);
  const std::string dir = temp_dir("restart");
  const std::string config = quick_config_json(77);

  std::vector<Vec> xs;
  {
    SessionHost host(dir, 4);
    ASSERT_EQ(host.handle_line("NEW run " + config), "OK created run");
    for (int i = 0; i < 6; ++i) {
      const WireSuggestion s =
          parse_suggest_reply(host.handle_line("SUGGEST run"));
      xs.push_back(s.x);
      ASSERT_EQ(host.handle_line("OBSERVE run " + std::to_string(s.tag) +
                                 " " + io::json_number(tf.fn(s.x)))
                    .rfind("OK ", 0),
                0u);
    }
    // Host dies here; every mutation was already durable.
  }

  SessionHost reborn(dir, 4);
  const std::vector<Vec> rest = drive_to_exhaustion(reborn, "run", tf.fn);
  xs.insert(xs.end(), rest.begin(), rest.end());
  expect_same_proposals(xs, standalone_proposals(config, tf.fn));
}

TEST(SessionHostTest, ResumeRefusesASwappedConfig) {
  const auto tf = circuit::sphere(2);
  const std::string dir = temp_dir("swapped");
  {
    SessionHost host(dir, 4);
    ASSERT_EQ(host.handle_line("NEW run " + quick_config_json(1)),
              "OK created run");
    const WireSuggestion s =
        parse_suggest_reply(host.handle_line("SUGGEST run"));
    ASSERT_EQ(host.handle_line("OBSERVE run " + std::to_string(s.tag) +
                               " " + io::json_number(tf.fn(s.x)))
                  .rfind("OK ", 0),
              0u);
  }
  // A different seed is a different proposal stream; resuming the old
  // journal under it would splice the two.
  io::atomic_write_file(dir + "/run.config", quick_config_json(2));
  SessionHost host(dir, 4);
  const std::string reply = host.handle_line("SUGGEST run");
  EXPECT_EQ(reply.rfind("ERR checkpoint config mismatch", 0), 0u) << reply;
}

TEST(SessionHostTest, NewIsIdempotentAndNeverRestartsAStream) {
  const auto tf = circuit::sphere(2);
  SessionHost host(temp_dir("idempotent"), 4);
  const std::string config = quick_config_json(9);
  ASSERT_EQ(host.handle_line("NEW run " + config), "OK created run");
  const WireSuggestion first =
      parse_suggest_reply(host.handle_line("SUGGEST run"));

  // A reconnecting client re-sends NEW (even with a different config):
  // the running session and its issued tag survive.
  EXPECT_EQ(host.handle_line("NEW run " + quick_config_json(10)),
            "OK resumed run");
  const std::string status = host.handle_line("STATUS run");
  const io::JsonValue j = io::parse_json(status.substr(3));
  EXPECT_EQ(j.at("issued").as_double(), 1.0);
  EXPECT_EQ(host.handle_line("OBSERVE run " + std::to_string(first.tag) +
                             " 1.0"),
            "OK {\"action\":\"observed\"}");
}

}  // namespace
}  // namespace easybo::serve
