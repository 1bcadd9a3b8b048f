// Table-driven protocol fuzz/abuse suite for SessionHost::handle_line.
// Every malformed input must produce exactly one reply line starting
// "ERR " — and must leave the host's durable state bit-identical: we
// hash every file in the state directory before and after each input,
// and re-check STATUS for the one live session.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

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
  cfg.max_sims = 6;
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

std::map<std::string, std::string> dir_contents(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    out.emplace(entry.path().string(), std::move(bytes));
  }
  return out;
}

struct FuzzCase {
  std::string label;
  std::string input;
};

/// \p live is the tag of the session's in-flight suggestion, so a value
/// the OBSERVE grammar should refuse would otherwise be observed.
std::vector<FuzzCase> fuzz_corpus(const std::string& live) {
  std::vector<FuzzCase> cases = {
      {"empty line", ""},
      {"whitespace only", "   "},
      {"unknown verb", "FROB s"},
      {"lowercase verb", "suggest s"},
      {"verb glued to name", "SUGGESTs"},
      {"NEW without name", "NEW"},
      {"NEW without config", "NEW fresh"},
      {"NEW with truncated json", "NEW fresh {\"mode\":"},
      {"NEW with non-object config", "NEW fresh 42"},
      {"NEW with unknown config key", "NEW fresh {\"bogus\":1}"},
      {"NEW with overflowing lambda", "NEW fresh {\"dim\":2,\"lambda\":1e999}"},
      {"NEW with astronomical dim", "NEW fresh {\"dim\":1e300}"},
      {"NEW with path-traversal name", "NEW ../../etc/passwd {}"},
      {"NEW with absolute-path name", "NEW /tmp/x {}"},
      {"NEW with dot name", "NEW . {}"},
      {"NEW with leading dash", "NEW -rf {}"},
      {"NEW with non-ascii name", "NEW caf\xc3\xa9 {}"},
      {"NEW with raw latin1 name", "NEW caf\xe9 {}"},
      {"NEW with overlong name",
       "NEW " + std::string(300, 'a') + " {}"},
      {"SUGGEST without name", "SUGGEST"},
      {"SUGGEST unknown session", "SUGGEST nosuch"},
      {"SUGGEST trailing garbage", "SUGGEST s extra"},
      {"OBSERVE truncated at name", "OBSERVE s"},
      {"OBSERVE truncated at tag", "OBSERVE s 0"},
      {"OBSERVE non-numeric tag", "OBSERVE s abc 1.0"},
      {"OBSERVE negative tag", "OBSERVE s -1 1.0"},
      {"OBSERVE non-pending tag", "OBSERVE s 999 1.0"},
      {"OBSERVE non-numeric value", "OBSERVE s 0 bogus"},
      {"OBSERVE positive infinity", "OBSERVE s 0 inf"},
      {"OBSERVE negative infinity", "OBSERVE s 0 -inf"},
      {"OBSERVE nan", "OBSERVE s 0 nan"},
      {"OBSERVE overflowing literal", "OBSERVE s 0 1e999"},
      // Outside the RFC 8259 number grammar, sent to the live tag.
      {"OBSERVE hex literal", "OBSERVE s " + live + " 0x10"},
      {"OBSERVE trailing dot", "OBSERVE s " + live + " 1."},
      {"OBSERVE explicit plus", "OBSERVE s " + live + " +1"},
      {"OBSERVE leading dot", "OBSERVE s " + live + " .5"},
      {"OBSERVE leading zeros", "OBSERVE s " + live + " 00012"},
      {"OBSERVE trailing garbage", "OBSERVE s 0 1.0 extra"},
      {"OBSERVE unknown failure status", "OBSERVE s 0 fail bogus"},
      {"STATUS unknown session", "STATUS nosuch"},
      {"STATUS invalid name", "STATUS ../oops"},
      {"CLOSE unknown session", "CLOSE nosuch"},
      {"embedded NUL", std::string("STATUS s\0", 9)},
      {"leading NUL", std::string("\0STATUS", 7)},
      {"control byte in name", "STATUS s\x01"},
      {"bell and backspace soup", "NEW \x07\x08 {}"},
      {"escape sequence injection", "STATUS \x1b[31mred\x1b[0m"},
      {"oversized line", std::string(kMaxLineBytes + 1, 'A')},
      {"oversized observe",
       "OBSERVE s 0 " + std::string(kMaxLineBytes, '9')},
  };
  return cases;
}

TEST(ServeFuzz, EveryMalformedInputGetsOneErrAndChangesNothing) {
  const std::string dir = temp_dir("corpus");
  SessionHost host(dir, 4);

  // One live session with an in-flight suggestion and one observation,
  // so OBSERVE-shaped garbage has real state to threaten.
  ASSERT_EQ(host.handle_line("NEW s " + quick_config_json(7)).rfind("OK ", 0),
            0u);
  const std::string first = host.handle_line("SUGGEST s");
  ASSERT_EQ(first.rfind("OK ", 0), 0u);
  {
    const io::JsonValue j = io::parse_json(first.substr(3));
    const auto tag = static_cast<std::size_t>(j.at("tag").as_double());
    ASSERT_EQ(host.handle_line("OBSERVE s " + std::to_string(tag) + " 0.25")
                  .rfind("OK ", 0),
              0u);
  }
  const std::string suggested = host.handle_line("SUGGEST s");
  ASSERT_EQ(suggested.rfind("OK ", 0), 0u);
  const std::string live = std::to_string(static_cast<std::size_t>(
      io::parse_json(suggested.substr(3)).at("tag").as_double()));

  const auto disk_before = dir_contents(dir);
  const std::string status_before = host.handle_line("STATUS s");
  ASSERT_EQ(status_before.rfind("OK ", 0), 0u);

  for (const FuzzCase& c : fuzz_corpus(live)) {
    SCOPED_TRACE(c.label);
    const std::string reply = host.handle_line(c.input);
    // Exactly one ERR line: correct prefix, no embedded newlines, and
    // nothing echoed back raw (control bytes must not reach the reply).
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_EQ(reply.find('\n'), std::string::npos) << reply;
    for (const char ch : reply) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u)
          << "control byte in reply: " << reply;
    }
    // Durable state is bit-identical and the live session is untouched.
    EXPECT_EQ(dir_contents(dir), disk_before);
    EXPECT_EQ(host.handle_line("STATUS s"), status_before);
    EXPECT_EQ(host.quarantined_count(), 0u);
  }

  // The session is still fully operational: the pending suggestion can
  // be observed and the stream continues.
  EXPECT_EQ(host.handle_line("OBSERVE s " + live + " 0.5").rfind("OK ", 0),
            0u);
  EXPECT_EQ(host.handle_line("SUGGEST s").rfind("OK ", 0), 0u);
}

TEST(ServeFuzz, MalformedNewNeverCreatesStateOnDisk) {
  const std::string dir = temp_dir("no_side_effects");
  SessionHost host(dir, 4);
  // The state dir is created lazily; garbage NEWs must not populate it.
  for (const char* line : {"NEW", "NEW bad/name {}", "NEW x", "NEW x nope",
                           "NEW x {\"unknown\":true}"}) {
    SCOPED_TRACE(line);
    EXPECT_EQ(host.handle_line(line).rfind("ERR ", 0), 0u);
  }
  EXPECT_EQ(host.live_count(), 0u);
  if (std::filesystem::exists(dir)) {
    EXPECT_EQ(dir_contents(dir), (std::map<std::string, std::string>{}));
  }
}

TEST(ServeFuzz, RepeatedAbuseDoesNotGrowTheSessionTable) {
  const std::string dir = temp_dir("table_bound");
  SessionHost host(dir, 4);
  for (int i = 0; i < 200; ++i) {
    const std::string name = "ghost" + std::to_string(i);
    EXPECT_EQ(host.handle_line("SUGGEST " + name).rfind("ERR ", 0), 0u);
    EXPECT_EQ(host.handle_line("STATUS " + name).rfind("ERR ", 0), 0u);
  }
  // Probes for sessions that never existed must not leak table entries.
  EXPECT_EQ(host.live_count(), 0u);
}

}  // namespace
}  // namespace easybo::serve
