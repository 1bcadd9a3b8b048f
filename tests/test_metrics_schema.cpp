// Golden-file pin of the "easybo.metrics.v1" exports (obs/metrics):
// a hand-built deterministic MetricsReport must serialize byte-for-byte
// to tests/golden/metrics_v1.{json,csv}. Any schema drift — a renamed
// key, a reordered section, a changed number format — fails here with a
// readable first-difference diff instead of silently breaking every
// downstream consumer (scripts/plot_metrics.py, scripts/obs_tail.py
// --check-counters, operator dashboards). docs/metrics-schema.md is the
// prose contract; this test is the executable one.
//
// Regenerating after an INTENTIONAL schema change:
//   EASYBO_REGEN_GOLDEN=1 ./test_metrics_schema
// then review the diff of tests/golden/ like any other API change, and
// bump the additive-change note in docs/metrics-schema.md.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "obs/trace.h"

#ifndef EASYBO_TESTS_GOLDEN_DIR
#error "EASYBO_TESTS_GOLDEN_DIR must point at tests/golden"
#endif

namespace easybo::obs {
namespace {

std::string golden_path(const std::string& file) {
  return std::string(EASYBO_TESTS_GOLDEN_DIR) + "/" + file;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with EASYBO_REGEN_GOLDEN=1)";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Byte-for-byte comparison with a human-readable first-difference
/// excerpt, so a schema break reads as "here is where the formats
/// diverge", not as a thousand-character string inequality.
void expect_matches_golden(const std::string& actual,
                           const std::string& file) {
  const std::string path = golden_path(file);
  if (std::getenv("EASYBO_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot regenerate " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string expected = read_file(path);
  if (actual == expected) return;
  std::size_t pos = 0;
  const std::size_t limit = std::min(actual.size(), expected.size());
  while (pos < limit && actual[pos] == expected[pos]) ++pos;
  const std::size_t from = pos < 40 ? 0 : pos - 40;
  auto excerpt = [&](const std::string& s) {
    return s.substr(from, std::min<std::size_t>(100, s.size() - from));
  };
  FAIL() << "schema drift against " << file << " at byte " << pos
         << "\n  golden: ..." << excerpt(expected)
         << "\n  actual: ..." << excerpt(actual)
         << "\nIf this change is intentional, regenerate with "
            "EASYBO_REGEN_GOLDEN=1 and update docs/metrics-schema.md.";
}

/// A fully-populated report with hand-picked values that exercise the
/// number formatting (integers, shortest-round-trip doubles, values
/// needing all 17 significant digits) and every section of the schema.
MetricsReport pinned_report() {
  MetricsReport r;
  r.makespan_seconds = 123.456;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    PhaseStat ps;
    ps.name = to_string(static_cast<Phase>(p));
    ps.seconds = 0.125 * static_cast<double>(p);  // exact in binary
    ps.spans = 2 * p;
    r.phases.push_back(ps);
  }
  r.counters = {{"bo.hyper_refit", 7},
                {"bo.proposals.EasyBO", 40},
                {"eval.retries", 3},
                {"gp.chol_extend", 33},
                {"obs.stream_dropped", 0}};
  r.workers = {{0, 100.0, 23.456}, {1, 99.5, 23.956}};
  EvalLogEntry ok;
  ok.index = 0;
  ok.status = "ok";
  ok.action = "observed";
  ok.attempts = 1;
  ok.worker = 0;
  ok.start = 0.0;
  ok.finish = 0.1;  // NOT exactly representable: pins the %.17g format
  r.evals.push_back(ok);
  EvalLogEntry failed;
  failed.index = 1;
  failed.status = "timeout";
  failed.action = "penalized";
  failed.attempts = 3;
  failed.worker = 1;
  failed.start = 0.5;
  failed.finish = 30.5;
  r.evals.push_back(failed);
  return r;
}

TEST(MetricsSchema, JsonExportMatchesGoldenByteForByte) {
  expect_matches_golden(pinned_report().to_json() + "\n",
                        "metrics_v1.json");
}

TEST(MetricsSchema, CsvExportMatchesGoldenByteForByte) {
  expect_matches_golden(pinned_report().to_csv(), "metrics_v1.csv");
}

TEST(MetricsSchema, SeededRunExportIsStructurallySound) {
  // A real engine run's export must carry the schema tag first, every
  // phase key (present even at zero), sorted counters and a coherent
  // per-eval log — the properties obs_tail.py and plot_metrics.py lean
  // on without defensive checks.
  circuit::TestFunction tf = circuit::branin();
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::AsyncBatch;
  cfg.acq = bo::AcqKind::EasyBo;
  cfg.penalize = true;
  cfg.batch = 3;
  cfg.init_points = 5;
  cfg.max_sims = 12;
  cfg.seed = 5;
  cfg.acq_opt.sobol_candidates = 32;
  cfg.acq_opt.random_candidates = 16;
  cfg.acq_opt.refine_evals = 10;
  cfg.trainer.max_iters = 5;
  cfg.trainer.restarts = 1;
  obs::RecordingSink sink;
  bo::BoEngine engine(cfg, tf.bounds, tf.fn, nullptr);
  engine.set_trace(&sink);
  const bo::BoResult result = engine.run();
  const std::string json = result.metrics.to_json();

  EXPECT_EQ(json.rfind("{\"schema\":\"easybo.metrics.v1\"", 0), 0u) << json;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const std::string key =
        std::string("\"") + to_string(static_cast<Phase>(p)) + "\":{";
    EXPECT_NE(json.find(key), std::string::npos)
        << "phase key missing: " << key;
  }
  ASSERT_FALSE(result.metrics.counters.empty());
  EXPECT_TRUE(std::is_sorted(
      result.metrics.counters.begin(), result.metrics.counters.end(),
      [](const CounterStat& a, const CounterStat& b) {
        return a.name < b.name;
      }));
  EXPECT_EQ(result.metrics.evals.size(), cfg.max_sims);
  EXPECT_GT(result.metrics.makespan_seconds, 0.0);
}

}  // namespace
}  // namespace easybo::obs
