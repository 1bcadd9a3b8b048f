// Tests for the observability layer (src/obs): ScopedTimer / counter
// accounting against null and recording sinks, report assembly, merging,
// and the JSON/CSV export schemas that the CLI and benches emit.

#include "obs/metrics.h"
#include "obs/recording.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace easybo::obs {
namespace {

TEST(TraceSink, NullSinkAcceptsEverything) {
  // The helpers must be safe on nullptr, the null sink every production
  // run defaults to, and change nothing observable.
  count(nullptr, "gp.chol_extend");
  count(nullptr, "gp.chol_extend", 7);
  { ScopedTimer span(nullptr, Phase::ModelFit); }
  ScopedTimer early(nullptr, Phase::AcqMaximize);
  early.stop();
  early.stop();  // idempotent
}

TEST(TraceSink, PhaseNamesAreStableSnakeCase) {
  // These strings are the JSON/CSV keys; renaming one breaks consumers.
  EXPECT_STREQ(to_string(Phase::InitDesign), "init_design");
  EXPECT_STREQ(to_string(Phase::ModelFit), "model_fit");
  EXPECT_STREQ(to_string(Phase::HyperRefit), "hyper_refit");
  EXPECT_STREQ(to_string(Phase::AcqMaximize), "acq_maximize");
  EXPECT_STREQ(to_string(Phase::ObjectiveEval), "objective_eval");
  EXPECT_STREQ(to_string(Phase::ExecutorWait), "executor_wait");
}

TEST(RecordingSink, AccumulatesCountersAndSpans) {
  RecordingSink sink;
  EXPECT_EQ(sink.counter("gp.chol_extend"), 0u);

  count(&sink, "gp.chol_extend");
  count(&sink, "gp.chol_extend", 4);
  count(&sink, "bo.dedup_nudge");
  EXPECT_EQ(sink.counter("gp.chol_extend"), 5u);
  EXPECT_EQ(sink.counter("bo.dedup_nudge"), 1u);
  EXPECT_EQ(sink.counter("never.fired"), 0u);

  { ScopedTimer span(&sink, Phase::ModelFit); }
  { ScopedTimer span(&sink, Phase::ModelFit); }
  EXPECT_EQ(sink.spans(Phase::ModelFit), 2u);
  EXPECT_GE(sink.seconds(Phase::ModelFit), 0.0);
  EXPECT_EQ(sink.spans(Phase::AcqMaximize), 0u);

  sink.add_time(Phase::ObjectiveEval, 2.5);
  sink.add_time(Phase::ObjectiveEval, 1.5);
  EXPECT_DOUBLE_EQ(sink.seconds(Phase::ObjectiveEval), 4.0);
  EXPECT_EQ(sink.spans(Phase::ObjectiveEval), 2u);
}

TEST(RecordingSink, StopEndsTheSpanEarlyAndOnce) {
  RecordingSink sink;
  {
    ScopedTimer span(&sink, Phase::HyperRefit);
    span.stop();
    span.stop();  // second stop is a no-op
  }                // destructor must not double-report
  EXPECT_EQ(sink.spans(Phase::HyperRefit), 1u);
}

TEST(RecordingSink, ConcurrentRecordingIsSafe) {
  // Executor workers and the proposer may record at once; run a burst of
  // writers so the TSan CI job can prove the locking (and the plain job
  // at least the arithmetic: totals must not lose increments).
  RecordingSink sink;
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < kIters; ++i) {
        count(&sink, "shared.counter");
        sink.add_time(Phase::ObjectiveEval, 0.001);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sink.counter("shared.counter"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(sink.spans(Phase::ObjectiveEval),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(RecordingSink, ReportListsAllPhasesAndSortedCounters) {
  RecordingSink sink;
  count(&sink, "zeta", 2);
  count(&sink, "alpha", 1);
  sink.add_time(Phase::AcqMaximize, 0.5);

  const MetricsReport report = sink.report();
  // Every phase appears, declaration order, zeros included.
  ASSERT_EQ(report.phases.size(), kNumPhases);
  EXPECT_EQ(report.phases.front().name, "init_design");
  EXPECT_EQ(report.phases.back().name, "checkpoint");
  EXPECT_DOUBLE_EQ(report.phase_seconds("acq_maximize"), 0.5);
  EXPECT_DOUBLE_EQ(report.phase_seconds("model_fit"), 0.0);
  // Counters sorted by name.
  ASSERT_EQ(report.counters.size(), 2u);
  EXPECT_EQ(report.counters[0].name, "alpha");
  EXPECT_EQ(report.counters[1].name, "zeta");
  EXPECT_EQ(report.counter("zeta"), 2u);
  EXPECT_EQ(report.counter("missing"), 0u);
}

TEST(MetricsReport, MergeSumsByNameAndSlot) {
  RecordingSink a;
  count(&a, "gp.chol_extend", 3);
  a.add_time(Phase::ModelFit, 1.0);
  RecordingSink b;
  count(&b, "gp.chol_extend", 4);
  count(&b, "bo.hyper_refit", 1);
  b.add_time(Phase::ModelFit, 2.0);

  MetricsReport merged = a.report();
  merged.makespan_seconds = 10.0;
  MetricsReport other = b.report();
  other.makespan_seconds = 5.0;
  other.workers.push_back({0, 4.0, 1.0});
  merged.merge(other);

  EXPECT_EQ(merged.counter("gp.chol_extend"), 7u);
  EXPECT_EQ(merged.counter("bo.hyper_refit"), 1u);
  EXPECT_DOUBLE_EQ(merged.phase_seconds("model_fit"), 3.0);
  EXPECT_DOUBLE_EQ(merged.makespan_seconds, 15.0);
  ASSERT_EQ(merged.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.workers[0].busy_seconds, 4.0);
}

// The JSON golden-schema test: consumers (plot scripts, the next perf PR)
// key on these exact strings. A deliberate schema change must update this
// test and the schema comment in obs/metrics.h together.
TEST(MetricsReport, JsonMatchesTheDocumentedSchema) {
  MetricsReport report;
  report.makespan_seconds = 12.5;
  report.phases.push_back({"model_fit", 1.5, 3});
  report.counters.push_back({"gp.chol_extend", 42});
  report.workers.push_back({0, 10.0, 2.5});
  report.evals.push_back({0, "timeout", "discarded", 2, 3, 1.0, 4.5});

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"easybo.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"makespan_seconds\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"model_fit\":{\"seconds\":1.5,\"spans\":3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"gp.chol_extend\":42"), std::string::npos);
  EXPECT_NE(json.find("\"worker\":0"), std::string::npos);
  EXPECT_NE(json.find("\"busy_seconds\":10"), std::string::npos);
  EXPECT_NE(json.find("\"idle_seconds\":2.5"), std::string::npos);
  EXPECT_NE(
      json.find("{\"index\":0,\"status\":\"timeout\",\"action\":"
                "\"discarded\",\"attempts\":2,\"worker\":3,\"start\":1,"
                "\"finish\":4.5}"),
      std::string::npos);
  // Top-level sections present in order.
  const auto p_schema = json.find("\"schema\"");
  const auto p_phases = json.find("\"phases\"");
  const auto p_counters = json.find("\"counters\"");
  const auto p_workers = json.find("\"workers\"");
  const auto p_evals = json.find("\"evals\"");
  ASSERT_NE(p_phases, std::string::npos);
  ASSERT_NE(p_counters, std::string::npos);
  ASSERT_NE(p_workers, std::string::npos);
  ASSERT_NE(p_evals, std::string::npos);
  EXPECT_LT(p_schema, p_phases);
  EXPECT_LT(p_phases, p_counters);
  EXPECT_LT(p_counters, p_workers);
  EXPECT_LT(p_workers, p_evals);
  // Balanced braces, no trailing garbage.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsReport, MergeConcatenatesAndReindexesEvalLogs) {
  MetricsReport a;
  a.evals.push_back({0, "ok", "observed", 1, 0, 0.0, 1.0});
  a.evals.push_back({1, "exception", "discarded", 3, 1, 1.0, 2.0});
  MetricsReport b;
  b.evals.push_back({0, "ok", "observed", 1, 0, 0.0, 1.5});

  EXPECT_FALSE(b.empty());  // an eval log alone counts as content
  a.merge(b);
  ASSERT_EQ(a.evals.size(), 3u);
  EXPECT_EQ(a.evals[2].index, 2u);  // re-indexed, not duplicated
  EXPECT_EQ(a.evals[2].status, "ok");
  EXPECT_DOUBLE_EQ(a.evals[2].finish, 1.5);
}

TEST(MetricsReport, CsvRowsCoverEveryDatum) {
  MetricsReport report;
  report.makespan_seconds = 7.0;
  report.phases.push_back({"acq_maximize", 0.25, 5});
  report.counters.push_back({"bo.dedup_nudge", 2});
  report.workers.push_back({1, 6.0, 1.0});

  const std::string csv = report.to_csv();
  EXPECT_EQ(csv.rfind("section,name,value", 0), 0u);  // header first
  EXPECT_NE(csv.find("phase_seconds,acq_maximize,0.25"), std::string::npos);
  EXPECT_NE(csv.find("phase_spans,acq_maximize,5"), std::string::npos);
  EXPECT_NE(csv.find("counter,bo.dedup_nudge,2"), std::string::npos);
  EXPECT_NE(csv.find("worker_busy,1,6"), std::string::npos);
  EXPECT_NE(csv.find("worker_idle,1,1"), std::string::npos);
  EXPECT_NE(csv.find("makespan_seconds,,7"), std::string::npos);
}

TEST(MetricsReport, JsonEscapesCounterNames) {
  MetricsReport report;
  report.counters.push_back({"weird\"name\\x", 1});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"weird\\\"name\\\\x\":1"), std::string::npos);
}

}  // namespace
}  // namespace easybo::obs
