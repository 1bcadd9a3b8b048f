#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/rng.h"
#include "io/json.h"

namespace easybo::bench {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  try {
    const std::uint64_t parsed = io::parse_u64(value);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "%s: expected a positive integer, got '%s'\n", name,
               value);
  std::exit(2);
}

void apply_bench_budgets(bo::BoConfig& config) {
  config.acq_opt.sobol_candidates = 256;
  config.acq_opt.random_candidates = 64;
  config.acq_opt.refine_top_k = 3;
  config.acq_opt.refine_evals = 120;
  config.acq_opt.anchor_jitter = 16;
  config.acq_opt.jitter_scale = 0.03;
  config.trainer.max_iters = 30;
  config.trainer.restarts = 1;
  // Matern-5/2 models the benchmarks' ridge-shaped landscapes better than
  // the paper's SE kernel does on our analytic substitutes; see
  // EXPERIMENTS.md ("kernel choice") for the measured comparison.
  config.kernel = "matern52";
}

AlgoStats run_bo_repeated(const circuit::SizingBenchmark& bench,
                          bo::BoConfig config, std::size_t runs,
                          std::uint64_t base_seed) {
  AlgoStats stats;
  stats.label = config.label();
  std::vector<double> bests;
  double makespan_sum = 0.0;
  double util_sum = 0.0;
  const std::size_t workers =
      (config.mode == bo::Mode::Sequential) ? 1 : config.batch;
  for (std::size_t r = 0; r < runs; ++r) {
    config.seed = base_seed + r;
    // Recording is behaviorally inert (same proposals either way) and
    // cheap next to the runs themselves, so the bench always keeps the
    // report.
    obs::RecordingSink recorder;
    bo::BoEngine engine(
        config, bench.bounds, bench.fom,
        [&bench](const linalg::Vec& x) { return bench.sim_time(x); });
    engine.set_trace(&recorder);
    auto result = engine.run();
    bests.push_back(result.best_y);
    makespan_sum += result.makespan;
    util_sum += result.utilization(workers);
    stats.metrics.merge(result.metrics);
    stats.runs.push_back(std::move(result));
  }
  stats.fom = summarize(bests);
  stats.mean_makespan = makespan_sum / static_cast<double>(runs);
  stats.mean_utilization = util_sum / static_cast<double>(runs);
  return stats;
}

double mean_best_at(const AlgoStats& stats, double t) {
  double sum = 0.0;
  for (const auto& run : stats.runs) {
    double best = 0.0;
    bool seen = false;
    for (const auto& [time, value] : run.best_vs_time()) {
      if (time > t) break;
      best = value;
      seen = true;
    }
    sum += seen ? best : run.best_vs_time().front().second;
  }
  return sum / static_cast<double>(stats.runs.size());
}

double mean_time_to(const AlgoStats& stats, double target) {
  double sum = 0.0;
  for (const auto& run : stats.runs) {
    const double t = run.time_to_target(target);
    sum += t >= 0.0 ? t : run.makespan;
  }
  return sum / static_cast<double>(stats.runs.size());
}

AlgoStats run_de_repeated(const circuit::SizingBenchmark& bench,
                          std::size_t de_evals, std::size_t runs,
                          std::uint64_t base_seed) {
  AlgoStats stats;
  stats.label = "DE";
  std::vector<double> bests;
  double makespan_sum = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    Rng rng(base_seed + r);
    double virtual_time = 0.0;
    const auto result = opt::de_maximize(
        bench.fom, bench.bounds, rng, de_evals,
        [&](const linalg::Vec& x, double, std::size_t) {
          virtual_time += bench.sim_time(x);
        });
    bests.push_back(result.best_y);
    makespan_sum += virtual_time;
  }
  stats.fom = summarize(bests);
  stats.mean_makespan = makespan_sum / static_cast<double>(runs);
  stats.mean_utilization = 1.0;
  return stats;
}

std::vector<bo::BoConfig> paper_roster(
    std::size_t init_points, std::size_t max_sims,
    const std::vector<std::size_t>& batch_sizes) {
  std::vector<bo::BoConfig> roster;
  auto base = [&] {
    bo::BoConfig c;
    c.init_points = init_points;
    c.max_sims = max_sims;
    apply_bench_budgets(c);
    return c;
  };

  // Sequential block: LCB, EI, EasyBO.
  for (bo::AcqKind acq :
       {bo::AcqKind::Lcb, bo::AcqKind::Ei, bo::AcqKind::EasyBo}) {
    auto c = base();
    c.mode = bo::Mode::Sequential;
    c.acq = acq;
    c.penalize = false;
    c.batch = 1;
    roster.push_back(c);
  }

  // Batch blocks, in the paper's row order per batch size.
  for (std::size_t b : batch_sizes) {
    struct Row {
      bo::Mode mode;
      bo::AcqKind acq;
      bool penalize;
    };
    const Row rows[] = {
        {bo::Mode::SyncBatch, bo::AcqKind::Pbo, false},
        {bo::Mode::SyncBatch, bo::AcqKind::Phcbo, false},
        {bo::Mode::SyncBatch, bo::AcqKind::EasyBo, false},   // EasyBO-S
        {bo::Mode::AsyncBatch, bo::AcqKind::EasyBo, false},  // EasyBO-A
        {bo::Mode::SyncBatch, bo::AcqKind::EasyBo, true},    // EasyBO-SP
        {bo::Mode::AsyncBatch, bo::AcqKind::EasyBo, true},   // EasyBO
    };
    for (const Row& row : rows) {
      auto c = base();
      c.mode = row.mode;
      c.acq = row.acq;
      c.penalize = row.penalize;
      c.batch = b;
      roster.push_back(c);
    }
  }
  return roster;
}

void add_table_row(AsciiTable& table, const AlgoStats& stats,
                   int precision) {
  table.add_row({stats.label, format_double(stats.fom.best, precision),
                 format_double(stats.fom.worst, precision),
                 format_double(stats.fom.mean, precision),
                 format_double(stats.fom.stddev, precision),
                 format_duration(stats.mean_makespan)});
}

namespace {

// Minimal JSON string escape for algorithm labels (ASCII, as produced by
// BoConfig::label(); mirrors the escaping in obs/metrics.cpp).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string write_bench_metrics_json(const std::string& default_path,
                                     const std::vector<AlgoStats>& algos) {
  const char* env = std::getenv("EASYBO_METRICS_JSON");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : default_path;

  std::string doc = "{\"schema\":\"easybo.bench-metrics.v1\",\"algos\":{";
  bool first = true;
  for (const auto& stats : algos) {
    if (stats.metrics.empty()) continue;  // non-BO rows (e.g. DE)
    if (!first) doc += ',';
    first = false;
    doc += '"';
    doc += json_escape(stats.label);
    doc += "\":";
    doc += stats.metrics.to_json();
  }
  doc += "}}";

  std::ofstream out(path);
  if (!out) return {};
  out << doc << '\n';
  return out ? path : std::string{};
}

}  // namespace easybo::bench
