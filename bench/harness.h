#pragma once
/// \file harness.h
/// \brief Shared experiment harness for the paper-reproduction benches.
///
/// Every table/figure binary uses this: algorithm roster construction,
/// repeated runs with per-run seeds, Best/Worst/Mean/Std summaries, the
/// paper's time format, and environment-variable controls:
///
///   EASYBO_RUNS   repeats per algorithm            (default 3; paper: 20)
///   EASYBO_SIMS   BO simulation budget override    (default: paper's)
///   EASYBO_DE     DE evaluation budget override    (default: paper's)

#include <string>
#include <vector>

#include "bo/engine.h"
#include "circuit/benchmark.h"
#include "common/format.h"
#include "common/stats.h"
#include "opt/de.h"

namespace easybo::bench {

/// Reads a positive integer environment override, or returns fallback
/// when the variable is unset or empty. Any other value that is not a
/// positive decimal integer ("5x", "1e3", "-3", "0") exits 2 naming the
/// variable, so a typo never silently shrinks a sample.
std::size_t env_size(const char* name, std::size_t fallback);

/// Aggregated statistics of repeated runs of one algorithm.
struct AlgoStats {
  std::string label;
  Summary fom;                 ///< over the per-run best FOMs
  double mean_makespan = 0.0;  ///< virtual seconds
  double mean_utilization = 0.0;
  std::vector<bo::BoResult> runs;
  /// Observability report merged over the repeats (BO algorithms only):
  /// per-phase timers, engine-room counters, per-worker busy/idle.
  obs::MetricsReport metrics;
};

/// Runs `runs` repetitions of one BO configuration on a benchmark; run r
/// uses seed base_seed + r so repetitions are independent but reproducible.
AlgoStats run_bo_repeated(const circuit::SizingBenchmark& bench,
                          bo::BoConfig config, std::size_t runs,
                          std::uint64_t base_seed = 1000);

/// Mean best-so-far value across runs at virtual time t (step function
/// per run, averaged). Before a run's first completion its eventual first
/// observation is used (plotting convention; avoids an undefined segment).
double mean_best_at(const AlgoStats& stats, double t);

/// Mean time to reach a target FOM (runs that never reach it contribute
/// their makespan as a lower bound).
double mean_time_to(const AlgoStats& stats, double target);

/// Runs DE with virtual-time accounting (sequential evaluation: the DE
/// makespan is the sum of simulation durations, as in the paper's Table
/// I/II time column for DE).
AlgoStats run_de_repeated(const circuit::SizingBenchmark& bench,
                          std::size_t de_evals, std::size_t runs,
                          std::uint64_t base_seed = 2000);

/// Slims the inner loops for the experiment regime: tuned so the full
/// Table II reproduces in minutes on one core without changing the
/// algorithms' relative behaviour.
void apply_bench_budgets(bo::BoConfig& config);

/// The paper's full roster for one circuit: DE, LCB, EI, EasyBO (seq), and
/// {pBO, pHCBO, EasyBO-S, EasyBO-A, EasyBO-SP, EasyBO} x batch sizes.
std::vector<bo::BoConfig> paper_roster(std::size_t init_points,
                                       std::size_t max_sims,
                                       const std::vector<std::size_t>&
                                           batch_sizes = {5, 10, 15});

/// Adds one Table-I/II-style row: label, best, worst, mean, std, time.
void add_table_row(AsciiTable& table, const AlgoStats& stats,
                   int precision);

/// Writes the per-algorithm observability reports as one JSON document:
///   {"schema": "easybo.bench-metrics.v1",
///    "algos": {"<label>": <easybo.metrics.v1 object>, ...}}
/// The EASYBO_METRICS_JSON environment variable overrides \p default_path;
/// algorithms with an empty report (e.g. DE) are skipped. Returns the
/// path written, or an empty string when writing failed.
std::string write_bench_metrics_json(const std::string& default_path,
                                     const std::vector<AlgoStats>& algos);

}  // namespace easybo::bench
