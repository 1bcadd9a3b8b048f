#pragma once
/// \file result.h
/// \brief Run records produced by the BO engine.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/vec.h"
#include "obs/metrics.h"

namespace easybo::bo {

using linalg::Vec;

/// One completed simulation (or one ultimately-failed evaluation when the
/// run used a non-aborting EvalFailurePolicy — see docs/failure-model.md).
struct EvalRecord {
  Vec x;                 ///< design-space point
  double y = 0.0;        ///< observed FOM; NaN for discarded failures
  /// Constraint values (constrained runs), in constraint order; penalty
  /// pseudo values for penalized failures, empty for discarded ones and
  /// in unconstrained runs.
  Vec g;
  double start = 0.0;    ///< virtual time the simulation started
  double finish = 0.0;   ///< virtual time it finished
  std::size_t worker = 0;
  bool is_init = false;  ///< part of the random initial design
  std::uint32_t attempts = 1;  ///< supervised attempts (1 + retries)
  bool failed = false;   ///< evaluation failed after every retry
  /// Empty for ok evals; otherwise "exception"|"timeout"|"non_finite".
  std::string failure;
};

/// Full result of one optimization run.
struct BoResult {
  Vec best_x;
  double best_y = 0.0;
  std::vector<EvalRecord> evals;  ///< in completion order
  double makespan = 0.0;          ///< virtual wall-clock of all simulation
  double total_sim_time = 0.0;    ///< sum of evaluation durations
  std::size_t hyper_refits = 0;   ///< MLE trainings performed

  /// The run stopped early on a cooperative stop token
  /// (BoEngine::set_stop_token) after draining in-flight evaluations.
  /// best_x/best_y are empty/0 when no evaluation had completed yet.
  bool interrupted = false;

  /// Human-readable note when the run was a resume (what was restored,
  /// applied and re-run); empty for ordinary runs.
  std::string resume_note;

  /// Workers abandoned after a wall-clock timeout and never reclaimed —
  /// each one is a hung objective still occupying a pool slot (see
  /// docs/failure-model.md). Always 0 on virtual time.
  std::size_t orphaned_workers = 0;

  /// Observability report: per-phase timers, engine-room counters and
  /// per-worker busy/idle. Populated only when the run recorded metrics
  /// (an obs::RecordingSink installed through BoEngine::set_trace, alone
  /// or behind a forwarding sink); metrics.empty() otherwise.
  obs::MetricsReport metrics;

  std::size_t num_evals() const { return evals.size(); }

  /// Pool utilization: total_sim_time / (makespan * workers).
  double utilization(std::size_t workers) const;

  /// Best-so-far FOM sampled at the completion time of each successful
  /// evaluation: pairs (finish_time, best_y_up_to_that_time), in time
  /// order. Failed evaluations are skipped (their y is a pseudo value or
  /// NaN, not an observation). This is the series plotted in the paper's
  /// Fig. 4 / Fig. 6.
  std::vector<std::pair<double, double>> best_vs_time() const;

  /// Earliest virtual time at which best-so-far reached \p target;
  /// negative when the run never reached it.
  double time_to_target(double target) const;
};

}  // namespace easybo::bo
