#pragma once
/// \file constrained.h
/// \brief Constrained EasyBO (the paper's stated future work).
///
/// The paper (§II-A): "Our proposed approach can also be easily extended to
/// handle constrained optimization problem, which will be discussed in
/// future work." This module supplies that extension in the standard
/// feasibility-weighted form (Gardner et al., ICML'14) on top of EasyBO's
/// asynchronous loop and penalization:
///
///   * the objective is modeled by the usual GP;
///   * each constraint g_i (feasible iff g_i(x) >= 0) gets its own GP;
///   * the acquisition is alpha_EasyBO(x, w) weighted by the probability of
///     feasibility  prod_i Phi(mu_i(x) / sigma_i(x))
///     (acq::FeasibilityWeighted);
///   * the incumbent used for reporting is the best FEASIBLE observation.
///
/// Constraints are problem data passed to BoEngine beside the objective,
/// never configuration, so a constrained run is an ordinary engine run
/// (checkpoint/resume, failure policies, cancellation, metrics, threads).
///
/// Typical analog-sizing use: maximize the FOM subject to PM >= 60 deg,
/// gain >= 60 dB, power <= budget (see examples/constrained_sizing.cpp).

#include <functional>
#include <string>
#include <vector>

#include "bo/config.h"
#include "bo/result.h"
#include "opt/objective.h"

namespace easybo::bo {

/// One inequality constraint: feasible iff fn(x) >= 0.
/// Express "metric >= spec" as fn = metric - spec, "metric <= spec" as
/// fn = spec - metric.
struct Constraint {
  std::string name;
  opt::Objective fn;
};

/// Total violation sum_i max(-g_i, 0) of constraint values \p g; exactly
/// 0 when every constraint holds.
double total_violation(const Vec& g);

/// Result of a constrained run. `best_x`/`best_y` refer to the best
/// FEASIBLE point; `found_feasible` is false when no evaluation satisfied
/// all constraints (then best_x/best_y fall back to the least-infeasible
/// point by total violation).
struct ConstrainedResult : BoResult {
  bool found_feasible = false;
  std::size_t num_feasible = 0;
  /// Constraint values at best_x, in constraint order.
  linalg::Vec best_constraints;
};

/// Runs constrained EasyBO: a BoEngine run with \p constraints on a
/// VirtualExecutor, summarized for feasibility. config.mode must be
/// AsyncBatch or Sequential and config.acq EasyBo. Constraint evaluations
/// are assumed to come from the same simulation as the objective (no
/// extra simulation cost).
ConstrainedResult run_constrained_bo(
    const BoConfig& config, const opt::Bounds& bounds,
    const opt::Objective& objective, const std::vector<Constraint>& constraints,
    const std::function<double(const linalg::Vec&)>& sim_time = nullptr);

}  // namespace easybo::bo
