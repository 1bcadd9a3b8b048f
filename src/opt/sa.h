#pragma once
/// \file sa.h
/// \brief Simulated annealing (extension baseline, paper refs [10]-[12]).

#include "common/rng.h"
#include "opt/objective.h"

namespace easybo::opt {

/// Maximizes \p fn with \p max_evals evaluations (at least 2), Metropolis
/// acceptance and geometric cooling: the temperature starts at 1 (in units
/// of the objective's scale) and cools by 0.995 per evaluation, and the
/// Gaussian proposal step shrinks geometrically from 0.25 to 0.01 of the
/// box width over the budget.
OptResult sa_maximize(const Objective& fn, const Bounds& bounds, Rng& rng,
                      std::size_t max_evals,
                      const EvalObserver& observer = nullptr);

}  // namespace easybo::opt
