#pragma once
/// \file pso.h
/// \brief Particle swarm optimization (extension baseline, paper refs
/// [14]-[17]).

#include "common/rng.h"
#include "opt/objective.h"

namespace easybo::opt {

struct PsoOptions {
  std::size_t swarm = 40;
  std::size_t max_evals = 4000;
};

/// Maximizes \p fn over the box with a global-best topology swarm, moved
/// with Clerc's constriction coefficients (inertia 0.729, cognitive and
/// social weights 1.49445) and each velocity component capped at 0.2 of
/// the box width.
OptResult pso_maximize(const Objective& fn, const Bounds& bounds, Rng& rng,
                       const PsoOptions& options = {},
                       const EvalObserver& observer = nullptr);

}  // namespace easybo::opt
