#pragma once
/// \file de.h
/// \brief Differential Evolution, the paper's evolutionary baseline [13].
///
/// The paper runs DE with 20000 (op-amp) / 15000 (class-E) simulations and
/// reports that EasyBO reaches better FOM with orders of magnitude fewer
/// evaluations. This implementation runs DE/best/1/bin (population 50,
/// differential weight F = 0.6, crossover probability CR = 0.9), matching
/// the exploitative hybrid of [13] more closely than pure rand/1.

#include "common/rng.h"
#include "opt/objective.h"

namespace easybo::opt {

/// Maximizes \p fn over the box with \p max_evals objective evaluations
/// (at least the population of 50). Evaluation order: the initial
/// population first, then one trial vector per population slot per
/// generation; the observer sees every evaluation in order.
OptResult de_maximize(const Objective& fn, const Bounds& bounds, Rng& rng,
                      std::size_t max_evals,
                      const EvalObserver& observer = nullptr);

}  // namespace easybo::opt
