#pragma once
/// \file testfunc.h
/// \brief Standard synthetic test functions for unit tests and ablations.
///
/// All functions are returned in MAXIMIZATION form (negated classics) so
/// they plug directly into the BO/opt stack. Known optima are exposed for
/// convergence assertions.

#include <string>

#include "opt/objective.h"

namespace easybo::circuit {

/// A synthetic benchmark: objective (maximize), box, known optimum.
struct TestFunction {
  std::string name;
  opt::Bounds bounds;
  opt::Objective fn;          ///< maximize
  double max_value = 0.0;     ///< global maximum value
  linalg::Vec max_location;   ///< one global maximizer (empty if many)
};

/// Branin (2-D): three global minima, min = 0.397887 -> max = -0.397887.
TestFunction branin();

/// Ackley (d-D): single global minimum 0 at the origin -> max = 0.
TestFunction ackley(std::size_t dim);

/// Hartmann-6 (6-D): max = 3.32237 (already a maximization classic).
TestFunction hartmann6();

/// Sphere (d-D): min 0 at the origin -> max = 0. The easiest sanity check.
TestFunction sphere(std::size_t dim);

}  // namespace easybo::circuit
