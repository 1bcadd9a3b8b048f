#pragma once
/// \file nelder_mead.h
/// \brief Nelder–Mead simplex maximization inside a box.
///
/// Used in two roles: (a) the local refinement stage of the acquisition
/// maximizer (src/acq/acq_optimizer.h) — acquisition surfaces are cheap but
/// their gradients are awkward, exactly the "acquisition optimization
/// awkward" issue the reproduction-banding calls out, and a derivative-free
/// simplex sidesteps it; (b) a general-purpose local optimizer exposed to
/// library users.

#include "common/rng.h"
#include "opt/objective.h"

namespace easybo::opt {

/// Maximizes \p fn from \p start (must lie in the box; points are clamped
/// to the box throughout) with at most \p max_evals evaluations. The
/// initial simplex steps 0.05 of the box width along each axis, the
/// standard coefficients apply (reflection 1, expansion 2, contraction
/// 0.5, shrink 0.5), and the search stops early when the simplex spans
/// under 1e-7 or its values under 1e-10.
OptResult nelder_mead_maximize(const Objective& fn, const Bounds& bounds,
                               const Vec& start, std::size_t max_evals);

}  // namespace easybo::opt
