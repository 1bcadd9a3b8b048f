#pragma once
/// \file easybo.h
/// \brief Umbrella public header for the EasyBO library.
///
/// Pulls in the full public API:
///   - bo::BoEngine / bo::run_bo (the one engine) with bo::BoConfig and
///     bo::BoResult
///   - the execution backends sched::VirtualExecutor and
///     sched::ThreadExecutor
///   - opt::Objective, opt::Bounds and opt::make_weighted_fom (Eq. 1)
///   - the circuit benchmarks of the paper (easybo::circuit::*)
///   - the classical baselines (easybo::opt::*)
///
/// See README.md for a guided tour and examples/ for runnable programs.

#include "bo/config.h"      // IWYU pragma: export
#include "bo/engine.h"      // IWYU pragma: export
#include "bo/result.h"      // IWYU pragma: export
#include "circuit/benchmark.h"  // IWYU pragma: export
#include "circuit/classe.h"     // IWYU pragma: export
#include "circuit/opamp.h"      // IWYU pragma: export
#include "circuit/testfunc.h"   // IWYU pragma: export
#include "opt/de.h"             // IWYU pragma: export
#include "opt/objective.h"      // IWYU pragma: export
#include "opt/pso.h"            // IWYU pragma: export
#include "opt/random_search.h"  // IWYU pragma: export
#include "opt/sa.h"             // IWYU pragma: export
#include "sched/executor.h"     // IWYU pragma: export
