#pragma once
/// \file acq_optimizer.h
/// \brief Inner-loop maximization of acquisition functions.
///
/// Every algorithm in the comparison (EI, LCB, pBO, pHCBO, all EasyBO
/// variants) maximizes its acquisition with the same machinery, so the
/// comparison measures acquisition *design*, not inner-optimizer luck:
///   1. screen a low-discrepancy Sobol batch + random points + caller-
///      provided anchors (e.g. the incumbent and jittered copies of it),
///      32 candidates per AcquisitionFn::evaluate_batch call, in index
///      order;
///   2. locally refine the top-k screened points with Nelder–Mead;
///   3. return the overall argmax.
/// Operates on the normalized unit cube.
///
/// Exact bound pruning: each screening chunk is passed a floor, the k-th
/// largest value of the earlier chunks, and a candidate below it may read
/// -inf (the confidence-bound family stops its variance solve there). The
/// partial sort that picks the top k only admits a candidate strictly
/// above the least value it holds, which is never below the floor, so
/// the picks, their order, and every result are those of screening
/// everything in full, ties included. A NaN turns the floor off for the
/// rest of the maximization.

#include <vector>

#include "acq/acquisition.h"
#include "common/rng.h"
#include "common/stop_token.h"
#include "obs/trace.h"
#include "opt/nelder_mead.h"

namespace easybo::acq {

struct AcqOptOptions {
  std::size_t sobol_candidates = 512;   ///< deterministic screening points
  std::size_t random_candidates = 256;  ///< iid screening points
  std::size_t anchor_jitter = 8;        ///< jittered copies per anchor
  double jitter_scale = 0.05;           ///< stddev of anchor jitter
  std::size_t refine_top_k = 3;         ///< NM starts (0: screening only)
  std::size_t refine_evals = 120;       ///< NM budget per start
};

struct AcqOptResult {
  linalg::Vec best_x;       ///< in the unit cube
  double best_value = 0.0;
  std::size_t num_evals = 0;  ///< total acquisition evaluations
};

/// Maximizes \p fn over [0,1]^dim.
/// \param anchors  extra screening points (unit cube), each also screened
///                 with `anchor_jitter` Gaussian-jittered copies.
/// \param sink     optional trace sink: times the whole maximization as
///                 Phase::AcqMaximize and counts "acq.inner_evals"
///                 (acquisition evaluations spent) and "acq.var_solves"
///                 (screened candidates scored in full, not cut short by
///                 the floor). Null = no overhead.
/// \param stop     optional cancellation token, polled between batches of
///                 screening evaluations and between Nelder–Mead starts
///                 (common::Cancelled unwinds from the poll, never
///                 mid-evaluation). Polls consume no RNG, so a run that
///                 survives its token is bit-identical to one without.
AcqOptResult maximize_acquisition(const AcquisitionFn& fn, std::size_t dim,
                                  easybo::Rng& rng,
                                  const std::vector<linalg::Vec>& anchors = {},
                                  const AcqOptOptions& options = {},
                                  obs::TraceSink* sink = nullptr,
                                  const common::StopToken* stop = nullptr);

}  // namespace easybo::acq
