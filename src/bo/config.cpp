#include "bo/config.h"

#include <cmath>

#include "common/error.h"

namespace easybo::bo {

std::unique_ptr<gp::Kernel> make_kernel(const BoConfig& config,
                                        std::size_t dim) {
  auto kernel = gp::make_kernel(config.kernel, dim);
  linalg::Vec lp = kernel->log_params();
  for (std::size_t i = 1; i < lp.size(); ++i) lp[i] = std::log(0.3);
  kernel->set_log_params(lp);
  return kernel;
}

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::Sequential: return "sequential";
    case Mode::SyncBatch: return "sync";
    case Mode::AsyncBatch: return "async";
  }
  return "?";
}

const char* to_string(EvalFailurePolicy policy) {
  switch (policy) {
    case EvalFailurePolicy::Abort: return "abort";
    case EvalFailurePolicy::Discard: return "discard";
    case EvalFailurePolicy::Penalize: return "penalize";
  }
  return "?";
}

const char* to_string(AcqKind kind) {
  switch (kind) {
    case AcqKind::Ei: return "EI";
    case AcqKind::Lcb: return "LCB";
    case AcqKind::EasyBo: return "EasyBO";
    case AcqKind::Pbo: return "pBO";
    case AcqKind::Phcbo: return "pHCBO";
    case AcqKind::Bucb: return "BUCB";
    case AcqKind::Lp: return "LP";
  }
  return "?";
}

std::string BoConfig::label() const {
  if (mode == Mode::Sequential) {
    return to_string(acq);  // "EI", "LCB", "EasyBO"
  }
  std::string name;
  switch (acq) {
    case AcqKind::Pbo: name = "pBO"; break;
    case AcqKind::Phcbo: name = "pHCBO"; break;
    case AcqKind::EasyBo:
      if (mode == Mode::SyncBatch) {
        name = penalize ? "EasyBO-SP" : "EasyBO-S";
      } else {
        name = penalize ? "EasyBO" : "EasyBO-A";
      }
      break;
    case AcqKind::Ei: name = "EI"; break;
    case AcqKind::Lcb: name = "LCB"; break;
    case AcqKind::Bucb: name = "BUCB"; break;
    case AcqKind::Lp: name = "LP"; break;
  }
  return name + "-" + std::to_string(batch);
}

void BoConfig::validate() const {
  EASYBO_REQUIRE(init_points >= 2, "need at least two initial points");
  EASYBO_REQUIRE(max_sims > init_points,
                 "simulation budget must exceed the initial design");
  EASYBO_REQUIRE(lambda > 0.0, "lambda must be positive");
  EASYBO_REQUIRE(lcb_kappa >= 0.0, "lcb_kappa must be >= 0");
  EASYBO_REQUIRE(refit_every >= 1, "refit_every must be >= 1");
  if (mode != Mode::Sequential) {
    EASYBO_REQUIRE(batch >= 2, "batch modes need batch >= 2");
  }
  if (acq == AcqKind::Pbo || acq == AcqKind::Phcbo) {
    EASYBO_REQUIRE(mode != Mode::Sequential,
                   "pBO/pHCBO are batch algorithms (their weight grid "
                   "spans the batch slots)");
  }
  if (acq == AcqKind::Ei || acq == AcqKind::Lcb) {
    EASYBO_REQUIRE(mode == Mode::Sequential,
                   "EI/LCB baselines run in sequential mode only");
  }
  if (acq == AcqKind::Bucb || acq == AcqKind::Lp) {
    EASYBO_REQUIRE(mode != Mode::Sequential,
                   "BUCB/LP are batch algorithms (they penalize around "
                   "pending points)");
  }
  EASYBO_REQUIRE(eval_timeout >= 0.0, "eval_timeout must be >= 0");
  EASYBO_REQUIRE(
      eval_failure_quantile >= 0.0 && eval_failure_quantile <= 1.0,
      "eval_failure_quantile must be in [0, 1]");
  EASYBO_REQUIRE(adapt_refit_budget > 0.0,
                 "adapt_refit_budget must be > 0");
  EASYBO_REQUIRE(trainer.max_iters >= 1, "trainer.max_iters must be >= 1");
  EASYBO_REQUIRE(trainer.restarts >= 0, "trainer.restarts must be >= 0");
  EASYBO_REQUIRE(acq_opt.sobol_candidates + acq_opt.random_candidates > 0,
                 "acq_opt.sobol_candidates + acq_opt.random_candidates "
                 "must be >= 1 (screening needs a candidate)");
}

}  // namespace easybo::bo
