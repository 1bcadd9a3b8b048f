#include "obs/trace.h"

namespace easybo::obs {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::InitDesign: return "init_design";
    case Phase::ModelFit: return "model_fit";
    case Phase::HyperRefit: return "hyper_refit";
    case Phase::AcqMaximize: return "acq_maximize";
    case Phase::ObjectiveEval: return "objective_eval";
    case Phase::ExecutorWait: return "executor_wait";
    case Phase::Checkpoint: return "checkpoint";
    case Phase::kCount: break;
  }
  return "unknown";
}

}  // namespace easybo::obs
