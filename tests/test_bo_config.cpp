// Tests for bo/config.h: labels in the paper's style and validation rules.

#include "bo/config.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

namespace easybo::bo {
namespace {

BoConfig base() {
  BoConfig c;
  c.init_points = 20;
  c.max_sims = 150;
  return c;
}

TEST(BoConfig, PaperLabels) {
  BoConfig c = base();

  c.mode = Mode::Sequential;
  c.acq = AcqKind::Ei;
  EXPECT_EQ(c.label(), "EI");
  c.acq = AcqKind::Lcb;
  EXPECT_EQ(c.label(), "LCB");
  c.acq = AcqKind::EasyBo;
  EXPECT_EQ(c.label(), "EasyBO");

  c.batch = 5;
  c.mode = Mode::SyncBatch;
  c.acq = AcqKind::Pbo;
  EXPECT_EQ(c.label(), "pBO-5");
  c.acq = AcqKind::Phcbo;
  EXPECT_EQ(c.label(), "pHCBO-5");
  c.acq = AcqKind::EasyBo;
  c.penalize = false;
  EXPECT_EQ(c.label(), "EasyBO-S-5");
  c.penalize = true;
  EXPECT_EQ(c.label(), "EasyBO-SP-5");

  c.mode = Mode::AsyncBatch;
  c.batch = 10;
  c.penalize = false;
  EXPECT_EQ(c.label(), "EasyBO-A-10");
  c.penalize = true;
  EXPECT_EQ(c.label(), "EasyBO-10");
}

TEST(BoConfig, ToStringHelpers) {
  EXPECT_STREQ(to_string(Mode::Sequential), "sequential");
  EXPECT_STREQ(to_string(Mode::SyncBatch), "sync");
  EXPECT_STREQ(to_string(Mode::AsyncBatch), "async");
  EXPECT_STREQ(to_string(AcqKind::EasyBo), "EasyBO");
  EXPECT_STREQ(to_string(AcqKind::Pbo), "pBO");
}

TEST(BoConfig, DefaultIsValid) {
  BoConfig c = base();
  EXPECT_NO_THROW(c.validate());
}

TEST(BoConfig, BudgetMustExceedInit) {
  BoConfig c = base();
  c.max_sims = 20;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(BoConfig, BatchModesNeedBatchOfTwo) {
  BoConfig c = base();
  c.mode = Mode::SyncBatch;
  c.acq = AcqKind::EasyBo;
  c.batch = 1;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(BoConfig, PboIsBatchOnly) {
  BoConfig c = base();
  c.acq = AcqKind::Pbo;
  c.mode = Mode::Sequential;
  EXPECT_THROW(c.validate(), InvalidArgument);
  // Sync or async: the weight grid spans the batch slots (a synchronous
  // batch's k-th point uses slot k; every async proposal uses slot 0).
  c.mode = Mode::SyncBatch;
  EXPECT_NO_THROW(c.validate());
  c.mode = Mode::AsyncBatch;
  EXPECT_NO_THROW(c.validate());
}

TEST(BoConfig, EiLcbAreSequentialOnly) {
  BoConfig c = base();
  c.acq = AcqKind::Ei;
  c.mode = Mode::SyncBatch;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c.mode = Mode::Sequential;
  EXPECT_NO_THROW(c.validate());
}

TEST(BoConfig, LambdaMustBePositive) {
  BoConfig c = base();
  c.mode = Mode::Sequential;
  c.lambda = 0.0;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(BoConfig, FailurePolicyNames) {
  EXPECT_STREQ(to_string(EvalFailurePolicy::Abort), "abort");
  EXPECT_STREQ(to_string(EvalFailurePolicy::Discard), "discard");
  EXPECT_STREQ(to_string(EvalFailurePolicy::Penalize), "penalize");
}

TEST(BoConfig, ValidatesFaultToleranceKnobs) {
  BoConfig c = base();
  c.eval_timeout = -1.0;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base();
  c.eval_failure_quantile = 1.5;
  EXPECT_THROW(c.validate(), InvalidArgument);

  c = base();
  c.on_eval_failure = EvalFailurePolicy::Penalize;
  c.eval_timeout = 3.0;
  c.eval_max_retries = 2;
  EXPECT_NO_THROW(c.validate());
}

// Values the components reject only when the first model proposal builds
// them: validate() refuses them up front (NaN too), naming the field.
TEST(BoConfig, RefusesValuesThatCanNeverPropose) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, std::function<void(BoConfig&)>>>
      cases = {
          {"lcb_kappa", [](BoConfig& c) { c.lcb_kappa = -1.0; }},
          {"lcb_kappa", [nan](BoConfig& c) { c.lcb_kappa = nan; }},
          {"trainer.max_iters", [](BoConfig& c) { c.trainer.max_iters = 0; }},
          {"trainer.restarts", [](BoConfig& c) { c.trainer.restarts = -1; }},
          {"acq_opt.sobol_candidates",
           [](BoConfig& c) {
             c.acq_opt.sobol_candidates = 0;
             c.acq_opt.random_candidates = 0;
           }},
      };
  for (const auto& [field, set_bad] : cases) {
    SCOPED_TRACE(field);
    BoConfig c = base();
    set_bad(c);
    try {
      c.validate();
      ADD_FAILURE() << "validate() accepted a bad " << field;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message: " << e.what();
    }
  }

  // The boundary values stay valid: one screening source alone, kappa 0,
  // no restarts.
  BoConfig c = base();
  c.acq_opt.sobol_candidates = 0;
  EXPECT_NO_THROW(c.validate());
  c = base();
  c.acq_opt.random_candidates = 0;
  c.lcb_kappa = 0.0;
  c.trainer.restarts = 0;
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace easybo::bo
