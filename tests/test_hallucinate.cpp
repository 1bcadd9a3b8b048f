/// \file test_hallucinate.cpp
/// \brief The zero-copy hallucination overlay (gp::GpRegressor::
/// hallucinate): its variance bit-identical to the deep-copy reference
/// (with_hallucinated) and its mean to the base model's, on healthy,
/// jittered and degenerate bases, honest counters, and the same parity —
/// plus the paired posterior queries' — on the model states and pending
/// sets real batch runs hallucinate over.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <memory>

#include "bo/ask_tell.h"
#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/rng.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "gp/normalizer.h"
#include "obs/recording.h"

namespace easybo {
namespace {

using gp::GpRegressor;
using gp::SquaredExponentialArd;
using gp::Vec;

GpRegressor fitted_gp(std::size_t n, double noise, Rng& rng) {
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1.0, Vec{0.3, 0.4}),
                 noise);
  std::vector<Vec> xs(n);
  Vec ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = {rng.uniform(), rng.uniform()};
    ys[i] = std::sin(4.0 * xs[i][0]) + xs[i][1] * xs[i][1] + 0.1 * rng.normal();
  }
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();
  return gp;
}

std::vector<Vec> make_pending(std::size_t k, Rng& rng) {
  std::vector<Vec> pending(k);
  for (auto& p : pending) p = {rng.uniform(), rng.uniform()};
  return pending;
}

// The property everything else rests on: for every batch size the
// overlay serves the EXACT variance the deep copy serves — same bits, not
// merely close — and the base model's mean.
TEST(HallucinateOverlay, BitIdenticalToDeepCopy) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    Rng rng(41);
    const GpRegressor gp = fitted_gp(15, 1e-6, rng);
    const auto pending = make_pending(k, rng);

    const GpRegressor deep = gp.with_hallucinated(pending);
    const auto overlay = gp.hallucinate(pending);

    EXPECT_EQ(overlay->num_points(), deep.num_points());
    EXPECT_EQ(overlay->dim(), deep.dim());
    EXPECT_TRUE(overlay->fitted());

    Rng probe(42);
    for (int i = 0; i < 25; ++i) {
      const Vec x = {probe.uniform(), probe.uniform()};
      const auto pd = deep.predict(x);
      const auto po = overlay->predict(x);
      EXPECT_EQ(po.mean, gp.predict_mean(x)) << "k=" << k;
      EXPECT_EQ(po.var, pd.var) << "k=" << k;
    }
  }
}

// A base factor that needed escalated jitter: the overlay must bake the
// same jitter into its appended diagonals (the companion of the
// incremental-fit regression in test_gp_incremental.cpp).
TEST(HallucinateOverlay, BitIdenticalOnJitteredBase) {
  Rng rng(44);
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(1.0, Vec{0.3, 0.3}),
                 1e-16);
  std::vector<Vec> xs(10);
  Vec ys(10);
  for (std::size_t i = 0; i < 10; ++i) {
    xs[i] = {0.3 + 1e-12 * rng.uniform(), 0.7 + 1e-12 * rng.uniform()};
    ys[i] = rng.normal();
  }
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();
  ASSERT_GT(gp.factor().jitter_used(), 0.0)
      << "setup failed to force jitter escalation";

  const std::vector<Vec> pending = {{0.9, 0.1}, {0.1, 0.9}};
  const GpRegressor deep = gp.with_hallucinated(pending);
  const auto overlay = gp.hallucinate(pending);
  Rng probe(45);
  for (int i = 0; i < 20; ++i) {
    const Vec x = {probe.uniform(), probe.uniform()};
    EXPECT_EQ(overlay->predict(x).mean, gp.predict_mean(x));
    EXPECT_EQ(overlay->predict(x).var, deep.predict(x).var);
  }
}

// When extension is impossible (duplicated pending points, no noise
// slack), the overlay falls back to one full factorization — the same
// escape hatch the deep copy takes — and says so in the counters.
TEST(HallucinateOverlay, FallbackBitIdenticalAndCounted) {
  Rng rng(46);
  GpRegressor gp = fitted_gp(10, 1e-16, rng);
  // The same point three times: the hallucinated covariance collapses.
  const Vec dup = {0.5, 0.5};
  const std::vector<Vec> pending = {dup, dup, dup};

  obs::RecordingSink sink;
  gp.set_trace(&sink);
  const auto overlay = gp.hallucinate(pending);
  EXPECT_EQ(sink.counter("gp.hallucinate"), 1u);
  EXPECT_EQ(sink.counter("gp.hallucinate_fallback"), 1u);
  EXPECT_EQ(sink.counter("gp.chol_refactor"), 1u);
  EXPECT_EQ(sink.counter("gp.chol_extend"), 0u);
  EXPECT_GE(sink.counter("gp.chol_extend_abandoned"), 1u);

  gp.set_trace(nullptr);
  const GpRegressor deep = gp.with_hallucinated(pending);
  Rng probe(47);
  for (int i = 0; i < 20; ++i) {
    const Vec x = {probe.uniform(), probe.uniform()};
    EXPECT_EQ(overlay->predict(x).mean, gp.predict_mean(x));
    EXPECT_EQ(overlay->predict(x).var, deep.predict(x).var);
  }
}

// The healthy path reports one hallucination and k extended rows, and
// never touches the base model's factor.
TEST(HallucinateOverlay, CountsRowsAndLeavesBaseUntouched) {
  Rng rng(48);
  GpRegressor gp = fitted_gp(12, 1e-6, rng);
  const auto pending = make_pending(4, rng);

  const Vec x_probe = {0.42, 0.58};
  const auto before = gp.predict(x_probe);

  obs::RecordingSink sink;
  gp.set_trace(&sink);
  const auto overlay = gp.hallucinate(pending);
  EXPECT_EQ(sink.counter("gp.hallucinate"), 1u);
  EXPECT_EQ(sink.counter("gp.chol_extend"), 4u);
  EXPECT_EQ(sink.counter("gp.hallucinate_fallback"), 0u);
  EXPECT_EQ(sink.counter("gp.chol_refactor"), 0u);

  const auto after = gp.predict(x_probe);
  EXPECT_EQ(after.mean, before.mean);
  EXPECT_EQ(after.var, before.var);
  EXPECT_EQ(gp.num_points(), 12u);
}

// ---------------------------------------------------------------------------
// Engine level: the overlay serves the deep copy's variance on real runs
// ---------------------------------------------------------------------------

bo::BoConfig engine_cfg(bo::Mode mode, std::uint64_t seed) {
  bo::BoConfig c;
  c.mode = mode;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = mode == bo::Mode::Sequential ? 1 : 4;
  c.init_points = 8;
  c.max_sims = 24;
  c.seed = seed;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  return c;
}

/// Drives an AskTellCore over Branin with cfg.batch workers completing
/// oldest-first (all at once in SyncBatch mode). Before every proposal
/// that hallucinates, rebuilds the core's model from its snapshot exactly
/// as a resume does and checks that the overlay over the live pending set
/// serves {model mean, deep-copy variance} bit for bit through predict()
/// and its scalar and batched paired queries. Returns the number of
/// pending sets checked.
std::size_t overlay_checks_along_run(const bo::BoConfig& cfg) {
  const auto tf = circuit::branin();
  bo::AskTellCore core(cfg, tf.bounds);
  std::deque<std::size_t> fly;
  Rng probe(17);
  std::size_t checks = 0;

  const auto check_pending = [&] {
    const bo::BoCheckpoint snap = core.make_snapshot();
    gp::ZScore zscore;
    zscore.refit(snap.obs_y);
    GpRegressor model(bo::make_kernel(cfg, tf.bounds.dim()), 1e-6);
    model.set_data(snap.obs_x, zscore.transform(snap.obs_y));
    model.set_log_hyperparams(snap.gp_log_hyperparams);
    model.fit();
    std::vector<Vec> pending;
    for (const std::size_t tag : core.pending_tags()) {
      pending.push_back(core.proposal(tag));
    }
    const GpRegressor deep = model.with_hallucinated(pending);
    const auto overlay = model.hallucinate(pending);
    // 40 probes: the batched solve's full 16-column tiles and its
    // leftover columns both run.
    std::vector<Vec> xs(40);
    for (Vec& x : xs) x = {probe.uniform(), probe.uniform()};
    // The paired queries Eq. 9 reads: mu from the observed-data model,
    // sigma-hat from the hallucinated one — scalar and batched.
    std::vector<gp::Prediction> batch(xs.size());
    overlay->predict_paired_batch(model, xs, batch);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const Vec& x = xs[i];
      EXPECT_EQ(overlay->predict(x).mean, model.predict_mean(x))
          << "proposal " << core.issued();
      EXPECT_EQ(overlay->predict(x).var, deep.predict(x).var)
          << "proposal " << core.issued();
      const double mu = model.predict(x).mean;
      const double var = deep.predict(x).var;
      const gp::Prediction paired = overlay->predict_paired(model, x);
      EXPECT_EQ(paired.mean, mu) << "proposal " << core.issued();
      EXPECT_EQ(paired.var, var) << "proposal " << core.issued();
      EXPECT_EQ(batch[i].mean, mu) << "proposal " << core.issued();
      EXPECT_EQ(batch[i].var, var) << "proposal " << core.issued();
    }
    ++checks;
  };
  const auto observe_oldest = [&] {
    const std::size_t tag = fly.front();
    fly.pop_front();
    bo::Outcome o;
    o.value = tf.fn(core.to_design(core.proposal(tag)));
    core.observe(tag, o);
  };

  while (core.issued() < cfg.max_sims) {
    // Fill idle workers; the init design must be observed before the
    // first model-based proposal.
    while (fly.size() < cfg.batch && core.issued() < cfg.max_sims &&
           (core.num_observations() >= cfg.init_points ||
            core.num_observations() + fly.size() < cfg.init_points)) {
      if (core.init_done() && !core.pending_tags().empty()) check_pending();
      fly.push_back(core.suggest().tag);
    }
    do {
      if (!fly.empty()) observe_oldest();
    } while (cfg.mode == bo::Mode::SyncBatch && !fly.empty());
  }
  return checks;
}

TEST(HallucinateEngine, OverlayMatchesDeepCopyAlongEngineRuns) {
  for (const auto mode : {bo::Mode::SyncBatch, bo::Mode::AsyncBatch}) {
    SCOPED_TRACE(bo::to_string(mode));
    EXPECT_GT(overlay_checks_along_run(engine_cfg(mode, 7)), 0u);
  }
}

// The BUCB path hallucinates too.
TEST(HallucinateEngine, OverlayMatchesDeepCopyAlongABucbRun) {
  bo::BoConfig cfg = engine_cfg(bo::Mode::AsyncBatch, 11);
  cfg.acq = bo::AcqKind::Bucb;
  EXPECT_GT(overlay_checks_along_run(cfg), 0u);
}

// Proposals under penalization book k factor-row extensions per
// hallucination on the metrics channel — the honest accounting the
// engine's capacity planning reads.
TEST(HallucinateEngine, MetricsReportHallucinations) {
  const auto tf = circuit::branin();
  const bo::BoConfig cfg = engine_cfg(bo::Mode::AsyncBatch, 13);
  obs::RecordingSink sink;
  bo::BoEngine engine(cfg, tf.bounds, tf.fn);
  engine.set_trace(&sink);
  const auto r = engine.run();
  EXPECT_GT(r.metrics.counter("gp.hallucinate"), 0u);
}

}  // namespace
}  // namespace easybo
