/// \file test_golden_streams.cpp
/// \brief Golden proposal streams pinned across versions.
///
/// Short seeded default-config runs on Branin, one per acquisition path
/// the penalized and batched machinery serves (the confidence-bound
/// family's pruned screening among them: EasyBO, BUCB, pBO and LCB),
/// plus a Matérn-5/2 Branin run, a 10-D op-amp run
/// whose hyperparameter refits fall at n = 20, 30 and 45, and a
/// constrained run, hashed with FNV-1a 64 over
/// the IEEE-754 bytes of every proposed coordinate in proposal order —
/// perfbench's `stream_hash`. A change that moves any proposal by one ulp
/// changes its hash. Speed work must keep these constants; a change that
/// shifts a stream on purpose updates them and says so.
///
/// The constants assume IEEE double arithmetic without contraction (the
/// default x86-64 build) and a libm whose exp/sin/cos/erfc round as
/// glibc's do.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>

#include "bo/constrained.h"
#include "bo/engine.h"
#include "circuit/benchmark.h"
#include "circuit/testfunc.h"

namespace easybo::bo {
namespace {

/// FNV-1a 64 over the little-endian bytes of each coordinate.
class StreamHash {
 public:
  void add(const Vec& x) {
    for (const double v : x) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h_ ^= (bits >> (8 * byte)) & 0xFFu;
        h_ *= 0x100000001B3ull;
      }
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Runs \p cfg on \p objective (virtual time, so the objective is called
/// once per proposal, in proposal order) and hashes the proposals.
std::uint64_t stream_hash(
    const BoConfig& cfg, const opt::Bounds& bounds,
    const opt::Objective& objective,
    const std::function<double(const Vec&)>& sim_time = nullptr) {
  StreamHash hash;
  std::size_t calls = 0;
  const opt::Objective fn = [&](const Vec& x) {
    hash.add(x);
    ++calls;
    return objective(x);
  };
  const BoResult r = run_bo(cfg, bounds, fn, sim_time);
  EXPECT_EQ(calls, cfg.max_sims);
  EXPECT_EQ(r.num_evals(), cfg.max_sims);
  return hash.value();
}

std::uint64_t branin_stream_hash(const BoConfig& cfg) {
  const auto tf = circuit::branin();
  return stream_hash(cfg, tf.bounds, tf.fn);
}

BoConfig golden_config(Mode mode, AcqKind acq) {
  BoConfig c;  // defaults everywhere else: B = 5, 20 init points, seed 1
  c.mode = mode;
  c.acq = acq;
  c.max_sims = 40;
  return c;
}

TEST(GoldenStreams, EasyBoAsyncPenalized) {
  const BoConfig cfg = golden_config(Mode::AsyncBatch, AcqKind::EasyBo);
  ASSERT_TRUE(cfg.penalize);
  EXPECT_EQ(branin_stream_hash(cfg), 0xfa0470d445f78aa7ull);
}

TEST(GoldenStreams, BucbAsync) {
  const BoConfig cfg = golden_config(Mode::AsyncBatch, AcqKind::Bucb);
  EXPECT_EQ(branin_stream_hash(cfg), 0xd2051a4810f363b9ull);
}

TEST(GoldenStreams, PboSync) {
  const BoConfig cfg = golden_config(Mode::SyncBatch, AcqKind::Pbo);
  EXPECT_EQ(branin_stream_hash(cfg), 0x2fc82cac2c80c8aaull);
}

TEST(GoldenStreams, LcbSequential) {
  const BoConfig cfg = golden_config(Mode::Sequential, AcqKind::Lcb);
  EXPECT_EQ(branin_stream_hash(cfg), 0xfce2671a73df5e13ull);
}

TEST(GoldenStreams, EasyBoAsyncMatern52) {
  BoConfig cfg = golden_config(Mode::AsyncBatch, AcqKind::EasyBo);
  cfg.kernel = "matern52";
  EXPECT_EQ(branin_stream_hash(cfg), 0x5454176098359f22ull);
}

TEST(GoldenStreams, EasyBoAsyncOpamp) {
  // The paper's op-amp setup (d = 10, B = 15, 20 initial points) cut to 60
  // sims, on its simulation-time model so the batch runs asynchronously.
  const auto b = circuit::make_opamp_benchmark();
  BoConfig cfg = golden_config(Mode::AsyncBatch, AcqKind::EasyBo);
  cfg.batch = 15;
  cfg.max_sims = 60;
  EXPECT_EQ(stream_hash(cfg, b.bounds, b.fom, b.sim_time),
            0x96ef56a4d3d9b7e8ull);
}

TEST(GoldenStreams, ConstrainedEasyBoAsync) {
  // run_constrained_bo on the sphere subject to x0 >= 1 (the optimum sits
  // on the constraint boundary): B = 4, 60 sims, a cut-down acquisition
  // and trainer budget. The objective and constraint models all start
  // from bo::make_kernel's prior.
  BoConfig cfg = golden_config(Mode::AsyncBatch, AcqKind::EasyBo);
  cfg.batch = 4;
  cfg.init_points = 12;
  cfg.max_sims = 60;
  cfg.seed = 2;
  cfg.acq_opt.sobol_candidates = 128;
  cfg.acq_opt.random_candidates = 64;
  cfg.acq_opt.refine_evals = 60;
  cfg.trainer.max_iters = 20;
  cfg.trainer.restarts = 1;
  const opt::Bounds bounds{{-3.0, -3.0}, {3.0, 3.0}};
  StreamHash hash;
  std::size_t calls = 0;
  const opt::Objective sphere = [&](const Vec& x) {
    hash.add(x);
    ++calls;
    return -(x[0] * x[0] + x[1] * x[1]);
  };
  const std::vector<Constraint> cons = {
      {"x0>=1", [](const Vec& x) { return x[0] - 1.0; }}};
  const ConstrainedResult r = run_constrained_bo(cfg, bounds, sphere, cons);
  EXPECT_EQ(calls, cfg.max_sims);
  EXPECT_EQ(r.num_evals(), cfg.max_sims);
  EXPECT_EQ(hash.value(), 0xa467a2d2cf8616dcull);
}

}  // namespace
}  // namespace easybo::bo
