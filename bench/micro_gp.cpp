/// \file micro_gp.cpp
/// \brief google-benchmark micro-benchmarks of the computational kernels:
/// Cholesky factorization, GP fit/predict, LML gradient, acquisition
/// maximization, MNA solves and the circuit evaluations. These quantify
/// the modeling overhead that the paper's footnote 1 excludes from its
/// reported times. Also measures the src/obs instrumentation itself
/// (null-sink spans must be free, recording spans cheap).
///
/// Results go to stdout only. A JSON record such as the committed
/// BENCH_micro_gp.json baseline is written only when the caller names a
/// file: --benchmark_out=FILE --benchmark_out_format=json.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "acq/acq_optimizer.h"
#include "acq/acquisition.h"
#include "circuit/classe.h"
#include "circuit/opamp.h"
#include "common/rng.h"
#include "gp/gp.h"
#include "linalg/cholesky.h"
#include "obs/recording.h"
#include "obs/stream.h"
#include "obs/trace.h"

namespace {

using easybo::Rng;
using easybo::gp::GpRegressor;
using easybo::gp::SquaredExponentialArd;
using easybo::gp::Vec;
using easybo::linalg::Matrix;

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = easybo::linalg::gram(b);
  a.add_diagonal(static_cast<double>(n));
  return a;
}

GpRegressor fitted_gp(std::size_t n, std::size_t d, Rng& rng) {
  std::vector<Vec> xs(n, Vec(d));
  Vec ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : xs[i]) v = rng.uniform();
    ys[i] = rng.normal();
  }
  GpRegressor gp(std::make_unique<SquaredExponentialArd>(d), 1e-4);
  gp.set_data(std::move(xs), std::move(ys));
  gp.fit();
  return gp;
}

void BM_Cholesky(benchmark::State& state) {
  Rng rng(1);
  const auto a = random_spd(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    easybo::linalg::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
}
BENCHMARK(BM_Cholesky)->Arg(32)->Arg(128)->Arg(256)->Arg(512);

void BM_GpFit(benchmark::State& state) {
  Rng rng(2);
  auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10, rng);
  for (auto _ : state) {
    gp.fit();
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFit)->Arg(50)->Arg(150)->Arg(450);

void BM_GpPredict(benchmark::State& state) {
  Rng rng(3);
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  const Vec x = rng.uniform_vector(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict(x).mean);
  }
}
BENCHMARK(BM_GpPredict)->Arg(50)->Arg(150)->Arg(450);

// --- LML gradient: the fused single pass vs the dense reference -----------
//
// lml_gradient makes one pass over the lower triangle with a per-pair
// value-and-gradient call. The dense path below is how it used to work,
// kept here as the reference: an explicit inverse with one serial
// accumulator per entry, W = alpha alpha^T - K^{-1} as an n x n matrix,
// and d + 1 dense n x n Gram-gradient matrices folded against it, walked
// by column. Both return the same bits; CI gates BM_GpLmlGradient/256
// >= 2.5x BM_LmlGradientDense/256 (scripts/bench_gp_trend.py).

void BM_GpLmlGradient(benchmark::State& state) {
  Rng rng(4);
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.lml_gradient());
  }
}
BENCHMARK(BM_GpLmlGradient)->Arg(50)->Arg(150)->Arg(256);

/// The dense reference gradient of an SE-ARD model (see above).
Vec dense_lml_gradient(const GpRegressor& gp, const Vec& alpha) {
  const auto& kernel =
      static_cast<const SquaredExponentialArd&>(gp.kernel());
  const auto& xs = gp.inputs();
  const Matrix& l = gp.factor().factor();
  const std::size_t n = xs.size();
  const std::size_t d = kernel.dim();
  Matrix linv(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    linv(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc -= l(i, k) * linv(k, j);
      linv(i, j) = acc / l(i, i);
    }
  }
  Matrix kinv(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = i; k < n; ++k) acc += linv(k, i) * linv(k, j);
      kinv(i, j) = acc;
      kinv(j, i) = acc;
    }
  }
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      w(i, j) = alpha[i] * alpha[j] - kinv(i, j);
    }
  }
  std::vector<Matrix> dks(d + 1, Matrix(n, n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double kij = kernel(xs[i], xs[j]);
      dks[0](i, j) = kij;
      dks[0](j, i) = kij;
      for (std::size_t p = 0; p < d; ++p) {
        const double z = (xs[i][p] - xs[j][p]) / kernel.lengthscales()[p];
        const double g = kij * z * z;
        dks[p + 1](i, j) = g;
        dks[p + 1](j, i) = g;
      }
    }
  }
  Vec grad(d + 2, 0.0);
  for (std::size_t p = 0; p <= d; ++p) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 0.5 * w(i, i) * dks[p](i, i);
      for (std::size_t j = 0; j < i; ++j) acc += w(i, j) * dks[p](i, j);
    }
    grad[p] = acc;
  }
  double tr_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr_w += w(i, i);
  grad.back() = 0.5 * gp.noise_variance() * tr_w;
  return grad;
}

void BM_LmlGradientDense(benchmark::State& state) {
  Rng rng(4);  // identical setup to BM_GpLmlGradient for a fair ratio
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  Vec centered = gp.targets();
  for (double& y : centered) y -= gp.empirical_mean();
  const Vec alpha = gp.factor().solve(centered);
  if (dense_lml_gradient(gp, alpha) != gp.lml_gradient()) {
    state.SkipWithError("dense reference and lml_gradient disagree");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense_lml_gradient(gp, alpha));
  }
}
BENCHMARK(BM_LmlGradientDense)->Arg(150)->Arg(256);

void BM_Hallucinate(benchmark::State& state) {
  Rng rng(5);
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  std::vector<Vec> pending(14, Vec(10));
  for (auto& p : pending) p = rng.uniform_vector(10);
  for (auto _ : state) {
    const auto aug = gp.with_hallucinated(pending);
    benchmark::DoNotOptimize(aug.num_points());
  }
}
BENCHMARK(BM_Hallucinate)->Arg(150)->Arg(450);

// --- GP hot-path n-sweep: full fit / hallucination path --------------------
//
// The matrix behind the CI trend check (scripts/bench_gp_trend.py). The
// within-run ratio is the contract — it holds on any machine:
// BM_HallucinateOverlay must beat BM_HallucinateDeepCopy >= 5x at
// n = 2048, k = 8 (the penalized-proposal hot path).

void BM_GpFitFull(benchmark::State& state) {
  Rng rng(11);
  auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10, rng);
  const Vec lp = gp.log_hyperparams();
  for (auto _ : state) {
    gp.set_log_hyperparams(lp);  // drops the factor: every fit is a full one
    gp.fit();
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFitFull)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

std::vector<Vec> pending_batch(std::size_t k, Rng& rng) {
  std::vector<Vec> pending(k);
  for (auto& p : pending) p = rng.uniform_vector(10);
  return pending;
}

// The historical penalization path: copy the whole model (inputs, targets,
// n x n factor), then extend the copy.
void BM_HallucinateDeepCopy(benchmark::State& state) {
  Rng rng(13);
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  const auto pending = pending_batch(8, rng);
  const Vec probe = rng.uniform_vector(10);
  for (auto _ : state) {
    const auto aug = gp.with_hallucinated(pending);
    benchmark::DoNotOptimize(aug.predict(probe).var);
  }
}
BENCHMARK(BM_HallucinateDeepCopy)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// The zero-copy overlay: borrow the base factor, append k rows.
void BM_HallucinateOverlay(benchmark::State& state) {
  Rng rng(13);  // identical setup to the deep copy for a fair ratio
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  const auto pending = pending_batch(8, rng);
  const Vec probe = rng.uniform_vector(10);
  for (auto _ : state) {
    const auto aug = gp.hallucinate(pending);
    benchmark::DoNotOptimize(aug->predict(probe).var);
  }
}
BENCHMARK(BM_HallucinateOverlay)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// --- Paired posterior queries: EasyBO's penalized screening pair ----------
//
// Eq. 9 reads mu from the observed-data model and sigma-hat from its
// hallucinated overlay (k = 14 pending, the paper's B = 15). The split
// path is what every screening evaluation used to cost: a full predict()
// on each model. The batched path serves the same 32 points through one
// paired query (one kernel cross block, one multi-right-hand-side forward
// solve). CI gates BM_PosteriorBatched >= 1.8x BM_PosteriorSplit at
// n = 256 (scripts/bench_gp_trend.py); the outputs are bit-identical.

constexpr std::size_t kPosteriorChunk = 32;

void BM_PosteriorSplit(benchmark::State& state) {
  Rng rng(17);
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  const auto overlay = gp.hallucinate(pending_batch(14, rng));
  const auto xs = pending_batch(kPosteriorChunk, rng);
  for (auto _ : state) {
    for (const Vec& x : xs) {
      benchmark::DoNotOptimize(gp.predict(x).mean);
      benchmark::DoNotOptimize(overlay->predict(x).var);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_PosteriorSplit)->Arg(64)->Arg(256)->Arg(1024);

void BM_PosteriorBatched(benchmark::State& state) {
  Rng rng(17);  // identical setup to the split path for a fair ratio
  const auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10,
                            rng);
  const auto overlay = gp.hallucinate(pending_batch(14, rng));
  const auto xs = pending_batch(kPosteriorChunk, rng);
  std::vector<easybo::gp::Prediction> out(xs.size());
  for (auto _ : state) {
    overlay->predict_paired_batch(gp, xs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_PosteriorBatched)->Arg(64)->Arg(256)->Arg(1024);

void BM_AcquisitionMaximize(benchmark::State& state) {
  Rng rng(6);
  const auto gp = fitted_gp(150, 10, rng);
  const easybo::acq::WeightedUcb fn(&gp, &gp, 0.7);
  easybo::acq::AcqOptOptions opt;
  opt.sobol_candidates = 256;
  opt.random_candidates = 64;
  opt.refine_top_k = 2;
  opt.refine_evals = 80;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        easybo::acq::maximize_acquisition(fn, 10, rng, {}, opt).best_value);
  }
}
BENCHMARK(BM_AcquisitionMaximize);

void BM_OpampEvaluation(benchmark::State& state) {
  Rng rng(7);
  const auto bounds = easybo::circuit::opamp_bounds();
  Vec x(bounds.dim());
  for (std::size_t j = 0; j < x.size(); ++j) {
    x[j] = 0.5 * (bounds.lower[j] + bounds.upper[j]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(easybo::circuit::evaluate_opamp(x).fom);
  }
}
BENCHMARK(BM_OpampEvaluation);

void BM_ClasseEvaluation(benchmark::State& state) {
  const auto bounds = easybo::circuit::classe_bounds();
  Vec x(bounds.dim());
  for (std::size_t j = 0; j < x.size(); ++j) {
    x[j] = 0.5 * (bounds.lower[j] + bounds.upper[j]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(easybo::circuit::evaluate_classe(x).fom);
  }
}
BENCHMARK(BM_ClasseEvaluation);

// --- src/obs instrumentation overhead --------------------------------------

// The null-sink configuration every production run uses: the span must
// compile down to a null check, no clock reads.
void BM_NullSinkSpanAndCounter(benchmark::State& state) {
  easybo::obs::TraceSink* sink = nullptr;
  for (auto _ : state) {
    easybo::obs::ScopedTimer span(sink, easybo::obs::Phase::ModelFit);
    easybo::obs::count(sink, "gp.chol_extend");
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_NullSinkSpanAndCounter);

void BM_RecordingSpanAndCounter(benchmark::State& state) {
  easybo::obs::RecordingSink sink;
  for (auto _ : state) {
    easybo::obs::ScopedTimer span(&sink, easybo::obs::Phase::ModelFit);
    easybo::obs::count(&sink, "gp.chol_extend");
  }
  benchmark::DoNotOptimize(sink.counter("gp.chol_extend"));
}
BENCHMARK(BM_RecordingSpanAndCounter);

// Live streaming (obs/stream.h): the hot-path cost of a span + counter
// with the bounded queue and drainer thread armed, frames going to
// /dev/null. This is the number docs/telemetry.md quotes for the
// "never blocks the BO hot path" contract — expect roughly clock-read
// plus short-critical-section cost, orders of magnitude under one
// objective evaluation.
void BM_StreamSpanAndCounter(benchmark::State& state) {
  easybo::obs::StreamOptions opt;
  opt.source = "bench:micro_gp";
  easybo::obs::StreamSink sink("/dev/null", opt);
  for (auto _ : state) {
    easybo::obs::ScopedTimer span(&sink, easybo::obs::Phase::ModelFit);
    easybo::obs::count(&sink, "gp.chol_extend");
  }
  state.counters["dropped"] =
      static_cast<double>(sink.stats().dropped);
}
BENCHMARK(BM_StreamSpanAndCounter);

// End-to-end check that fit() is not measurably slower when traced.
void BM_GpFitRecorded(benchmark::State& state) {
  Rng rng(8);
  auto gp = fitted_gp(static_cast<std::size_t>(state.range(0)), 10, rng);
  easybo::obs::RecordingSink sink;
  gp.set_trace(&sink);
  for (auto _ : state) {
    gp.fit();
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFitRecorded)->Arg(150);

}  // namespace

BENCHMARK_MAIN();
