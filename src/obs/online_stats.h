#pragma once
/// \file online_stats.h
/// \brief Online (single-pass, O(1)-memory) statistics for live telemetry:
/// bias-corrected exponential moving averages (CEMA) and streaming
/// quantile estimates (the P² algorithm).
///
/// These back the StreamSink's live view of a run — eval latency,
/// acquisition inner-eval cost, retry counts — and the serve host's
/// STATUS health plane (docs/telemetry.md documents the exact formulas;
/// scripts/obs_tail.py re-implements them client-side so a tailed stream
/// reproduces the server's numbers).
///
/// Everything here is deterministic arithmetic over the values fed in: no
/// clocks, no RNG. Thread-compatibility is the caller's business (the
/// StreamSink updates these only on its drainer thread).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace easybo::obs {

/// Corrected exponential moving average (the CaDiCaL/Adam-style
/// bias-corrected EMA). The plain EMA
///
///     b_n = (1 - alpha) * b_{n-1} + alpha * x_n,   b_0 = 0
///
/// is biased toward the zero initialization for the first ~1/alpha
/// samples. CEMA divides out exactly how much of the initial zero is
/// still present:
///
///     value_n = b_n / (1 - (1 - alpha)^n)
///
/// so value_1 == x_1 and the estimate is unbiased for a stationary input
/// at every n. The correction term is maintained incrementally (one
/// multiply per sample), never via pow().
class Cema {
 public:
  explicit Cema(double alpha = 0.05) : alpha_(alpha) {}

  void add(double x) {
    biased_ += alpha_ * (x - biased_);
    decay_ *= 1.0 - alpha_;  // (1 - alpha)^n, incrementally
    ++count_;
  }

  /// The bias-corrected average; 0 before the first sample.
  double value() const {
    const double correction = 1.0 - decay_;
    return correction > 0.0 ? biased_ / correction : 0.0;
  }

  double alpha() const { return alpha_; }
  std::uint64_t count() const { return count_; }

 private:
  double alpha_;
  double biased_ = 0.0;
  double decay_ = 1.0;  ///< (1 - alpha)^count
  std::uint64_t count_ = 0;
};

/// Streaming quantile estimate: the P² algorithm (Jain & Chlamtac 1985).
/// Five markers track the running min, the q/2, q and (1+q)/2 quantiles
/// and the max; marker heights are adjusted toward their ideal positions
/// with a piecewise-parabolic interpolation. O(1) memory, no sample
/// retention. For the first five samples the estimate is the exact
/// sample quantile.
class P2Quantile {
 public:
  explicit P2Quantile(double q) : q_(q) {}

  void add(double x);

  /// Current estimate of the q-quantile; 0 before the first sample.
  double value() const;

  double quantile() const { return q_; }
  std::uint64_t count() const { return count_; }

 private:
  double q_;
  std::uint64_t count_ = 0;
  std::array<double, 5> heights_{};    // marker heights (sorted)
  std::array<double, 5> positions_{};  // actual marker positions
  std::array<double, 5> desired_{};    // desired marker positions
  std::array<double, 5> increments_{}; // desired-position increments
};

/// One tracked quantity's full online summary: sample count, running
/// total, last sample, CEMA and streaming p50/p90.
class OnlineStat {
 public:
  explicit OnlineStat(double alpha = 0.05)
      : cema_(alpha), p50_(0.5), p90_(0.9) {}

  void add(double x) {
    ++count_;
    total_ += x;
    last_ = x;
    cema_.add(x);
    p50_.add(x);
    p90_.add(x);
  }

  std::uint64_t count() const { return count_; }
  double total() const { return total_; }
  double last() const { return last_; }
  double cema() const { return cema_.value(); }
  double p50() const { return p50_.value(); }
  double p90() const { return p90_.value(); }

  /// One-line JSON object, e.g.
  /// {"count":12,"total":3.1,"last":0.2,"cema":0.25,"p50":0.24,"p90":0.4}
  std::string json() const;

 private:
  std::uint64_t count_ = 0;
  double total_ = 0.0;
  double last_ = 0.0;
  Cema cema_;
  P2Quantile p50_;
  P2Quantile p90_;
};

}  // namespace easybo::obs
