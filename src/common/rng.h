#pragma once
/// \file rng.h
/// \brief Deterministic, seedable random number generation for EasyBO.
///
/// All stochastic components of the library (initial designs, DE mutation,
/// acquisition κ-sampling, Nelder–Mead restarts, ...) draw from easybo::Rng
/// so that every experiment is reproducible from a single 64-bit seed.
///
/// The engine is xoshiro256++ (Blackman & Vigna, 2019): 256-bit state,
/// excellent statistical quality, trivially fast, and — unlike
/// std::mt19937 — identical output on every platform/standard library.

#include <array>
#include <cstdint>
#include <vector>

namespace easybo {

/// SplitMix64 step, used to expand a 64-bit seed into engine state. Public
/// because the deterministic simulation-time model reuses it as a hash.
std::uint64_t splitmix64(std::uint64_t& state);

/// Complete serializable state of an Rng. The cached Box–Muller deviate is
/// part of the stream position: normal() consumes two uniforms and yields
/// two deviates, so dropping the cache would shift every draw after an odd
/// number of normal() calls. Checkpoint/resume (docs/checkpoint-format.md)
/// round-trips this struct; restoring it reproduces the remaining stream
/// bit for bit.
struct RngState {
  std::array<std::uint64_t, 4> s{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;

  bool operator==(const RngState&) const = default;
};

/// xoshiro256++ engine with convenience distributions.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can also be
/// handed to <random> distributions if ever needed, but the built-in
/// distribution helpers below are preferred (they are platform-stable).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from \p seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0xEA5B0DEFu);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached second deviate).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int integer(int lo, int hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Vector of n iid uniform [0,1) values.
  std::vector<double> uniform_vector(std::size_t n);

  /// Snapshot of the full generator state (engine words + normal cache).
  RngState save() const;

  /// Restores a state captured by save(); subsequent draws are
  /// bit-identical to the generator the state came from. Rejects the
  /// all-zero engine state (invalid for xoshiro).
  void load(const RngState& state);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace easybo
