#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace easybo {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is the one forbidden state of xoshiro; splitmix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // Top 53 bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  EASYBO_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; reject u1 == 0 so log() is finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::size_t Rng::index(std::size_t n) {
  EASYBO_REQUIRE(n > 0, "index(n) requires n > 0");
  // Bounded rejection to avoid modulo bias.
  const std::uint64_t bound = n;
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return static_cast<std::size_t>(r % bound);
  }
}

int Rng::integer(int lo, int hi) {
  EASYBO_REQUIRE(lo <= hi, "integer(lo, hi) requires lo <= hi");
  const auto span =
      static_cast<std::size_t>(static_cast<long long>(hi) - lo + 1);
  return lo + static_cast<int>(index(span));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<double> Rng::uniform_vector(std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = uniform();
  return v;
}

RngState Rng::save() const {
  RngState state;
  state.s = s_;
  state.cached_normal = cached_normal_;
  state.has_cached_normal = has_cached_normal_;
  return state;
}

void Rng::load(const RngState& state) {
  EASYBO_REQUIRE(
      state.s[0] != 0 || state.s[1] != 0 || state.s[2] != 0 || state.s[3] != 0,
      "Rng::load: all-zero state is invalid for xoshiro256++");
  s_ = state.s;
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

}  // namespace easybo
