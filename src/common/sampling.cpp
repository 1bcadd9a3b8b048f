#include "common/sampling.h"

#include "common/error.h"

namespace easybo {

namespace {

// Joe–Kuo D6 direction-number table for dimensions 2..21 (dimension 1 is the
// van der Corput sequence in base 2 and needs no table entry).
constexpr unsigned kMaxDegree = 7;  // of the table's polynomials

struct JoeKuoEntry {
  unsigned s;                 // degree of the primitive polynomial
  unsigned a;                 // polynomial coefficients (encoded)
  std::uint32_t m[kMaxDegree];  // initial direction numbers m_1..m_s
};

constexpr JoeKuoEntry kJoeKuo[] = {
    {1, 0, {1, 0, 0, 0, 0, 0, 0}},        // d = 2
    {2, 1, {1, 3, 0, 0, 0, 0, 0}},        // d = 3
    {3, 1, {1, 3, 1, 0, 0, 0, 0}},        // d = 4
    {3, 2, {1, 1, 1, 0, 0, 0, 0}},        // d = 5
    {4, 1, {1, 1, 3, 3, 0, 0, 0}},        // d = 6
    {4, 4, {1, 3, 5, 13, 0, 0, 0}},       // d = 7
    {5, 2, {1, 1, 5, 5, 17, 0, 0}},       // d = 8
    {5, 4, {1, 1, 5, 5, 5, 0, 0}},        // d = 9
    {5, 7, {1, 1, 7, 11, 19, 0, 0}},      // d = 10
    {5, 11, {1, 1, 5, 1, 1, 0, 0}},       // d = 11
    {5, 13, {1, 1, 1, 3, 11, 0, 0}},      // d = 12
    {5, 14, {1, 3, 5, 5, 31, 0, 0}},      // d = 13
    {6, 1, {1, 3, 3, 9, 7, 49, 0}},       // d = 14
    {6, 13, {1, 1, 1, 15, 21, 21, 0}},    // d = 15
    {6, 16, {1, 3, 1, 13, 27, 49, 0}},    // d = 16
    {6, 19, {1, 1, 1, 15, 7, 5, 0}},      // d = 17
    {6, 22, {1, 3, 1, 15, 13, 25, 0}},    // d = 18
    {6, 25, {1, 1, 5, 5, 19, 61, 0}},     // d = 19
    {7, 1, {1, 3, 7, 11, 23, 15, 103}},   // d = 20
    {7, 4, {1, 3, 7, 13, 13, 15, 69}},    // d = 21
};

constexpr bool degrees_fit() {
  for (const JoeKuoEntry& e : kJoeKuo) {
    if (e.s < 1 || e.s > kMaxDegree) return false;
  }
  return true;
}
static_assert(degrees_fit(), "every degree indexes inside JoeKuoEntry::m");

constexpr unsigned kBits = 32;

}  // namespace

SobolSequence::SobolSequence(std::size_t dim, std::uint32_t skip) : dim_(dim) {
  EASYBO_REQUIRE(dim >= 1 && dim <= kMaxDim,
                 "SobolSequence supports 1..21 dimensions");
  v_.assign(dim_, std::vector<std::uint32_t>(kBits, 0));
  x_.assign(dim_, 0);

  // Dimension 1: van der Corput, v_k = 2^(32-k).
  for (unsigned k = 0; k < kBits; ++k) v_[0][k] = 1u << (kBits - 1 - k);

  for (std::size_t j = 1; j < dim_; ++j) {
    const JoeKuoEntry& e = kJoeKuo[j - 1];
    const unsigned s = e.s;
    // k < kMaxDegree always holds (degrees_fit); spelled out so the
    // compiler can bound the index too.
    for (unsigned k = 0; k < s && k < kMaxDegree; ++k) {
      v_[j][k] = e.m[k] << (kBits - 1 - k);
    }
    for (unsigned k = s; k < kBits; ++k) {
      std::uint32_t value = v_[j][k - s] ^ (v_[j][k - s] >> s);
      for (unsigned q = 1; q < s; ++q) {
        if ((e.a >> (s - 1 - q)) & 1u) value ^= v_[j][k - q];
      }
      v_[j][k] = value;
    }
  }

  for (std::uint32_t i = 0; i < skip; ++i) (void)next();
}

std::vector<double> SobolSequence::next() {
  std::vector<double> point(dim_);
  for (std::size_t j = 0; j < dim_; ++j) {
    point[j] = static_cast<double>(x_[j]) * 0x1.0p-32;
  }
  // Gray-code update: flip direction number of the lowest zero bit of index.
  std::uint32_t c = 0;
  std::uint32_t value = index_;
  while (value & 1u) {
    value >>= 1;
    ++c;
  }
  EASYBO_REQUIRE(c < kBits, "Sobol sequence exhausted (2^32 points)");
  for (std::size_t j = 0; j < dim_; ++j) x_[j] ^= v_[j][c];
  ++index_;
  return point;
}

}  // namespace easybo
