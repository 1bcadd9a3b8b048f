// Unit tests for io/json.h numbers: the writer against a reference
// implementation of its format, and the reader's number grammar and
// range edges.

#include "io/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"

namespace easybo::io {
namespace {

/// The reference for json_number, straight from the definition of the
/// format: the first printf %.{p}g, p = 1..16, that strtod reads back to
/// the same double, else %.17g. About 10 us per full-precision double.
std::string probe_loop_reference(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.*g", prec, value);
    if (std::strtod(probe, nullptr) == value) return probe;
  }
  return buf;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

double from_bits(std::uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

void push_with_neighbours(std::vector<double>& out, double d) {
  out.push_back(std::nextafter(d, 0.0));
  out.push_back(d);
  out.push_back(std::nextafter(d, std::numeric_limits<double>::infinity()));
}

TEST(JsonNumber, MatchesProbeLoopReference) {
  std::vector<double> values = {0.0,     -0.0,    DBL_MAX, -DBL_MAX,
                                DBL_MIN, DBL_TRUE_MIN};
  for (int e = -1074; e <= 1023; ++e) {
    push_with_neighbours(values, std::ldexp(1.0, e));
  }
  for (int e = -323; e <= 308; ++e) {
    const std::string literal = "1e" + std::to_string(e);
    push_with_neighbours(values, std::strtod(literal.c_str(), nullptr));
  }
  std::mt19937_64 rng(20240601);
  for (int i = 0; i < 25000; ++i) {
    values.push_back(from_bits(rng()));  // NaN and +-inf now and then
    values.push_back(static_cast<double>(rng() >> 11) * 0x1p-53);
  }

  std::size_t mismatched = 0;
  for (const double v : values) {
    const std::string got = json_number(v);
    const std::string want = probe_loop_reference(v);
    if (got != want && ++mismatched <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits_of(v) << ": json_number "
                    << got << ", reference " << want;
    }
    if (std::isfinite(v)) {
      // What was written reads back bit for bit.
      EXPECT_EQ(bits_of(parse_json(got).as_double()), bits_of(v)) << got;
    }
  }
  EXPECT_EQ(mismatched, 0u) << "of " << values.size() << " doubles";
}

// Literals printed by the %.{p}g probe loop the durable files were
// written with, pinned so the exponent and sign shapes cannot drift.
TEST(JsonNumber, KeepsThePrintfGShape) {
  EXPECT_EQ(json_number(10.0), "1e+01");
  EXPECT_EQ(json_number(100.0), "1e+02");
  EXPECT_EQ(json_number(1e-5), "1e-05");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(DBL_TRUE_MIN), "5e-324");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonParse, RefusesNumbersOutsideTheRfc8259Grammar) {
  for (const char* text : {"0x10", "-0x1p3", "00012", "1.e3", "+1", "1.", ".5",
                           "-", "1e", "1e+", "-.5", "inf", "nan", "[01]"}) {
    EXPECT_THROW(parse_json(text), Error) << text;
  }
  EXPECT_EQ(parse_json("0").as_double(), 0.0);
  EXPECT_EQ(parse_json("-1.25e-3").as_double(), -1.25e-3);
  EXPECT_EQ(parse_json("1E+2").as_double(), 100.0);
  EXPECT_EQ(parse_json("[10,0.5]").as_array().at(1).as_double(), 0.5);
}

// Out-of-range literals: an overflow is refused as non-finite, an
// underflow reads as a signed zero, whatever the mantissa's length.
TEST(JsonParse, RefusesOverflowAndReadsUnderflowAsZero) {
  EXPECT_THROW(parse_json("1e999"), Error);
  EXPECT_THROW(parse_json("-1.7976931348623159e308"), Error);
  EXPECT_THROW(parse_json("1" + std::string(400, '0') + "e-50"), Error);
  const double minus_tiny = parse_json("-1e-400").as_double();
  EXPECT_EQ(minus_tiny, 0.0);
  EXPECT_TRUE(std::signbit(minus_tiny));
  const double tiny = parse_json("0.000001e-320").as_double();
  EXPECT_EQ(tiny, 0.0);
  EXPECT_FALSE(std::signbit(tiny));
  EXPECT_EQ(parse_json("1" + std::string(400, '0') + "e-800").as_double(),
            0.0);
  EXPECT_EQ(parse_json("1e-99999999999999999999999").as_double(), 0.0);
  EXPECT_EQ(parse_json("0e999").as_double(), 0.0);
  EXPECT_EQ(parse_json("1.7976931348623157e308").as_double(), DBL_MAX);
  EXPECT_EQ(parse_json("3e-324").as_double(), DBL_TRUE_MIN);
}

}  // namespace
}  // namespace easybo::io
