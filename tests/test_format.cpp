// Unit tests for common/format.h: the paper-style duration format and the
// ASCII table renderer.

#include "common/format.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace easybo {
namespace {

TEST(FormatDuration, PaperStyleExamples) {
  // Values mirroring the paper's Table I time column style.
  EXPECT_EQ(format_duration(216.0 * 3600 + 40 * 60 + 51), "216h40m51s");
  EXPECT_EQ(format_duration(21 * 60 + 19), "21m19s");
  EXPECT_EQ(format_duration(42.0), "42s");
  EXPECT_EQ(format_duration(0.0), "0s");
}

TEST(FormatDuration, RoundsSubSecond) {
  EXPECT_EQ(format_duration(59.6), "1m0s");
  EXPECT_EQ(format_duration(0.4), "0s");
}

TEST(FormatDuration, NegativeClampsToZero) {
  EXPECT_EQ(format_duration(-5.0), "0s");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(3.14159, 0), "3");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"Algo", "Best"});
  t.add_row({"EasyBO-5", "690.36"});
  t.add_row({"pBO", "690.35"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| Algo     | Best   |"), std::string::npos);
  EXPECT_NE(s.find("| EasyBO-5 | 690.36 |"), std::string::npos);
  EXPECT_NE(s.find("|----------|--------|"), std::string::npos);
}

TEST(AsciiTable, CsvOutput) {
  AsciiTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(AsciiTable, RejectsRaggedRow) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(AsciiTable, RejectsEmptyHeader) {
  EXPECT_THROW(AsciiTable({}), InvalidArgument);
}

}  // namespace
}  // namespace easybo
