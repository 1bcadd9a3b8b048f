#pragma once
/// \file format.h
/// \brief Duration formatting and ASCII/CSV table rendering.
///
/// The experiment harness reproduces the paper's tables, including its
/// "216h40m51s" / "21m19s" time format; both live here so benches and
/// examples print consistently.

#include <iosfwd>
#include <string>
#include <vector>

namespace easybo {

/// Formats a duration in seconds in the paper's style:
///   90261.0  -> "25h4m21s"
///   1279.0   -> "21m19s"
///   42.5     -> "42s"   (sub-minute durations are rounded to whole seconds)
/// Negative durations are clamped to "0s".
std::string format_duration(double seconds);

/// Fixed-precision float formatting (std::to_string has fixed 6 digits and
/// no rounding control; this wraps snprintf).
std::string format_double(double value, int precision = 2);

/// Minimal ASCII table with a header row, used for the Table I/II replicas.
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Renders with column alignment:
  ///   | Algo     | Best   | ... |
  ///   |----------|--------|-----|
  std::string str() const;

  /// Comma-separated rendering with the same content (for post-processing).
  std::string csv() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const AsciiTable& table);

}  // namespace easybo
