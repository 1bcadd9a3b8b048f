#include "common/format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace easybo {

std::string format_duration(double seconds) {
  if (!(seconds > 0.0)) return "0s";
  auto total = static_cast<long long>(std::llround(seconds));
  const long long h = total / 3600;
  const long long m = (total % 3600) / 60;
  const long long s = total % 60;
  std::ostringstream oss;
  if (h > 0) {
    oss << h << 'h' << m << 'm' << s << 's';
  } else if (m > 0) {
    oss << m << 'm' << s << 's';
  } else {
    oss << s << 's';
  }
  return oss.str();
}

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  EASYBO_REQUIRE(!header_.empty(), "AsciiTable needs at least one column");
}

void AsciiTable::add_row(std::vector<std::string> row) {
  EASYBO_REQUIRE(row.size() == header_.size(),
                 "AsciiTable row width must match header");
  rows_.push_back(std::move(row));
}

std::string AsciiTable::str() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream oss;
  auto emit_row = [&](const std::vector<std::string>& row) {
    oss << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      oss << ' ' << row[c] << std::string(width[c] - row[c].size(), ' ')
          << " |";
    }
    oss << '\n';
  };
  emit_row(header_);
  oss << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    oss << std::string(width[c] + 2, '-') << '|';
  }
  oss << '\n';
  for (const auto& row : rows_) emit_row(row);
  return oss.str();
}

std::string AsciiTable::csv() const {
  std::ostringstream oss;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) oss << ',';
      oss << row[c];
    }
    oss << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return oss.str();
}

std::ostream& operator<<(std::ostream& os, const AsciiTable& table) {
  return os << table.str();
}

}  // namespace easybo
