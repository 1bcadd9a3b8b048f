#include "io/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace easybo::io {

bool JsonValue::as_bool() const {
  EASYBO_REQUIRE(kind_ == Kind::Bool, "json: expected a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  EASYBO_REQUIRE(kind_ == Kind::Number, "json: expected a number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  EASYBO_REQUIRE(kind_ == Kind::String, "json: expected a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  EASYBO_REQUIRE(kind_ == Kind::Array, "json: expected an array");
  return arr_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_members()
    const {
  EASYBO_REQUIRE(kind_ == Kind::Object, "json: expected an object");
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  EASYBO_REQUIRE(kind_ == Kind::Object, "json: expected an object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw Error("json: missing required key \"" + std::string(key) + "\"");
  }
  return *v;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v(Kind::Bool);
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v(Kind::Number);
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v(Kind::String);
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v(Kind::Array);
  v.arr_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v(Kind::Object);
  v.obj_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw Error("json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The write side never emits \u (it escapes controls with the
          // single-letter forms), but accept BMP escapes for robustness;
          // encode as UTF-8.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  bool skip(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  std::size_t skip_digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - from;
  }

  JsonValue parse_number() {
    // The RFC 8259 grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
    // is checked first: from_chars alone also takes "1.", ".5", "00012",
    // "inf" and "nan".
    const std::size_t begin = pos_;
    skip('-');
    if (!skip('0') && skip_digits() == 0) fail("expected a value");
    const std::size_t point = pos_;
    if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      fail("a number may not have a leading zero");
    }
    if (skip('.') && skip_digits() == 0) fail("expected a digit after '.'");
    long long exponent = 0;
    if (skip('e') || skip('E')) {
      const bool negative = skip('-');
      if (!negative) skip('+');
      const std::size_t digits = pos_;
      if (skip_digits() == 0) fail("expected a digit in the exponent");
      // Saturated far beyond any mantissa's length, which keeps the sign
      // of the magnitude computed below.
      constexpr long long kCap = 100'000'000'000'000'000;
      for (std::size_t i = digits; i < pos_; ++i) {
        exponent = std::min(exponent * 10 + (text_[i] - '0'), kCap);
      }
      if (negative) exponent = -exponent;
    }
    // from_chars rounds correctly and ignores LC_NUMERIC.
    double v = 0.0;
    const char* const first = text_.data() + begin;
    const char* const last = text_.data() + pos_;
    const auto [stop, ec] = std::from_chars(first, last, v);
    if (ec == std::errc::result_out_of_range) {
      // Out of range leaves v unset. An overflow would be +-inf, which
      // JSON cannot hold (the write side emits null for it), so it is
      // refused; an underflow reads as +-0. The decimal exponent of the
      // leading nonzero digit tells the two apart.
      const std::size_t lead = text_.find_first_not_of("0.-", begin);
      const long long magnitude =
          exponent + static_cast<long long>(point) -
          static_cast<long long>(lead) - (lead < point ? 1 : 0);
      if (magnitude >= 0) {
        pos_ = begin;
        fail("non-finite number");
      }
      v = text_[begin] == '-' ? -0.0 : 0.0;
    } else if (ec != std::errc() || stop != last) {
      fail("malformed number");
    }
    return JsonValue::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // The shortest %.{p}g that reads back to value. No p below the digit
  // count of the shortest round-trip form can read back, and that p
  // usually does; near a power of two the correctly rounded p digits can
  // fall outside the narrower lower half of the rounding interval, so p
  // steps up until one reads back (p = 17 always does).
  char buf[32];
  const auto shortest = std::to_chars(buf, buf + sizeof buf, value,
                                      std::chars_format::scientific);
  int p = 0;
  for (const char* c = buf; c != shortest.ptr && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++p;
  }
  for (;; ++p) {
    // to_chars with general format and a precision is printf's %.{p}g in
    // the C locale.
    const auto out = std::to_chars(buf, buf + sizeof buf, value,
                                   std::chars_format::general, p);
    double back = 0.0;
    std::from_chars(buf, out.ptr, back);
    if (back == value || p >= 17) return std::string(buf, out.ptr);
  }
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_u64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t parse_u64(const std::string& text) {
  // For an unsigned type from_chars takes digits only: no whitespace, no
  // sign. Out-of-range values report result_out_of_range.
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end) {
    throw Error("expected a decimal integer in [0, 2^64), got \"" + text +
                "\"");
  }
  return v;
}

std::string json_vec(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += json_number(v[i]);
  }
  out.push_back(']');
  return out;
}

std::vector<double> vec_from(const JsonValue& v) {
  const auto& arr = v.as_array();
  std::vector<double> out(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) out[i] = arr[i].as_double();
  return out;
}

std::uint64_t uint_from(const JsonValue& v, std::string_view context,
                        std::string_view key, std::uint64_t max) {
  const double d = v.as_double();
  if (!(d >= 0.0) || d != std::floor(d) || d > static_cast<double>(max)) {
    throw Error(std::string(context) + ": \"" + std::string(key) +
                "\" must be a non-negative integer no larger than " +
                (max == kJsonMaxInteger ? std::string("2^53")
                                        : std::to_string(max)));
  }
  return static_cast<std::uint64_t>(d);
}

}  // namespace easybo::io
