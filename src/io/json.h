#pragma once
/// \file json.h
/// \brief Minimal JSON reader/writer helpers for the durability layer.
///
/// The observability exporters (src/obs) only ever *emit* JSON; the
/// checkpoint/resume subsystem (docs/checkpoint-format.md) must also read
/// its own journal and snapshot files back, so this module adds a small
/// recursive-descent parser with exactly the features those files use:
/// objects, arrays, strings with escapes, doubles, booleans and null. No
/// external dependency — the container images pin what is installed, and
/// a ~200-line parser is cheaper to audit than a vendored library.
///
/// A double is written as the shortest printf "%.{p}g", p = 1..17, that
/// reads back to the same value, and numbers are read by the RFC 8259
/// grammar with correct rounding in every locale, so a double survives
/// write -> parse bit for bit. 64-bit integers that must not lose
/// precision (RNG words, config hashes) are stored as decimal *strings*
/// on the wire and converted with the u64 helpers below.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace easybo::io {

/// One parsed JSON value. Object members keep file order.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }

  /// Typed accessors; each throws easybo::Error on a kind mismatch so a
  /// malformed checkpoint fails loudly instead of reading garbage.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  /// Object members in file order (strict readers enumerate these to
  /// reject unknown keys). Throws easybo::Error on a kind mismatch.
  const std::vector<std::pair<std::string, JsonValue>>& as_members() const;

  /// Object member lookup; nullptr when absent (for optional fields).
  const JsonValue* find(std::string_view key) const;
  /// Object member lookup that throws easybo::Error when absent.
  const JsonValue& at(std::string_view key) const;

  // Construction (used by the parser; tests build values directly too).
  static JsonValue make_null() { return JsonValue(Kind::Null); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Parses one JSON document. Throws easybo::Error (with the byte offset)
/// on malformed input or trailing garbage. A number outside the RFC 8259
/// grammar ("0x10", "00012", "1.", ".5", "+1") or too large for a double
/// is malformed; one too small for a double reads as +-0.
JsonValue parse_json(std::string_view text);

// --- write-side helpers (shared formatting with easybo.metrics.v1) ------

/// The shortest printf "%.{p}g", p = 1..17, that reads back to exactly
/// \p value: 1.0 prints as "1", 10.0 as "1e+01", 0.1 as "0.1". Non-finite
/// values print as "null" (JSON has no NaN/Inf literal).
std::string json_number(double value);

/// Quoted, escaped JSON string literal.
std::string json_quote(std::string_view s);

/// 64-bit values cross the wire as decimal strings: JSON numbers are
/// doubles and lose integer precision above 2^53.
std::string json_u64(std::uint64_t value);

/// Strict inverse of json_u64, also the integer parser of the command-line
/// front ends: accepts only a non-empty run of ASCII digits whose value
/// fits in 64 bits (no sign, no whitespace, no trailing characters).
/// Throws easybo::Error naming the offending text otherwise.
std::uint64_t parse_u64(const std::string& text);

/// A JSON array of round-trip numbers (json_number per element).
std::string json_vec(const std::vector<double>& v);

// --- checked readers ------------------------------------------------------

/// The elements of a JSON array of numbers.
std::vector<double> vec_from(const JsonValue& v);

/// 2^53: a JSON number (a double) holds every integer up to it exactly.
inline constexpr std::uint64_t kJsonMaxInteger = 9007199254740992ull;

/// The number \p v as an integer in [0, \p max], for \p max <= 2^53.
/// Converting a negative, fractional or out-of-range double to an integer
/// type is undefined, so each is refused before the conversion: throws
/// easybo::Error "<context>: \"<key>\" must be a non-negative integer no
/// larger than <max>".
std::uint64_t uint_from(const JsonValue& v, std::string_view context,
                        std::string_view key,
                        std::uint64_t max = kJsonMaxInteger);

}  // namespace easybo::io
