// JSON's format rules for every artifact (manifest, series, bench report,
// trace, lint report), in one place:
//
//   * a strict recursive-descent parser (objects, arrays, strings with
//     escapes, numbers, booleans, null — no extensions);
//   * Writer, the one emitter: it appends to a caller-owned string and
//     places every separator and quote itself;
//   * the schema checks the artifact validators are built from.
//
// Dependency-free on purpose: the container image carries no JSON library
// and the schemas involved are tiny.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace adapt::obs::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Accessors throw std::invalid_argument on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;
  const std::map<std::string, Value>& members() const;

  /// Object member lookup; nullptr when absent (throws if not an object).
  const Value* find(std::string_view key) const;

  // Construction is done by the parser.
  friend class Parser;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws std::invalid_argument with a byte offset.
/// Container nesting is bounded (96 levels) so hostile input cannot drive
/// the recursive descent into a stack overflow.
Value parse(std::string_view text);

/// Returns `s` quoted and escaped as a JSON string literal.
std::string quote(std::string_view s);

/// Appends a JSON-legal rendering of `v`: a finite number, or `null` for
/// NaN / infinity (JSON has no encoding for them).
void append_number(std::string& out, double v);

/// Appends JSON to a caller-owned string. Every value and member gets its
/// leading ',' unless it opens its container or follows its key, judged
/// from the last byte already in the string, so the writer holds nothing
/// but the reference and several writers can take turns on one string.
/// Integers render with std::to_string, doubles with append_number,
/// strings with quote's escapes.
class Writer {
 public:
  explicit Writer(std::string& out) noexcept : out_(out) {}

  Writer& begin_object();
  Writer& begin_object(std::string_view key);
  Writer& end_object();
  Writer& begin_array();
  Writer& begin_array(std::string_view key);
  Writer& end_array();

  /// An array element. A signed integer is refused at compile time: write
  /// 0u, since a bare 0 would otherwise render through the double path.
  template <std::unsigned_integral T>
  Writer& value(T v) {
    return integer(v);
  }
  template <std::signed_integral T>
  Writer& value(T v) = delete;
  Writer& value(double v);
  Writer& value(std::string_view v);

  /// An object member, "key":value.
  template <std::unsigned_integral T>
  Writer& field(std::string_view key, T v) {
    return name(key).integer(v);
  }
  template <std::signed_integral T>
  Writer& field(std::string_view key, T v) = delete;
  Writer& field(std::string_view key, double v) { return name(key).value(v); }
  Writer& field(std::string_view key, std::string_view v) {
    return name(key).value(v);
  }
  /// "key":[v0,v1,...]
  Writer& field(std::string_view key, std::span<const std::uint64_t> values);

 private:
  Writer& name(std::string_view key);
  Writer& integer(std::uint64_t v);
  void separate();

  std::string& out_;
};

// Schema checks for the artifact validators. Each throws
// std::invalid_argument("schema: ...") naming the key as a dotted path:
// `path` names the object `obj` (empty for the document itself), so a
// member check on path "lanes" reports "lanes.per_lane". Every check first
// requires `obj` to be an object.

const Value& require(const Value& obj, std::string_view key,
                     std::string_view path = {});
const Value& require_object(const Value& obj, std::string_view key,
                            std::string_view path = {});
const Value& require_array(const Value& obj, std::string_view key,
                           std::string_view path = {});
const std::string& require_string(const Value& obj, std::string_view key,
                                  std::string_view path = {});
double require_number(const Value& obj, std::string_view key,
                      std::string_view path = {});
void require_number_or_null(const Value& obj, std::string_view key,
                            std::string_view path = {});
/// A whole number in [0, 2^53], where a double still counts exactly.
std::uint64_t require_count(const Value& obj, std::string_view key,
                            std::string_view path = {});
/// `obj` carries "schema": `expected`.
void require_schema(const Value& obj, std::string_view expected);
/// obj[array_key] is an array of numbers that sums to the number
/// obj[total_key].
void require_sum(const Value& obj, std::string_view array_key,
                 std::string_view total_key, std::string_view path = {});

}  // namespace adapt::obs::json
