#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace adapt::obs::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::invalid_argument(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error("a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("a string");
  return string_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::kArray) type_error("an array");
  return array_;
}

const std::map<std::string, Value>& Value::members() const {
  if (type_ != Type::kObject) type_error("an object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) type_error("an object");
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  /// Nesting bound: the recursive descent otherwise turns `[[[[...` into a
  /// stack overflow. Far above any artifact schema (deepest is 4) and low
  /// enough to stay within default thread stacks even under sanitizers.
  static constexpr std::size_t kMaxDepth = 96;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("json: " + why + " at offset " +
                                std::to_string(pos_));
  }

  void enter() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
  }
  void leave() noexcept { --depth_; }

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
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.type_ = Value::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        Value v;
        v.type_ = Value::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        Value v;
        v.type_ = Value::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    enter();
    Value v;
    v.type_ = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (!v.object_.emplace(std::move(key), parse_value()).second) {
        fail("duplicate object key");
      }
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        leave();
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    enter();
    Value v;
    v.type_ = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        leave();
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the schemas only carry ASCII names).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("bad number");
    }
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    // JSON forbids leading zeros: "0" is a full integer part, "01" is not.
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    Value v;
    v.type_ = Value::Type::kNumber;
    v.number_ = std::strtod(token.c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

Value parse(std::string_view text) { return Parser(text).parse_document(); }

namespace {

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

// -- Writer ----------------------------------------------------------------

void Writer::separate() {
  if (out_.empty()) return;
  switch (out_.back()) {
    case '{':
    case '[':
    case ':':
      return;
    default:
      out_ += ',';
  }
}

Writer& Writer::name(std::string_view key) {
  separate();
  append_quoted(out_, key);
  out_ += ':';
  return *this;
}

Writer& Writer::integer(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

Writer& Writer::begin_object() {
  separate();
  out_ += '{';
  return *this;
}

Writer& Writer::begin_object(std::string_view key) {
  return name(key).begin_object();
}

Writer& Writer::end_object() {
  out_ += '}';
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  out_ += '[';
  return *this;
}

Writer& Writer::begin_array(std::string_view key) {
  return name(key).begin_array();
}

Writer& Writer::end_array() {
  out_ += ']';
  return *this;
}

Writer& Writer::value(double v) {
  separate();
  append_number(out_, v);
  return *this;
}

Writer& Writer::value(std::string_view v) {
  separate();
  append_quoted(out_, v);
  return *this;
}

Writer& Writer::field(std::string_view key,
                      std::span<const std::uint64_t> values) {
  begin_array(key);
  for (const std::uint64_t v : values) integer(v);
  return end_array();
}

// -- Schema checks -----------------------------------------------------------

namespace {

[[noreturn]] void schema_error(std::string_view path, std::string_view key,
                               std::string_view problem) {
  std::string message = "schema: ";
  if (!path.empty()) {
    message += path;
    message += '.';
  }
  message += key;
  message += ' ';
  message += problem;
  throw std::invalid_argument(message);
}

}  // namespace

const Value& require(const Value& obj, std::string_view key,
                     std::string_view path) {
  if (!obj.is_object()) {
    throw std::invalid_argument(
        "schema: " + std::string(path.empty() ? "document" : path) +
        " must be an object");
  }
  const Value* v = obj.find(key);
  if (v == nullptr) schema_error(path, key, "is missing");
  return *v;
}

const Value& require_object(const Value& obj, std::string_view key,
                            std::string_view path) {
  const Value& v = require(obj, key, path);
  if (!v.is_object()) schema_error(path, key, "must be an object");
  return v;
}

const Value& require_array(const Value& obj, std::string_view key,
                           std::string_view path) {
  const Value& v = require(obj, key, path);
  if (!v.is_array()) schema_error(path, key, "must be an array");
  return v;
}

const std::string& require_string(const Value& obj, std::string_view key,
                                  std::string_view path) {
  const Value& v = require(obj, key, path);
  if (!v.is_string()) schema_error(path, key, "must be a string");
  return v.as_string();
}

double require_number(const Value& obj, std::string_view key,
                      std::string_view path) {
  const Value& v = require(obj, key, path);
  if (!v.is_number()) schema_error(path, key, "must be a number");
  return v.as_number();
}

void require_number_or_null(const Value& obj, std::string_view key,
                            std::string_view path) {
  const Value& v = require(obj, key, path);
  if (!v.is_number() && !v.is_null()) {
    schema_error(path, key, "must be a number or null");
  }
}

std::uint64_t require_count(const Value& obj, std::string_view key,
                            std::string_view path) {
  const double v = require_number(obj, key, path);
  if (!(v >= 0 && v <= 0x1p53) || v != std::floor(v)) {
    schema_error(path, key, "must be a count");
  }
  return static_cast<std::uint64_t>(v);
}

void require_schema(const Value& obj, std::string_view expected) {
  if (require_string(obj, "schema") != expected) {
    throw std::invalid_argument("schema: expected \"" +
                                std::string(expected) + '"');
  }
}

void require_sum(const Value& obj, std::string_view array_key,
                 std::string_view total_key, std::string_view path) {
  const double total = require_number(obj, total_key, path);
  double sum = 0.0;
  for (const Value& v : require_array(obj, array_key, path).items()) {
    if (!v.is_number()) schema_error(path, array_key, "must hold numbers");
    sum += v.as_number();
  }
  if (sum != total) {
    std::string problem = "must sum to ";
    if (!path.empty()) {
      problem += path;
      problem += '.';
    }
    problem += total_key;
    schema_error(path, array_key, problem);
  }
}

}  // namespace adapt::obs::json
