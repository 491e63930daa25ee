#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>

namespace adapt {

// std::from_chars matches no sign on an unsigned type, no '+' on any type,
// no leading whitespace and no radix prefix, and reports overflow instead
// of saturating; `stop == end` then rules out a trailing character.

std::uint64_t parse_uint(std::string_view text, std::uint64_t lo,
                         std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end || value < lo || value > hi) {
    throw std::invalid_argument("expected a decimal integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" +
                                std::string(text) + "'");
  }
  return value;
}

double parse_positive(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end || !std::isfinite(value) ||
      !(value > 0.0)) {
    throw std::invalid_argument("expected a finite number > 0, got '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace adapt
