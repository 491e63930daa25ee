// Strict whole-token number parsing for command-line and config text. A
// token either is exactly a number in the accepted form and range, or it
// is rejected: nothing is skipped, truncated or saturated.
#pragma once

#include <cstdint>
#include <string_view>

namespace adapt {

/// Parses `text` as an unsigned decimal integer in [lo, hi]: one or more
/// digits and nothing else (no sign, whitespace, radix prefix or trailing
/// character). Throws std::invalid_argument on anything else, including a
/// value too large for 64 bits.
std::uint64_t parse_uint(std::string_view text, std::uint64_t lo,
                         std::uint64_t hi);

/// Parses `text` as a finite decimal number > 0, the whole token (fixed or
/// scientific notation; no sign, whitespace, inf, nan or trailing
/// character). Throws std::invalid_argument on anything else.
double parse_positive(std::string_view text);

}  // namespace adapt
