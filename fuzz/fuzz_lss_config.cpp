// libFuzzer harness for the store-configuration surface: the strict
// integer parser, plus the geometry check every engine runs before it is
// built (LssConfig::validate), which is what lets one store cover the GC
// watermark of an 8-group policy.
//
// Input layout: everything before the first '\n' goes to adapt::parse_uint
// verbatim (the hostile-text surface); the bytes after it are decoded into
// an LssConfig geometry and a group count for validate.
// std::invalid_argument is the documented failure mode for both layers and
// is swallowed; anything else (UB, overflow traps, a geometry accepted
// without room for the GC watermark) shows up as a sanitizer finding or a
// __builtin_trap.
//
// Seed corpus: fuzz/corpus/lss_config/.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/parse.h"
#include "lss/config.h"

namespace {

/// Upper bound handed to the parser: a count a command line might carry.
constexpr std::uint64_t kMaxParsed = 4096;

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void check_parser(std::string_view spec) {
  std::uint64_t parsed = 0;
  try {
    parsed = adapt::parse_uint(spec, 1, kMaxParsed);
  } catch (const std::invalid_argument&) {
    return;  // the documented rejection path
  }
  // Contract on acceptance: in range, and round-trips through the
  // canonical decimal rendering.
  if (parsed == 0 || parsed > kMaxParsed) __builtin_trap();
  if (adapt::parse_uint(std::to_string(parsed), 1, kMaxParsed) != parsed) {
    __builtin_trap();
  }
}

void check_geometry(const std::uint8_t* tape, std::size_t size) {
  if (size < 9) return;
  adapt::lss::LssConfig config;
  config.chunk_blocks = 1u + tape[0] % 64u;
  config.segment_chunks = 1u + tape[1] % 64u;
  config.logical_blocks = 1u + read_u32(tape + 2) % (1u << 22);
  config.over_provision = 0.05 + static_cast<double>(tape[6] % 200) / 100.0;
  config.free_segment_reserve = tape[7] % 16u;
  const auto groups = static_cast<adapt::GroupId>(1 + tape[8] % 8);

  try {
    config.validate(groups);
  } catch (const std::invalid_argument&) {
    return;  // an infeasible geometry: op space too small for the groups
  }
  // Contract on acceptance, re-derived without validate's subtraction:
  // the segments hold the logical space plus the GC watermark's reserve,
  // one open segment per group and headroom for GC to make progress.
  const std::uint64_t segment_blocks = config.segment_blocks();
  const std::uint64_t logical_segments =
      (config.logical_blocks + segment_blocks - 1) / segment_blocks;
  const std::uint64_t needed = logical_segments +
                               config.free_segment_reserve +
                               2ull * groups + 2;
  if (config.total_segments() < needed) __builtin_trap();
  if (std::uint64_t{config.total_segments()} * segment_blocks <
      config.physical_blocks()) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const std::size_t nl = input.find('\n');
  check_parser(input.substr(0, nl));
  if (nl != std::string_view::npos) {
    check_geometry(data + nl + 1, size - nl - 1);
  }
  return 0;
}
