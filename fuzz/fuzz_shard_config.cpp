// libFuzzer harness for the shard-configuration surface: the strict integer
// parser, here over the shard-count range, plus the per-shard geometry
// derivation and its validation.
//
// Input layout: everything before the first '\n' goes to adapt::parse_uint
// verbatim (the hostile-text surface); the bytes after it are decoded into
// an LssConfig geometry and a shard count for shard_config + validate.
// std::invalid_argument is the documented failure mode for both layers and
// is swallowed; anything else (UB, overflow traps, a ceil-division that
// loses blocks) shows up as a sanitizer finding or a __builtin_trap.
//
// Seed corpus: fuzz/corpus/shard/.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/parse.h"
#include "lss/config.h"
#include "lss/sharded_engine.h"

namespace {

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void check_parser(std::string_view spec) {
  constexpr std::uint64_t kMax = adapt::lss::kMaxShards;
  std::uint64_t parsed = 0;
  try {
    parsed = adapt::parse_uint(spec, 1, kMax);
  } catch (const std::invalid_argument&) {
    return;  // the documented rejection path
  }
  // Contract on acceptance: in range, and round-trips through the
  // canonical decimal rendering.
  if (parsed == 0 || parsed > kMax) __builtin_trap();
  if (adapt::parse_uint(std::to_string(parsed), 1, kMax) != parsed) {
    __builtin_trap();
  }
}

void check_geometry(const std::uint8_t* tape, std::size_t size) {
  if (size < 12) return;
  adapt::lss::LssConfig config;
  config.chunk_blocks = 1u + tape[0] % 64u;
  config.segment_chunks = 1u + tape[1] % 64u;
  config.logical_blocks = 1u + read_u32(tape + 2) % (1u << 22);
  config.over_provision = 0.05 + static_cast<double>(tape[6] % 200) / 100.0;
  config.free_segment_reserve = tape[7] % 16u;
  const std::uint32_t shards =
      1u + read_u32(tape + 8) % adapt::lss::kMaxShards;
  const auto groups = static_cast<adapt::GroupId>(1 + tape[11] % 8);

  try {
    const adapt::lss::LssConfig per_shard =
        adapt::lss::shard_config(config, shards);
    // Ceil-division contract: the shards jointly cover the global space
    // without over-allocating a full extra row per shard.
    if (per_shard.logical_blocks * shards < config.logical_blocks) {
      __builtin_trap();
    }
    if (per_shard.logical_blocks > 0 &&
        (per_shard.logical_blocks - 1) * shards >= config.logical_blocks) {
      __builtin_trap();
    }
    per_shard.validate(groups);
  } catch (const std::invalid_argument&) {
    // Expected for infeasible geometries (shards > blocks, op space too
    // small for the group count, ...).
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
