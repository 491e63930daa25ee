// libFuzzer harness for the victim-policy factory string parser plus a
// short randomized drive of the constructed policy's candidate tracking
// (greedy's bucket index, windowed's seal-order list, or the sealed set
// that cost-benefit, d-choice and random scan).
//
// Input layout: everything before the first '\n' is the policy spec for
// make_victim_policy ("greedy", "d-choice:4", ...); the bytes after it are a
// command tape replayed against the policy (seal / valid-delta / free /
// select) on a small segment pool. std::invalid_argument is the documented
// parser failure mode and is swallowed; a corrupted candidate structure
// shows up as ASan findings or is_candidate()/select() contract traps.
//
// Seed corpus: fuzz/corpus/victim/.
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "lss/segment.h"
#include "lss/victim_policy.h"

namespace {

constexpr std::uint32_t kPoolSegments = 16;
constexpr std::uint32_t kSegmentBlocks = 8;

/// Replays `tape` as lifecycle commands, mirroring candidate membership in a
/// naive bool array and trapping on any disagreement with the policy.
void drive(adapt::lss::VictimPolicy& policy, std::span<const std::uint8_t> tape) {
  policy.bind_pool(kPoolSegments, kSegmentBlocks);
  std::vector<adapt::lss::Segment> pool(kPoolSegments);
  bool sealed[kPoolSegments] = {};
  adapt::Rng rng(12345);
  adapt::VTime now = 0;

  for (std::size_t i = 0; i + 1 < tape.size(); i += 2) {
    const std::uint8_t cmd = tape[i] % 4;
    const auto seg = static_cast<adapt::SegmentId>(tape[i + 1] % kPoolSegments);
    adapt::lss::Segment& s = pool[seg];
    now += 1 + tape[i] % 7;
    switch (cmd) {
      case 0:  // seal with a tape-chosen valid count
        if (!sealed[seg]) {
          sealed[seg] = true;
          s.free = false;
          s.sealed = true;
          s.valid_count = tape[i + 1] % (kSegmentBlocks + 1);
          s.seal_vtime = now;
          policy.on_seal(seg, s.valid_count, now);
        }
        break;
      case 1:  // invalidate one live block
        if (sealed[seg] && s.valid_count > 0) {
          policy.on_valid_delta(seg, s.valid_count, s.valid_count - 1);
          --s.valid_count;
        }
        break;
      case 2:  // reclaim
        if (sealed[seg]) {
          sealed[seg] = false;
          s.free = true;
          s.sealed = false;
          s.valid_count = 0;
          policy.on_free(seg);
        }
        break;
      case 3: {  // select: must return a current candidate or kInvalid
        const adapt::SegmentId victim =
            policy.select(std::span<const adapt::lss::Segment>(pool), now, rng);
        if (victim != adapt::kInvalidSegment &&
            (victim >= kPoolSegments || !sealed[victim])) {
          __builtin_trap();
        }
        break;
      }
    }
    for (adapt::SegmentId id = 0; id < kPoolSegments; ++id) {
      if (policy.is_candidate(id) != sealed[id]) __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const std::size_t nl = input.find('\n');
  const std::string spec(input.substr(0, nl));
  try {
    const auto policy = adapt::lss::make_victim_policy(spec);
    if (policy->name().empty()) __builtin_trap();
    if (nl != std::string_view::npos) {
      drive(*policy, std::span<const std::uint8_t>(data + nl + 1,
                                                   size - nl - 1));
    }
  } catch (const std::invalid_argument&) {
    // Expected for unknown names / malformed parameters.
  }
  return 0;
}
