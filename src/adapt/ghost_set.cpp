#include "adapt/ghost_set.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "common/annotations.h"

namespace adapt::core {

GhostSet::GhostSet(const GhostConfig& config, std::uint64_t threshold)
    : config_(config), threshold_(threshold) {
  if (config_.segment_blocks == 0 || config_.capacity_segments < 4) {
    throw std::invalid_argument("GhostSet: geometry too small");
  }
  const std::size_t slots = std::size_t{config_.capacity_segments} + 1;
  words_per_segment_ = static_cast<std::uint32_t>(
      (config_.segment_blocks + PackedBitmap::kWordBits - 1) /
      PackedBitmap::kWordBits);
  segments_.resize(slots);
  blocks_.resize(slots * config_.segment_blocks);
  valid_.assign(slots * words_per_segment_ * PackedBitmap::kWordBits, false);
  free_slots_.resize(slots);
  free_count_ = static_cast<std::uint32_t>(slots);
  // Popped from the back: slots are first used in order 0, 1, 2, ...
  for (std::uint32_t i = 0; i < free_count_; ++i) {
    free_slots_[i] = free_count_ - 1 - i;
  }
}

ADAPT_HOT void GhostSet::write(std::uint64_t key, std::uint64_t interval) {
  ++written_;
  if (key >= where_.size()) grow_locations(key);
  // Invalidate the previous ghost copy, if tracked.
  if (const Location loc = where_[key]; loc.slot != kNoSlot) {
    valid_.reset(bit_of(loc.slot, loc.offset));
    --segments_[loc.slot].valid;
  }
  append(key, /*hot=*/interval < threshold_);
  maybe_gc();
}

void GhostSet::grow_locations(std::uint64_t key) {
  where_.resize(std::max<std::size_t>(key + 1, 2 * where_.size()));
}

ADAPT_HOT void GhostSet::append(std::uint64_t key, bool hot) {
  std::uint32_t& open = open_[hot ? 0 : 1];
  if (open == kNoSlot) {
    open = free_slots_[--free_count_];
    segments_[open] = Segment{next_segment_key_++, 0, 0};
    ++live_segments_;
  }
  Segment& seg = segments_[open];
  const std::uint32_t offset = seg.fill++;
  blocks_[std::size_t{open} * config_.segment_blocks + offset] = key;
  valid_.set(bit_of(open, offset));
  ++seg.valid;
  where_[key] = Location{open, offset};
  if (seg.fill == config_.segment_blocks) open = kNoSlot;  // sealed
}

ADAPT_HOT void GhostSet::maybe_gc() {
  while (live_segments_ > config_.capacity_segments) {
    // Greedy: discard the sealed segment with the fewest valid blocks; ties
    // go to the oldest (lowest key).
    std::uint32_t victim = kNoSlot;
    for (std::uint32_t i = 0; i < segments_.size(); ++i) {
      const Segment& seg = segments_[i];
      if (seg.fill != config_.segment_blocks) continue;
      if (victim == kNoSlot || seg.valid < segments_[victim].valid ||
          (seg.valid == segments_[victim].valid &&
           seg.key < segments_[victim].key)) {
        victim = i;
      }
    }
    if (victim == kNoSlot) return;  // nothing sealed yet
    // Valid blocks leave the (simulated) user groups: in the real system GC
    // would move them to GC-rewritten groups. Discard and count.
    Segment& seg = segments_[victim];
    discarded_ += seg.valid;
    const std::uint64_t* keys =
        &blocks_[std::size_t{victim} * config_.segment_blocks];
    const std::size_t first_bit = bit_of(victim, 0);
    for (std::size_t w = 0; w < words_per_segment_; ++w) {
      const std::size_t word = first_bit / PackedBitmap::kWordBits + w;
      for (std::uint64_t bits = valid_.word(word); bits != 0;
           bits &= bits - 1) {
        const std::size_t offset =
            w * PackedBitmap::kWordBits +
            static_cast<std::size_t>(std::countr_zero(bits));
        where_[keys[offset]] = Location{};
        valid_.reset(first_bit + offset);
      }
    }
    seg = Segment{};
    free_slots_[free_count_++] = victim;
    --live_segments_;
    ++gc_runs_;
  }
}

void GhostSet::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("GhostSet invariant violated: ") +
                           what);
  };
  // Counters tier: the pool's occupancy adds up, and the two open segments
  // (if any) must be live, unsealed and strictly below the seal size.
  if (live_segments_ + free_count_ != segments_.size()) {
    fail("live + free slots != pool size");
  }
  if (live_segments_ > config_.capacity_segments) {
    fail("more live segments than the capacity budget");
  }
  for (const std::uint32_t open : open_) {
    if (open == kNoSlot) continue;
    if (open >= segments_.size()) fail("open slot outside the pool");
    const Segment& seg = segments_[open];
    if (seg.fill == 0) fail("open slot is free");
    if (seg.fill >= config_.segment_blocks) {
      fail("open segment at or past seal size");
    }
  }
  if (level != audit::Level::kFull) return;

  // Full tier: every slot is free or live, free slots are listed once and
  // hold nothing, live slots' valid counts match their bitmaps, and the
  // location array indexes exactly the valid blocks.
  std::vector<bool> listed_free(segments_.size(), false);
  for (std::uint32_t i = 0; i < free_count_; ++i) {
    const std::uint32_t slot = free_slots_[i];
    if (slot >= segments_.size() || listed_free[slot]) {
      fail("free list entry out of range or repeated");
    }
    listed_free[slot] = true;
  }
  std::size_t live_blocks = 0;
  for (std::uint32_t slot = 0; slot < segments_.size(); ++slot) {
    const Segment& seg = segments_[slot];
    const bool open = slot == open_[0] || slot == open_[1];
    if (listed_free[slot] != (seg.fill == 0)) {
      fail("free list disagrees with slot fill");
    }
    if (seg.fill > config_.segment_blocks) fail("segment overfilled");
    if (seg.fill != 0 && seg.fill < config_.segment_blocks && !open) {
      fail("unsealed segment that is not open");
    }
    const std::size_t first_bit = bit_of(slot, 0);
    if (valid_.count(first_bit + seg.fill, bit_of(slot + 1, 0)) != 0) {
      fail("valid bit past the segment's fill");
    }
    if (valid_.count(first_bit, first_bit + seg.fill) != seg.valid) {
      fail("valid count drifted from bitmap");
    }
    for (std::uint32_t offset = 0; offset < seg.fill; ++offset) {
      if (!valid_.test(first_bit + offset)) continue;
      const std::uint64_t key =
          blocks_[std::size_t{slot} * config_.segment_blocks + offset];
      if (key >= where_.size() || where_[key].slot != slot ||
          where_[key].offset != offset) {
        fail("valid slot not indexed by the location array");
      }
    }
    live_blocks += seg.valid;
  }
  const auto located = static_cast<std::size_t>(
      std::count_if(where_.begin(), where_.end(),
                    [](const Location& loc) { return loc.slot != kNoSlot; }));
  if (live_blocks != located) fail("located keys != live block count");
}

std::size_t GhostSet::memory_usage_bytes() const noexcept {
  // Deterministic model of the paper's §4.4 hash layout (~20 B per
  // simulated block): per tracked segment, the block log, the validity
  // bitmap (1 bit per slot), the 8 B key and the hash-node overhead; per
  // valid block, key + Location + node overhead. Modelled constants rather
  // than the flat arrays' sizes, so tests can pin exact byte counts and
  // the figure stays comparable with the paper's.
  constexpr std::size_t kLocationBytes = 16;  // segment_key + padded slot
  std::size_t total = 0;
  for (const Segment& seg : segments_) {
    if (seg.fill == 0) continue;
    total += seg.fill * sizeof(Lba)       // block log
             + (seg.fill + 7) / 8         // valid bitmap
             + sizeof(std::uint64_t)      // segment key
             + kHashNodeBytes;
    total += seg.valid * (sizeof(Lba) + kLocationBytes + kHashNodeBytes);
  }
  return total;
}

}  // namespace adapt::core
