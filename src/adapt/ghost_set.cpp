#include "adapt/ghost_set.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace adapt::core {

GhostSet::GhostSet(const GhostConfig& config, std::uint64_t threshold)
    : config_(config), threshold_(threshold) {
  if (config_.segment_blocks == 0 || config_.capacity_segments < 4) {
    throw std::invalid_argument("GhostSet: geometry too small");
  }
}

void GhostSet::write(Lba lba, std::uint64_t interval) {
  ++written_;
  // Invalidate the previous ghost copy, if tracked.
  const auto it = map_.find(lba);
  if (it != map_.end()) {
    const auto seg_it = segments_.find(it->second.segment_key);
    if (seg_it != segments_.end() &&
        seg_it->second.valid[it->second.slot]) {
      seg_it->second.valid[it->second.slot] = false;
      --seg_it->second.valid_count;
    }
    map_.erase(it);
  }
  append(lba, /*hot=*/interval < threshold_);
  maybe_gc();
}

void GhostSet::append(Lba lba, bool hot) {
  std::uint64_t& open = open_key_[hot ? 0 : 1];
  auto seg_it = segments_.find(open);
  if (seg_it == segments_.end()) {
    open = next_segment_key_++;
    GhostSegment seg;
    seg.lbas.reserve(config_.segment_blocks);
    seg_it = segments_.emplace(open, std::move(seg)).first;
  }
  GhostSegment& seg = seg_it->second;
  const auto slot = static_cast<std::uint32_t>(seg.lbas.size());
  seg.lbas.push_back(lba);
  seg.valid.push_back(true);
  ++seg.valid_count;
  map_[lba] = Location{open, slot};
  if (seg.lbas.size() == config_.segment_blocks) {
    seg.sealed = true;
    open = ~0ull;  // force a new open segment next time
  }
}

void GhostSet::maybe_gc() {
  while (segments_.size() > config_.capacity_segments) {
    // Greedy: discard the sealed segment with the fewest valid blocks.
    std::uint64_t victim_key = ~0ull;
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    for (const auto& [key, seg] : segments_) {
      if (!seg.sealed) continue;
      if (seg.valid_count < best_valid) {
        best_valid = seg.valid_count;
        victim_key = key;
      }
    }
    if (victim_key == ~0ull) return;  // nothing sealed yet
    GhostSegment& victim = segments_[victim_key];
    // Valid blocks leave the (simulated) user groups: in the real system GC
    // would move them to GC-rewritten groups. Discard and count.
    discarded_ += victim.valid_count;
    for (std::uint32_t slot = 0; slot < victim.lbas.size(); ++slot) {
      if (victim.valid[slot]) map_.erase(victim.lbas[slot]);
    }
    segments_.erase(victim_key);
    ++gc_runs_;
  }
}

void GhostSet::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("GhostSet invariant violated: ") +
                           what);
  };
  // Counters tier: the two open segments (if any) must be live, unsealed
  // and strictly below the seal size.
  for (const std::uint64_t open : open_key_) {
    if (open == ~0ull) continue;
    const auto it = segments_.find(open);
    if (it == segments_.end()) fail("open key points at no segment");
    if (it->second.sealed) fail("open segment is sealed");
    if (it->second.lbas.size() >= config_.segment_blocks) {
      fail("open segment at or past seal size");
    }
  }
  if (level != audit::Level::kFull) return;

  // Full tier: re-derive per-segment valid counts and walk the map both
  // directions.
  std::size_t live_blocks = 0;
  for (const auto& [key, seg] : segments_) {
    if (seg.valid.size() != seg.lbas.size()) fail("bitmap/slot size skew");
    if (!seg.sealed && key != open_key_[0] && key != open_key_[1]) {
      fail("unsealed segment that is not open");
    }
    if (seg.sealed && seg.lbas.size() != config_.segment_blocks) {
      fail("sealed segment not full");
    }
    std::uint32_t recount = 0;
    for (std::uint32_t slot = 0; slot < seg.lbas.size(); ++slot) {
      if (!seg.valid[slot]) continue;
      ++recount;
      const auto it = map_.find(seg.lbas[slot]);
      if (it == map_.end() || it->second.segment_key != key ||
          it->second.slot != slot) {
        fail("valid slot not indexed by the map");
      }
    }
    if (recount != seg.valid_count) fail("valid_count drifted from bitmap");
    live_blocks += recount;
  }
  if (live_blocks != map_.size()) fail("map size != live block count");
}

std::size_t GhostSet::memory_usage_bytes() const noexcept {
  // Deterministic model of both hash maps (~20 B per simulated block, paper
  // §4.4): per tracked segment, the LBA log, the validity bitmap (1 bit per
  // slot), the 8 B key and the hash-node overhead; per mapped LBA, key +
  // Location + node overhead. Modelled constants rather than sizeof() of
  // implementation types, so tests can pin exact byte counts.
  constexpr std::size_t kLocationBytes = 16;  // segment_key + padded slot
  std::size_t total = 0;
  for (const auto& [key, seg] : segments_) {
    total += seg.lbas.size() * sizeof(Lba)  // LBA log
             + (seg.lbas.size() + 7) / 8    // valid bitmap
             + sizeof(std::uint64_t)        // segment key
             + kHashNodeBytes;
  }
  total += map_.size() * (sizeof(Lba) + kLocationBytes + kHashNodeBytes);
  return total;
}

}  // namespace adapt::core
