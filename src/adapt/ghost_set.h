// Ghost-set GC simulation (paper §3.2).
//
// A ghost set replays sampled user writes through a miniature two-group
// (hot/cold) log-structured layout with its own hot/cold threshold,
// tracking only block keys. Segment sizes are scaled by the sampling rate.
// GC uses greedy selection but — unlike the real system — *discards* victim
// valid blocks instead of rewriting them, because in the real system those
// blocks would leave the user-written groups for GC-rewritten groups. The
// ratio of discarded to written blocks is the ghost's WA proxy; the
// threshold whose ghost discards least wins.
//
// Layout: a fixed pool of capacity_segments + 1 segment slots, allocated
// once (GC runs right after the one segment a write can open, so the pool
// never holds more). Every slot's blocks sit in one flat array and its
// validity in 64-bit words; a location array indexed by the block key says
// where each block's valid copy is. The caller hands dense keys (the
// adapter numbers its sampled blocks 0, 1, 2, ...), so the location array
// grows only when a new key arrives and a warmed set never allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "audit/audit.h"
#include "common/packed_bitmap.h"
#include "common/types.h"

namespace adapt::core {

struct GhostConfig {
  std::uint32_t segment_blocks = 16;   ///< scaled segment size
  std::uint32_t capacity_segments = 64;  ///< user-group capacity budget
};

class GhostSet {
 public:
  /// Interval of a block's first write: no history, so it places cold.
  static constexpr std::uint64_t kNoHistory =
      std::numeric_limits<std::uint64_t>::max();
  /// Modelled overhead of one hash-map node (next ptr + cached hash), used
  /// by the memory models of the ghost sets and the adapter's last-write
  /// map, which model the paper's §4.4 hash-map layout.
  static constexpr std::size_t kHashNodeBytes = 24;

  GhostSet(const GhostConfig& config, std::uint64_t threshold);

  std::uint64_t threshold() const noexcept { return threshold_; }

  /// Changes the hot/cold threshold and restarts WA accounting (placement
  /// state is kept so the set stays warm).
  void set_threshold(std::uint64_t threshold) noexcept {
    threshold_ = threshold;
    reset_metrics();
  }

  void reset_metrics() noexcept {
    written_ = 0;
    discarded_ = 0;
    gc_runs_ = 0;
  }

  /// Feeds one sampled user write with its write interval, or kNoHistory.
  /// `key` is a dense block key: the location array is indexed by it and
  /// grows to the largest key seen.
  void write(std::uint64_t key, std::uint64_t interval);

  std::uint64_t written() const noexcept { return written_; }
  std::uint64_t discarded() const noexcept { return discarded_; }
  std::uint64_t gc_runs() const noexcept { return gc_runs_; }

  /// WA proxy: discarded valid blocks per written block (lower is better).
  double discard_ratio() const noexcept {
    return written_ == 0
               ? 0.0
               : static_cast<double>(discarded_) /
                     static_cast<double>(written_);
  }

  /// "Authentic" once GC has churned enough for the ratio to mean anything.
  bool stable() const noexcept { return gc_runs_ >= 2; }

  std::size_t segment_count() const noexcept { return live_segments_; }

  /// Models the paper's §4.4 hash layout (a segment map and a block map,
  /// ≈20 B per simulated block), not the flat arrays this set allocates,
  /// so the figure stays comparable across layouts.
  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks the
  /// open-segment and pool bookkeeping in O(1); kFull re-derives every
  /// segment's valid count and cross-checks the location array in
  /// O(pool + keys).
  void check_invariants(audit::Level level) const;

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// One pool slot. A free slot has fill 0; a slot is sealed once full.
  struct Segment {
    std::uint64_t key = 0;  ///< creation order: GC ties go to the lowest
    std::uint32_t fill = 0;
    std::uint32_t valid = 0;
  };

  /// Where a key's valid copy sits; slot == kNoSlot when it has none.
  struct Location {
    std::uint32_t slot = kNoSlot;
    std::uint32_t offset = 0;
  };

  void append(std::uint64_t key, bool hot);
  void maybe_gc();
  void grow_locations(std::uint64_t key);

  /// Bit of (slot, offset) in valid_: each slot starts on a word boundary.
  std::size_t bit_of(std::uint32_t slot, std::uint32_t offset) const {
    return std::size_t{slot} * words_per_segment_ * PackedBitmap::kWordBits +
           offset;
  }

  GhostConfig config_;
  std::uint64_t threshold_;
  std::uint64_t written_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t next_segment_key_ = 0;
  std::uint32_t words_per_segment_ = 0;
  std::uint32_t live_segments_ = 0;
  std::uint32_t open_[2] = {kNoSlot, kNoSlot};  // hot, cold open slots
  std::vector<Segment> segments_;               // the pool
  std::vector<std::uint64_t> blocks_;           // slot-major block keys
  PackedBitmap valid_;                          // slot-major validity
  std::vector<std::uint32_t> free_slots_;       // stack of free slots
  std::uint32_t free_count_ = 0;
  std::vector<Location> where_;                 // by block key
};

}  // namespace adapt::core
