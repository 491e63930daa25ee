// SegmentPool: physical segment lifecycle for the LSS.
//
// Owns the segment array, the free list, and the per-group in-use counts,
// and drives the victim policy's incremental index notifications
// (on_seal / on_valid_delta / on_free) so the index can never drift from
// pool state. Allocation order is deterministic: segment ids are handed
// out ascending from a reverse-filled free stack, and reclaimed ids are
// reused LIFO — both load-bearing for the pinned fixed-seed regressions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "common/zero_page_array.h"
#include "lss/config.h"
#include "lss/segment.h"
#include "lss/trace_sink.h"
#include "lss/victim_policy.h"

namespace adapt::lss {

class SegmentPool {
 public:
  /// Builds the pool and re-binds `victim`'s index to it; `victim` must
  /// outlive the pool and cannot be shared by two live pools.
  SegmentPool(const LssConfig& config, GroupId group_count,
              VictimPolicy& victim);

  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  /// Attaches a trace sink for segment alloc/seal events (nullptr
  /// detaches). `wall_us` points at the owner's simulated wall clock;
  /// it must outlive the pool (the engine binds its own member).
  void set_trace_sink(TraceSink* sink, const TimeUs* wall_us) noexcept {
    trace_ = sink;
    trace_wall_us_ = wall_us;
  }

  /// Pops a free segment, opens it for `g` at `vtime`, and returns its id.
  /// Throws std::runtime_error when the pool is exhausted.
  SegmentId allocate(GroupId g, VTime vtime);

  /// Seals `id` (fully written) and registers it as a GC candidate.
  void seal(SegmentId id, VTime vtime);

  /// Returns a fully drained segment to the free list, removing it from
  /// the victim index if it was sealed.
  void release(SegmentId id);

  /// Kills the live block in `loc`, notifying the victim index when the
  /// segment is sealed. Throws std::logic_error on double invalidation.
  void invalidate_slot(BlockLocation loc);

  /// Drain variant of invalidate_slot for GC's batched victim sweep: same
  /// pool-side effects, but skips the per-block victim-index notification.
  /// Legal only while the caller is draining the segment to zero and will
  /// release() it before the next selection or audit — every on_valid_delta
  /// implementation is a pure function of stored per-segment state, so an
  /// index that never saw the intermediate counts and is told of the
  /// removal via on_free ends bit-identical to one that tracked each step.
  void invalidate_slot_draining(BlockLocation loc);

  std::span<const Segment> segments() const noexcept { return segments_; }
  const Segment& segment(SegmentId id) const { return segments_[id]; }
  Segment& segment_mut(SegmentId id) { return segments_[id]; }
  /// Bounds-checked mutable access (test-only corruption hooks).
  Segment& at(SegmentId id) { return segments_.at(id); }

  // -- per-slot LBA arena (struct-of-arrays) --------------------------------
  // One pool-level array indexed segment * segment_blocks + slot; padding
  // and never-written slots read as kInvalidLba. Stored here instead of per
  // Segment so segment recycling never allocates. The arena holds each
  // LBA's complement, so its zero pages read as kInvalidLba.

  Lba slot_lba(SegmentId seg, std::uint32_t slot) const noexcept {
    return ~slot_lba_[slot_index(seg, slot)];
  }
  Lba slot_lba(BlockLocation loc) const noexcept {
    return slot_lba(loc.segment, loc.slot);
  }
  void set_slot_lba(SegmentId seg, std::uint32_t slot, Lba lba) noexcept {
    slot_lba_[slot_index(seg, slot)] = ~lba;
  }
  /// Bounds-checked set_slot_lba (test-only corruption hook).
  void set_slot_lba_for_test(SegmentId seg, std::uint32_t slot, Lba lba);

  std::uint32_t free_count() const noexcept { return free_count_; }
  std::size_t size() const noexcept { return segments_.size(); }

  /// In-use segments per group, maintained at allocate/release.
  const std::vector<std::uint32_t>& group_segments() const noexcept {
    return group_segments_;
  }

  /// Bytes the pool's arrays hold: segment headers and their validity
  /// bitmaps, the slot-LBA arena, the free list and the group counts.
  std::size_t memory_usage_bytes() const noexcept;

  /// Counters-tier self-audit; throws std::logic_error on violation.
  void check_counters() const;

 private:
  std::size_t slot_index(SegmentId seg, std::uint32_t slot) const noexcept {
    return static_cast<std::size_t>(seg) * segment_blocks_ + slot;
  }

  const LssConfig& config_;
  VictimPolicy& victim_;
  TraceSink* trace_ = nullptr;
  const TimeUs* trace_wall_us_ = nullptr;
  std::uint32_t segment_blocks_ = 0;
  std::vector<Segment> segments_;
  /// SoA arena: slot_lba_[segment * segment_blocks_ + slot] = ~lba.
  ZeroPageArray<Lba> slot_lba_;
  std::vector<SegmentId> free_list_;
  std::uint32_t free_count_ = 0;
  /// In-use segments per group, maintained at allocate/release.
  std::vector<std::uint32_t> group_segments_;
};

}  // namespace adapt::lss
