// BlockMap: the logical-to-physical mapping of the LSS.
//
// Owns the packed primary map (one 64-bit word per logical block holding a
// BlockLocation, or kUnmappedLocation) and the shadow map of live
// cross-group aggregation copies (lazy-append originals still pending).
// The primary map stores each packed location's complement, so its zero
// pages read as kUnmappedLocation and a build writes none of them.
// Mapping state only — slot liveness lives in the SegmentPool; the
// cross-structure invalidation paths take the pool as a parameter so both
// sides move together.
//
// Bounds contract: locate() is the tolerant query — any lba is accepted and
// out-of-range returns kNowhere, because replay layers probe speculative
// addresses. Every other accessor (is_mapped, primary_is, set_primary,
// clear_primary, invalidate) requires lba < logical_blocks(): the engine
// validates LBAs once at the write_block boundary, so the per-op inner path
// pays no repeated range checks. Audit builds (!NDEBUG) assert it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/annotations.h"
#include "common/histogram.h"
#include "common/prefetch.h"
#include "common/types.h"
#include "common/zero_page_array.h"
#include "lss/flat_shadow_map.h"
#include "lss/segment.h"

namespace adapt::lss {

class SegmentPool;

inline constexpr std::uint64_t kUnmappedLocation =
    std::numeric_limits<std::uint64_t>::max();

constexpr std::uint64_t pack_location(BlockLocation loc) noexcept {
  return (static_cast<std::uint64_t>(loc.segment) << 32) | loc.slot;
}

constexpr BlockLocation unpack_location(std::uint64_t packed) noexcept {
  return BlockLocation{static_cast<SegmentId>(packed >> 32),
                       static_cast<std::uint32_t>(packed & 0xffffffffu)};
}

class BlockMap {
 public:
  /// `expected_shadows` pre-sizes the flat shadow table (live shadows are
  /// bounded by pending blocks across open chunks, i.e. group_count *
  /// chunk_blocks) so steady state never rehashes.
  explicit BlockMap(std::uint64_t logical_blocks,
                    std::size_t expected_shadows = 0)
      : primary_(logical_blocks) {
    shadow_.reserve(expected_shadows);
  }

  std::uint64_t logical_blocks() const noexcept { return primary_.size(); }

  /// Attaches the block-lifetime histogram: every primary-copy death in
  /// invalidate() records `vtime - segment create_vtime` (residence time of
  /// the physical copy, in user blocks written — an approximation of
  /// logical lifetime that resets when GC relocates the block). Both
  /// references must outlive the map; nullptr detaches.
  void bind_lifetime(const VTime& vtime, Log2Histogram* lifetime) noexcept {
    lifetime_vtime_ = &vtime;
    lifetime_ = lifetime;
  }

  /// Hints the cache that lba's primary entry is about to be read and
  /// written. The primary array is the engine's largest hot structure
  /// (8 bytes per logical block), so overlapping its fetch with preceding
  /// work hides most of the per-op miss latency. No architectural effect.
  /// Precondition: lba < logical_blocks().
  ADAPT_HOT void prefetch_primary(Lba lba) const noexcept {
    prefetch_for_write(primary_.data() + lba);
  }

  /// Where lba currently lives (primary copy), or kNowhere. Tolerant of
  /// out-of-range lba by contract (see header comment).
  ADAPT_HOT BlockLocation locate(Lba lba) const {
    if (lba >= primary_.size()) return kNowhere;
    const std::uint64_t word = packed(lba);
    return word == kUnmappedLocation ? kNowhere : unpack_location(word);
  }

  /// Precondition: lba < logical_blocks().
  ADAPT_HOT bool is_mapped(Lba lba) const {
    return packed(lba) != kUnmappedLocation;
  }

  /// True when lba's primary copy is exactly `loc` (cheap packed compare).
  /// Precondition: lba < logical_blocks().
  ADAPT_HOT bool primary_is(Lba lba, BlockLocation loc) const {
    return packed(lba) == pack_location(loc);
  }

  /// Precondition: lba < logical_blocks().
  ADAPT_HOT void set_primary(Lba lba, BlockLocation loc) {
    assert(lba < primary_.size());
    primary_[lba] = ~pack_location(loc);
  }

  /// Precondition: lba < logical_blocks().
  ADAPT_HOT void clear_primary(Lba lba) {
    assert(lba < primary_.size());
    primary_[lba] = ~kUnmappedLocation;
  }

  ADAPT_HOT bool has_shadow(Lba lba) const { return shadow_.contains(lba); }

  /// Where lba's live shadow copy sits, or kNowhere when it has none.
  ADAPT_HOT BlockLocation shadow_location(Lba lba) const {
    return shadow_.find(lba);
  }

  ADAPT_HOT void set_shadow(Lba lba, BlockLocation loc) {
    shadow_.insert_or_assign(lba, loc);
  }

  std::size_t live_shadow_count() const noexcept { return shadow_.size(); }

  /// Deterministic slot-order iteration over (lba, location) pairs; the
  /// flat table's layout is a pure function of the insert/erase sequence
  /// (no tombstones, no pointer-keyed state), so fixed-seed runs see a
  /// fixed order.
  const FlatShadowMap& shadows() const noexcept { return shadow_; }

  /// Drops lba's primary and shadow copies (if any), invalidating their
  /// slots in the pool. The overwrite path of a user write.
  /// Precondition: lba < logical_blocks().
  void invalidate(Lba lba, SegmentPool& pool);

  /// Expires lba's live shadow copy, if any: the lazy-append original
  /// persisted, so the shadow's slot dies.
  void expire_shadow(Lba lba, SegmentPool& pool);

  /// Bytes the primary map and the shadow table hold.
  std::size_t memory_usage_bytes() const noexcept {
    return primary_.bytes() + shadow_.memory_usage_bytes();
  }

  /// Counters-tier self-audit; throws std::logic_error on violation.
  void check_counters() const;

 private:
  /// lba's packed primary location, or kUnmappedLocation.
  ADAPT_HOT std::uint64_t packed(Lba lba) const {
    assert(lba < primary_.size());
    return ~primary_[lba];
  }

  const VTime* lifetime_vtime_ = nullptr;
  Log2Histogram* lifetime_ = nullptr;
  /// primary_[lba] = ~(packed BlockLocation), or 0 while unmapped.
  ZeroPageArray<std::uint64_t> primary_;
  /// Live shadow copies (lazy-append originals still pending).
  FlatShadowMap shadow_;
};

}  // namespace adapt::lss
