#include "lss/segment_pool.h"

#include <algorithm>
#include <stdexcept>

#include "common/annotations.h"

namespace adapt::lss {

SegmentPool::SegmentPool(const LssConfig& config, GroupId group_count,
                         VictimPolicy& victim)
    : config_(config),
      victim_(victim),
      segment_blocks_(config.segment_blocks()),
      slot_lba_(static_cast<std::size_t>(config.total_segments()) *
                segment_blocks_) {
  const std::uint32_t total = config_.total_segments();
  segments_.resize(total);
  free_list_.reserve(total);
  for (std::uint32_t i = 0; i < total; ++i) {
    segments_[i].reset(config_.segment_blocks());
    // Push in reverse so allocation order is 0, 1, 2, ...
    free_list_.push_back(total - 1 - i);
  }
  free_count_ = total;
  victim_.bind_pool(total, config_.segment_blocks());
  group_segments_.assign(group_count, 0);
}

ADAPT_HOT SegmentId SegmentPool::allocate(GroupId g, VTime vtime) {
  if (free_list_.empty()) {
    throw std::runtime_error(
        "LssEngine: segment pool exhausted (GC could not keep up)");
  }
  const SegmentId id = free_list_.back();
  free_list_.pop_back();
  --free_count_;
  Segment& seg = segments_[id];
  seg.reset(config_.segment_blocks());
  seg.free = false;
  seg.group = g;
  seg.create_vtime = vtime;
  ++group_segments_[g];
  if (trace_ != nullptr) {
    emit(trace_, TraceEvent{TraceEventKind::kSegmentAlloc, g, vtime,
                            trace_wall_us_ != nullptr ? *trace_wall_us_ : 0,
                            id, 0, 0});
  }
  return id;
}

ADAPT_HOT void SegmentPool::seal(SegmentId id, VTime vtime) {
  Segment& seg = segments_[id];
  seg.sealed = true;
  seg.seal_vtime = vtime;
  victim_.on_seal(id, seg.valid_count, seg.seal_vtime);
  if (trace_ != nullptr) {
    emit(trace_, TraceEvent{TraceEventKind::kSegmentSeal, seg.group, vtime,
                            trace_wall_us_ != nullptr ? *trace_wall_us_ : 0,
                            id, seg.valid_count, 0});
  }
}

ADAPT_HOT void SegmentPool::release(SegmentId id) {
  Segment& seg = segments_[id];
  if (seg.sealed) victim_.on_free(id);
  --group_segments_[seg.group];
  seg.reset(config_.segment_blocks());
  // Scrub the segment's arena row so the next open sees kInvalidLba
  // everywhere (the invariant Segment::reset used to provide).
  std::fill_n(slot_lba_.data() + slot_index(id, 0), segment_blocks_,
              ~kInvalidLba);
  // Capacity is reserved to the pool size at construction and ids are
  // unique, so this push can never grow the vector.
  free_list_.push_back(id);  // ADAPT_LINT_ALLOW(hot-alloc)
  ++free_count_;
}

ADAPT_HOT void SegmentPool::invalidate_slot(BlockLocation loc) {
  Segment& seg = segments_[loc.segment];
  if (!seg.slot_valid.test(loc.slot)) {
    throw std::logic_error("double invalidation of a slot");
  }
  seg.slot_valid.reset(loc.slot);
  --seg.valid_count;
  if (seg.sealed) {
    victim_.on_valid_delta(loc.segment, seg.valid_count + 1,
                           seg.valid_count);
  }
}

ADAPT_HOT void SegmentPool::invalidate_slot_draining(BlockLocation loc) {
  Segment& seg = segments_[loc.segment];
  if (!seg.slot_valid.test(loc.slot)) {
    throw std::logic_error("double invalidation of a slot");
  }
  seg.slot_valid.reset(loc.slot);
  --seg.valid_count;
}

void SegmentPool::set_slot_lba_for_test(SegmentId seg, std::uint32_t slot,
                                        Lba lba) {
  if (seg >= segments_.size() || slot >= segment_blocks_) {
    throw std::out_of_range("SegmentPool: slot out of range");
  }
  set_slot_lba(seg, slot, lba);
}

std::size_t SegmentPool::memory_usage_bytes() const noexcept {
  std::size_t total = segments_.capacity() * sizeof(Segment) +
                      slot_lba_.bytes() +
                      free_list_.capacity() * sizeof(SegmentId) +
                      group_segments_.capacity() * sizeof(std::uint32_t);
  for (const Segment& seg : segments_) {
    total += seg.slot_valid.word_count() * sizeof(std::uint64_t);
  }
  return total;
}

void SegmentPool::check_counters() const {
  if (free_list_.size() != free_count_) {
    throw std::logic_error("free list size != free counter");
  }
  std::uint64_t in_use = 0;
  for (const std::uint32_t n : group_segments_) in_use += n;
  if (in_use + free_count_ != segments_.size()) {
    throw std::logic_error("per-group + free segment counters != pool size");
  }
}

}  // namespace adapt::lss
