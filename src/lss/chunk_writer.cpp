#include "lss/chunk_writer.h"

#include <stdexcept>

#include "common/annotations.h"

namespace adapt::lss {

ChunkWriter::ChunkWriter(const LssConfig& config, GroupId group_count,
                         SegmentPool& pool, BlockMap& map,
                         PlacementPolicy& policy, LssMetrics& metrics,
                         const VTime& vtime, const TimeUs& wall_us,
                         array::SsdArray* array)
    : config_(config),
      pool_(pool),
      map_(map),
      policy_(policy),
      metrics_(metrics),
      vtime_(vtime),
      wall_us_(wall_us),
      array_(array) {
  groups_.resize(group_count);
  // Pending appends fit in one segment; reserving once keeps
  // shadow_append allocation-free in steady state.
  shadow_scratch_.reserve(config_.segment_blocks());
}

std::uint32_t ChunkWriter::pending_blocks(GroupId g) const {
  const GroupState& gs = groups_.at(g);
  if (gs.open_seg == kInvalidSegment) return 0;
  return pool_.segment(gs.open_seg).write_ptr - gs.flushed_slots;
}

template <typename Fn>
void ChunkWriter::for_each_pending_unshadowed(const GroupState& gs,
                                              Fn&& fn) const {
  if (gs.open_seg == kInvalidSegment) return;
  const Segment& seg = pool_.segment(gs.open_seg);
  for (std::uint32_t slot = gs.flushed_slots; slot < seg.write_ptr; ++slot) {
    if (!seg.slot_valid.test(slot)) continue;
    const Lba lba = pool_.slot_lba(gs.open_seg, slot);
    // Skip shadow copies hosted here and already-shadowed primaries.
    if (!map_.primary_is(lba, BlockLocation{gs.open_seg, slot})) continue;
    if (map_.has_shadow(lba)) continue;
    fn(lba);
  }
}

std::uint32_t ChunkWriter::pending_unshadowed_valid(GroupId g) const {
  std::uint32_t n = 0;
  for_each_pending_unshadowed(groups_.at(g), [&n](Lba) { ++n; });
  return n;
}

ADAPT_HOT void ChunkWriter::append(GroupId g, Lba lba, AppendSource source,
                                   TimeUs now_us, GroupId from_group) {
  GroupState& gs = groups_[g];
  if (gs.open_seg == kInvalidSegment) open_group_segment(g);
  const SegmentId seg_id = gs.open_seg;
  Segment& seg = pool_.segment_mut(seg_id);

  const std::uint32_t slot = seg.write_ptr++;
  pool_.set_slot_lba(seg_id, slot, lba);
  seg.slot_valid.set(slot);
  ++seg.valid_count;

  const BlockLocation loc{seg_id, slot};
  GroupTraffic& gt = metrics_.groups[g];
  switch (source) {
    case AppendSource::kUser:
      map_.set_primary(lba, loc);
      ++gt.user_blocks;
      ++metrics_.user_blocks;
      break;
    case AppendSource::kGc:
      map_.set_primary(lba, loc);
      ++gt.gc_blocks;
      ++metrics_.gc_blocks;
      if (from_group >= group_count()) {
        throw std::logic_error("GC append without a valid source group");
      }
      gt.count_gc_from(from_group, group_count());
      break;
    case AppendSource::kShadow:
      map_.set_shadow(lba, loc);
      ++gt.shadow_blocks;
      ++metrics_.shadow_blocks;
      break;
  }

  if (seg.write_ptr == gs.next_boundary) {
    gs.next_boundary += config_.chunk_blocks;
    flush_boundary(g);
  } else if (source == AppendSource::kUser && !gs.deadline_armed) {
    gs.deadline_armed = true;
    gs.chunk_deadline = now_us + config_.coalesce_window_us;
    if (gs.chunk_deadline < earliest_deadline_) {
      earliest_deadline_ = gs.chunk_deadline;
    }
  }
}

void ChunkWriter::flush_boundary(GroupId g) {
  GroupState& gs = groups_[g];
  const Segment& seg = pool_.segment(gs.open_seg);
  const std::uint32_t pending = seg.write_ptr - gs.flushed_slots;
  if (pending == config_.chunk_blocks) {
    flush_chunk(g, /*fill_blocks=*/config_.chunk_blocks, /*padded=*/false);
  } else {
    // Earlier sub-chunk RMW flushes persisted part of this chunk; the
    // completing tail is another RMW write.
    rmw_flush(g);
  }
}

void ChunkWriter::open_group_segment(GroupId g) {
  GroupState& gs = groups_[g];
  gs.open_seg = pool_.allocate(g, vtime_);
  gs.flushed_slots = 0;
  gs.next_boundary = config_.chunk_blocks;
}

void ChunkWriter::seal_group_segment(GroupId g) {
  GroupState& gs = groups_[g];
  ++metrics_.groups[g].segments_sealed;
  policy_.note_segment_sealed(g, vtime_);
  pool_.seal(gs.open_seg, vtime_);
  gs.open_seg = kInvalidSegment;
  gs.flushed_slots = 0;
  gs.deadline_armed = false;
}

void ChunkWriter::trim_segment(SegmentId id) {
  if (array_ != nullptr) {
    array_->trim_chunks(global_chunk_index(id, 0), config_.segment_chunks);
  }
}

ADAPT_HOT void ChunkWriter::expire_shadows_in_range(GroupId g,
                                                    std::uint32_t begin,
                                                    std::uint32_t end) {
  // With no live shadows, the scan can expire nothing: skip the per-slot
  // primary_ probing entirely. Policies that never aggregate (and ADAPT
  // between aggregation bursts) hit this on every flush.
  if (map_.live_shadow_count() == 0) return;
  const GroupState& gs = groups_[g];
  const Segment& seg = pool_.segment(gs.open_seg);
  std::uint64_t expired = 0;
  for (std::uint32_t slot = begin; slot < end; ++slot) {
    if (!seg.slot_valid.test(slot)) continue;
    const Lba lba = pool_.slot_lba(gs.open_seg, slot);
    if (lba == kInvalidLba) continue;
    if (map_.primary_is(lba, BlockLocation{gs.open_seg, slot}) &&
        map_.has_shadow(lba)) {
      map_.expire_shadow(lba, pool_);
      ++expired;
    }
  }
  if (trace_ != nullptr && expired > 0) {
    emit(trace_, TraceEvent{TraceEventKind::kShadowExpire, g, vtime_,
                            wall_us_, expired, 0, 0});
  }
}

ADAPT_HOT void ChunkWriter::flush_chunk(GroupId g, std::uint32_t fill_blocks,
                                        bool padded) {
  GroupState& gs = groups_[g];
  const SegmentId seg_id = gs.open_seg;
  const Segment& seg = pool_.segment(seg_id);
  const std::uint32_t chunk_begin = gs.flushed_slots;
  const std::uint32_t chunk_end = chunk_begin + config_.chunk_blocks;

  // Lazy-append originals in this chunk are now durable: expire shadows.
  expire_shadows_in_range(g, chunk_begin, chunk_end);

  gs.flushed_slots = chunk_end;
  GroupTraffic& gt = metrics_.groups[g];
  if (padded) {
    ++gt.padded_flushes;
    gt.padded_fill_blocks += fill_blocks;
    const std::uint32_t pad = config_.chunk_blocks - fill_blocks;
    gt.padding_blocks += pad;
    metrics_.padding_blocks += pad;
  } else {
    ++gt.full_flushes;
  }
  ++chunks_flushed_;
  if (flush_collector_ != nullptr) {
    // Drained every batch by the owner, so steady state reuses capacity.
    flush_collector_->push_back(  // ADAPT_LINT_ALLOW(hot-alloc)
        PendingFlush{g, fill_blocks, false, flow_id_});
  }
  if (trace_ != nullptr) {
    emit(trace_, TraceEvent{TraceEventKind::kChunkFlush, g, vtime_, wall_us_,
                            fill_blocks, padded ? 1u : 0u,
                            global_chunk_index(seg_id, chunk_begin),
                            flow_id_});
  }
  if (array_ != nullptr) {
    array_->write_chunk(global_chunk_index(seg_id, chunk_begin), g,
                        static_cast<std::uint64_t>(fill_blocks) *
                            config_.block_bytes);
  }
  if (seg.write_ptr == config_.segment_blocks()) {
    seal_group_segment(g);
  } else {
    gs.deadline_armed = false;
  }
}

void ChunkWriter::rmw_flush(GroupId g) {
  GroupState& gs = groups_[g];
  const Segment& seg = pool_.segment(gs.open_seg);
  const std::uint32_t pending = seg.write_ptr - gs.flushed_slots;
  if (pending == 0) return;
  if (pending >= config_.chunk_blocks) {
    throw std::logic_error("rmw_flush with a full chunk pending");
  }
  expire_shadows_in_range(g, gs.flushed_slots, seg.write_ptr);

  const std::uint32_t chunk_begin_slot = gs.flushed_slots;
  const std::uint32_t offset_in_chunk =
      chunk_begin_slot % config_.chunk_blocks;
  GroupTraffic& gt = metrics_.groups[g];
  ++gt.rmw_flushes;
  ++metrics_.rmw_flushes;
  gt.rmw_blocks += pending;
  metrics_.rmw_blocks += pending;
  // Small-write parity update reads the old data chunk and old parity.
  metrics_.rmw_read_blocks += 2ull * config_.chunk_blocks;
  if (flush_collector_ != nullptr) {
    flush_collector_->push_back(PendingFlush{g, pending, true, flow_id_});
  }
  if (trace_ != nullptr) {
    emit(trace_,
         TraceEvent{TraceEventKind::kRmwFlush, g, vtime_, wall_us_, pending,
                    0, global_chunk_index(gs.open_seg, chunk_begin_slot),
                    flow_id_});
  }
  if (array_ != nullptr) {
    array_->write_partial(
        global_chunk_index(gs.open_seg, chunk_begin_slot), g,
        static_cast<std::uint64_t>(offset_in_chunk) * config_.block_bytes,
        static_cast<std::uint64_t>(pending) * config_.block_bytes);
  }
  gs.flushed_slots = seg.write_ptr;
  if (seg.write_ptr == config_.segment_blocks()) {
    seal_group_segment(g);
  } else {
    gs.deadline_armed = false;
  }
}

void ChunkWriter::pad_flush(GroupId g) {
  GroupState& gs = groups_[g];
  Segment& seg = pool_.segment_mut(gs.open_seg);
  const std::uint32_t pending = seg.write_ptr - gs.flushed_slots;
  if (pending == 0 || pending >= config_.chunk_blocks) {
    throw std::logic_error("pad_flush with no partial chunk");
  }
  const std::uint32_t chunk_end = gs.flushed_slots + config_.chunk_blocks;
  // Dead padding slots: allocated, never valid.
  for (std::uint32_t slot = seg.write_ptr; slot < chunk_end; ++slot) {
    pool_.set_slot_lba(gs.open_seg, slot, kInvalidLba);
    seg.slot_valid.reset(slot);
  }
  seg.write_ptr = chunk_end;
  gs.next_boundary = chunk_end + config_.chunk_blocks;
  flush_chunk(g, /*fill_blocks=*/pending, /*padded=*/true);
}

ADAPT_HOT void ChunkWriter::shadow_append(GroupId g, GroupId host,
                                          TimeUs now_us) {
  GroupState& gs = groups_[g];
  if (gs.open_seg == kInvalidSegment) return;  // donor has nothing pending

  // Collect pending primaries of g that are valid and not yet shadowed
  // (recycled scratch — appends below may open segments, so the snapshot
  // keeps the scan stable while the table mutates).
  shadow_scratch_.clear();
  for_each_pending_unshadowed(gs, [this](Lba lba) {
    // Reserved to segment_blocks() in the constructor; pending appends of
    // one open segment can never exceed that, so no growth here.
    shadow_scratch_.push_back(lba);  // ADAPT_LINT_ALLOW(hot-alloc)
  });

  if (trace_ != nullptr && !shadow_scratch_.empty()) {
    emit(trace_, TraceEvent{TraceEventKind::kShadowAppend, host, vtime_,
                            wall_us_, g, shadow_scratch_.size(), 0});
  }
  for (const Lba lba : shadow_scratch_) {
    append(host, lba, AppendSource::kShadow, now_us);
  }
  // Originals stay pending without a deadline (they are durable via their
  // shadows); a future user append re-arms the timer.
  gs.deadline_armed = false;
}

void ChunkWriter::check_counters() const {
  GroupTraffic totals;
  std::uint64_t flushes = 0;
  std::uint64_t pending = 0;
  for (GroupId g = 0; g < group_count(); ++g) {
    const GroupTraffic& gt = metrics_.groups[g];
    // Provenance rows must tile the group's GC traffic exactly: every
    // migrated block is attributed to exactly one source group.
    std::uint64_t gc_from_total = 0;
    for (const std::uint64_t n : gt.gc_from) gc_from_total += n;
    if (gc_from_total != gt.gc_blocks) {
      throw std::logic_error("gc_from provenance != group gc traffic");
    }
    totals.user_blocks += gt.user_blocks;
    totals.gc_blocks += gt.gc_blocks;
    totals.shadow_blocks += gt.shadow_blocks;
    totals.padding_blocks += gt.padding_blocks;
    totals.rmw_blocks += gt.rmw_blocks;
    totals.rmw_flushes += gt.rmw_flushes;
    flushes += gt.full_flushes + gt.padded_flushes;

    const GroupState& gs = groups_[g];
    if (gs.deadline_armed && gs.open_seg == kInvalidSegment) {
      throw std::logic_error("deadline armed without an open segment");
    }
    if (gs.open_seg == kInvalidSegment) continue;
    const Segment& seg = pool_.segment(gs.open_seg);
    if (seg.free || seg.sealed || seg.group != g) {
      throw std::logic_error("open segment in an inconsistent state");
    }
    if (gs.flushed_slots > seg.write_ptr ||
        seg.write_ptr > config_.segment_blocks()) {
      throw std::logic_error("open segment pointers out of order");
    }
    if (config_.partial_write_mode == PartialWriteMode::kZeroPad &&
        gs.flushed_slots % config_.chunk_blocks != 0) {
      throw std::logic_error("zero-pad flush boundary not chunk-aligned");
    }
    pending += seg.write_ptr - gs.flushed_slots;
  }
  if (totals.user_blocks != metrics_.user_blocks ||
      totals.gc_blocks != metrics_.gc_blocks ||
      totals.shadow_blocks != metrics_.shadow_blocks ||
      totals.padding_blocks != metrics_.padding_blocks ||
      totals.rmw_blocks != metrics_.rmw_blocks ||
      totals.rmw_flushes != metrics_.rmw_flushes) {
    throw std::logic_error("per-group traffic != global traffic counters");
  }
  if (flushes != chunks_flushed_) {
    throw std::logic_error("chunks_flushed counter out of sync");
  }
  // The write-accounting identity: every block the metrics claim was
  // appended either reached the media (full/padded chunks + RMW partials)
  // or is still pending in an open chunk.
  const std::uint64_t appended = metrics_.total_blocks();
  const std::uint64_t media =
      chunks_flushed_ * config_.chunk_blocks + metrics_.rmw_blocks;
  if (appended != media + pending) {
    throw std::logic_error("write-accounting identity broken");
  }
}

}  // namespace adapt::lss
