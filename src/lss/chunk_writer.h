// ChunkWriter: the append→flush pipeline of the LSS.
//
// Owns per-group open-chunk state (open segment, flushed slots, coalescing
// deadline) and turns appends into chunk-granularity media writes: full
// flushes at chunk boundaries, zero-padded flushes when a deadline forces a
// partial chunk out, RMW sub-chunk flushes in read-modify-write mode, and
// shadow appends for cross-group aggregation. Every flush is written to
// the attached array at its chunk address and accounted in LssMetrics.
#pragma once

#include <cstdint>
#include <vector>

#include "array/ssd_array.h"
#include "common/types.h"
#include "lss/block_map.h"
#include "lss/config.h"
#include "lss/metrics.h"
#include "lss/placement_policy.h"
#include "lss/segment.h"
#include "lss/segment_pool.h"
#include "lss/trace_sink.h"

namespace adapt::lss {

/// Provenance of an appended block: user write, GC migration, or a shadow
/// copy placed by cross-group aggregation.
enum class AppendSource { kUser, kGc, kShadow };

/// Sentinel "no coalescing deadline armed anywhere".
inline constexpr TimeUs kNoDeadline = ~static_cast<TimeUs>(0);

/// One media write applied to engine state but not yet modeled durable on a
/// device. The writer's flush paths append these to an optionally attached
/// collector, splitting "apply" (engine state mutated, under whatever lock
/// the caller holds) from "durable" (the collector's owner submits the
/// records to a device model — lss::DeviceLanes — and waits OUTSIDE the
/// lock). `rmw` flushes carry sub-chunk payloads; full/padded flushes are
/// chunk-sized regardless of fill.
struct PendingFlush {
  GroupId group = kInvalidGroup;
  std::uint32_t blocks = 0;  ///< real payload blocks in the flush
  bool rmw = false;          ///< sub-chunk RMW write, not a full chunk
  /// Causal-flow id of the batch whose apply produced this flush (see
  /// TraceEvent::id); 0 outside a traced group-commit batch. Device models
  /// forward it to DeviceLanes::submit so lane events join the op's flow.
  std::uint64_t id = 0;
};

class ChunkWriter {
 public:
  /// All references must outlive the writer. `vtime` is the engine's
  /// virtual clock, read at segment open/seal; `wall_us` its simulated
  /// wall clock, read when stamping trace events. `array` is optional:
  /// every flush is written to it at its chunk address (stream = group).
  ChunkWriter(const LssConfig& config, GroupId group_count, SegmentPool& pool,
              BlockMap& map, PlacementPolicy& policy, LssMetrics& metrics,
              const VTime& vtime, const TimeUs& wall_us,
              array::SsdArray* array);

  ChunkWriter(const ChunkWriter&) = delete;
  ChunkWriter& operator=(const ChunkWriter&) = delete;

  /// Attaches a trace sink for flush/shadow events (nullptr detaches).
  void set_trace_sink(TraceSink* sink) noexcept { trace_ = sink; }

  /// Attaches a flush-record collector (nullptr detaches): every chunk and
  /// RMW flush appends a PendingFlush to `*out`. The owner drains the
  /// vector after each batch (ConcurrentEngine::lead does, under the engine
  /// lock) and models durability outside the critical section; leaving a
  /// collector attached without draining grows it unboundedly. Detached —
  /// the default, and the serial simulator's mode — the flush paths cost
  /// one null check.
  void set_flush_collector(std::vector<PendingFlush>* out) noexcept {
    flush_collector_ = out;
  }

  /// Sets the causal-flow id stamped into every flush event and collected
  /// PendingFlush until the next call (0 = no flow). ConcurrentEngine's
  /// batch leader sets the batch id before applying and the GC/drain paths
  /// reset it, so a flush is attributed to the batch that tipped it.
  void set_flow_id(std::uint64_t id) noexcept { flow_id_ = id; }

  /// Appends one block to `g`'s open chunk, flushing at chunk boundaries
  /// and arming the coalescing deadline on the first pending user block.
  /// GC migrations pass the victim's group as `from_group` so the block is
  /// attributed in the destination group's gc_from provenance row.
  void append(GroupId g, Lba lba, AppendSource source, TimeUs now_us,
              GroupId from_group = kInvalidGroup);

  /// Zero-pads and persists `g`'s partial chunk.
  void pad_flush(GroupId g);

  /// RMW mode: persists the pending sub-chunk without padding; the chunk
  /// stays open for further appends.
  void rmw_flush(GroupId g);

  /// Appends shadow copies of `g`'s pending unshadowed primaries into
  /// `host`'s open chunk (cross-group aggregation, §3.3).
  void shadow_append(GroupId g, GroupId host, TimeUs now_us);

  /// TRIMs a reclaimed segment's range on the array, if attached.
  void trim_segment(SegmentId id);

  GroupId group_count() const noexcept {
    return static_cast<GroupId>(groups_.size());
  }

  /// Total chunks flushed so far (full + padded).
  std::uint64_t chunks_flushed() const noexcept { return chunks_flushed_; }

  bool deadline_armed(GroupId g) const { return groups_[g].deadline_armed; }
  TimeUs chunk_deadline(GroupId g) const { return groups_[g].chunk_deadline; }
  void disarm_deadline(GroupId g) { groups_[g].deadline_armed = false; }

  /// Lower bound on the earliest armed coalescing deadline (may be stale
  /// low after disarms — never high), so the per-write time advance is one
  /// compare when nothing is due.
  TimeUs earliest_deadline() const noexcept { return earliest_deadline_; }

  /// Recomputes the exact earliest armed deadline (slow-path exit).
  void recompute_earliest_deadline() noexcept {
    TimeUs earliest = kNoDeadline;
    for (const GroupState& gs : groups_) {
      if (gs.deadline_armed && gs.chunk_deadline < earliest) {
        earliest = gs.chunk_deadline;
      }
    }
    earliest_deadline_ = earliest;
  }

  /// Blocks appended to `g`'s open segment but not yet flushed to a chunk.
  std::uint32_t pending_blocks(GroupId g) const;

  /// Of the pending blocks, how many are still valid and not yet shadowed.
  std::uint32_t pending_unshadowed_valid(GroupId g) const;

  /// True while `loc` (owned by group `g`) sits in the open chunk, appended
  /// but not yet persisted.
  bool slot_pending(GroupId g, BlockLocation loc) const {
    const GroupState& gs = groups_[g];
    return gs.open_seg == loc.segment && loc.slot >= gs.flushed_slots;
  }

  std::uint64_t global_chunk_index(SegmentId seg,
                                   std::uint32_t slot) const noexcept {
    return static_cast<std::uint64_t>(seg) * config_.segment_chunks +
           slot / config_.chunk_blocks;
  }

  /// Counters-tier self-audit (per-group vs global traffic, flush totals,
  /// open-chunk pointer sanity, and the write-accounting identity:
  /// user+gc+shadow+padding == chunk_blocks·chunks_flushed + rmw_blocks +
  /// pending). Throws std::logic_error on violation.
  void check_counters() const;

 private:
  struct GroupState {
    SegmentId open_seg = kInvalidSegment;
    std::uint32_t flushed_slots = 0;  ///< slots of open seg already on disk
    /// write_ptr value at the next chunk boundary. Tracked incrementally so
    /// the per-append boundary test is a compare, not a modulo (integer
    /// division by the runtime chunk size costs more than the rest of the
    /// append bookkeeping combined).
    std::uint32_t next_boundary = 0;
    bool deadline_armed = false;
    TimeUs chunk_deadline = 0;
  };

  void open_group_segment(GroupId g);
  void seal_group_segment(GroupId g);
  /// Flushes the open chunk of `g`; `fill_blocks` real payload, rest pad.
  void flush_chunk(GroupId g, std::uint32_t fill_blocks, bool padded);
  /// Called when write_ptr reaches a chunk boundary: full flush, or the
  /// completing RMW partial if earlier sub-chunk flushes happened.
  void flush_boundary(GroupId g);
  /// Calls `fn(lba)` for each block in the open chunk of `gs` that still
  /// needs durability: valid, the primary copy, and not yet shadowed.
  template <typename Fn>
  void for_each_pending_unshadowed(const GroupState& gs, Fn&& fn) const;
  /// Expires shadows of primaries in slots [begin, end) of g's open seg.
  void expire_shadows_in_range(GroupId g, std::uint32_t begin,
                               std::uint32_t end);

  const LssConfig& config_;
  SegmentPool& pool_;
  BlockMap& map_;
  PlacementPolicy& policy_;
  LssMetrics& metrics_;
  const VTime& vtime_;
  const TimeUs& wall_us_;
  TraceSink* trace_ = nullptr;
  std::vector<PendingFlush>* flush_collector_ = nullptr;
  std::uint64_t flow_id_ = 0;
  array::SsdArray* array_;

  std::vector<GroupState> groups_;
  /// Recycled shadow_append scratch (reserved once to segment_blocks), so
  /// aggregation bursts allocate nothing in steady state.
  std::vector<Lba> shadow_scratch_;
  /// Full + padded chunk flushes, kept as a running counter so the
  /// per-write bandwidth accounting does not walk metrics_.groups.
  std::uint64_t chunks_flushed_ = 0;
  /// Lower bound on the earliest armed deadline (see earliest_deadline()).
  TimeUs earliest_deadline_ = kNoDeadline;
};

}  // namespace adapt::lss
