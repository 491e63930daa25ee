// LssEngine: the log-structured store running on top of the SSD array.
//
// The engine is an orchestrator over four cohesive components, so the
// write path reads as a pipeline instead of a tangle of private methods:
//   * SegmentPool — segment lifecycle (open/seal/free, free list,
//     per-group in-use counts) and victim-index notifications;
//   * BlockMap — logical-to-physical mapping (packed primary map + shadow
//     map, locate/invalidate);
//   * ChunkWriter — chunk-granularity persistence with the SLA coalescing
//     window: a group's partial chunk is zero-padded and flushed when the
//     window since its first pending *user* block expires (GC appends are
//     bulk and carry no deadline, matching the paper's Observation 2);
//     RMW sub-chunk flushes; array writes and TRIMs; shadow appends;
//   * GcController — watermark logic, victim selection through the
//     incremental index, live-block migration.
// The engine itself keeps the clocks (virtual time = user blocks written,
// wall time), the metrics, and the decision points that need the whole
// picture: deadline firing with ADAPT's cross-group aggregation hook
// (an optional hook may redirect a deadline-expired partial chunk into
// *shadow appends* hosted by a colder group instead of padding, §3.3 —
// originals stay pending ("lazy append") and their shadow copies expire
// when the original chunk persists), and the tiered self-audit.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "array/ssd_array.h"
#include "audit/audit.h"
#include "common/annotations.h"
#include "common/rng.h"
#include "common/types.h"
#include "lss/block_map.h"
#include "lss/chunk_writer.h"
#include "lss/config.h"
#include "lss/gc_controller.h"
#include "lss/metrics.h"
#include "lss/placement_policy.h"
#include "lss/segment.h"
#include "lss/segment_pool.h"
#include "lss/trace_sink.h"
#include "lss/victim_policy.h"

namespace adapt::lss {

class LssEngine;

/// Outcome of a cross-group aggregation decision: shadow copies of
/// `donor`'s pending blocks are appended into `host`'s open chunk, and the
/// host chunk is then flushed (padded if still partial). The group whose
/// deadline fired must be either donor or host; donor == kInvalidGroup
/// means "no aggregation, zero-pad in place".
struct AggregationDecision {
  GroupId donor = kInvalidGroup;
  GroupId host = kInvalidGroup;

  bool aggregate() const noexcept { return donor != kInvalidGroup; }
};

/// Cross-group aggregation decision point. ADAPT's policy and the "+agg"
/// wrapper implement it with one rule (core::AggregationRule).
class AggregationHook {
 public:
  virtual ~AggregationHook() = default;

  /// Called when group `group`'s coalescing deadline fires on a partial
  /// chunk holding at least one block that still needs durability.
  virtual AggregationDecision on_chunk_deadline(GroupId group,
                                                const LssEngine& engine) = 0;
};

/// Passive per-user-block observation hook (implemented by
/// obs::EngineSampler). Called after a user block has been fully applied —
/// vtime advanced, deadlines fired, GC settled — so implementations see a
/// consistent engine. Observers must treat the engine as read-only; the
/// write path costs one null check when no observer is attached.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void on_user_block(const LssEngine& engine, TimeUs now_us) = 0;
};

class LssEngine {
 public:
  /// `policy` and `victim` must outlive the engine. `array` is optional;
  /// when given, every flushed chunk is written to it at its array address
  /// (stream = group) and reclaimed segments are TRIMmed. It needs a
  /// stream per group and the LSS chunk size; a flash-backed array also
  /// needs the LSS block size as its page size and room for
  /// total_segments · segment_chunks chunks.
  /// The constructor re-binds `victim`'s index to this engine's pool and
  /// then drives its on_seal / on_valid_delta / on_free notifications, so
  /// a victim policy cannot be shared by two live engines.
  LssEngine(const LssConfig& config, PlacementPolicy& policy,
            VictimPolicy& victim, array::SsdArray* array = nullptr,
            std::uint64_t seed = 1);

  LssEngine(const LssEngine&) = delete;
  LssEngine& operator=(const LssEngine&) = delete;

  void set_aggregation_hook(AggregationHook* hook) noexcept { hook_ = hook; }

  /// Attaches a passive metrics observer (nullptr detaches). Observation
  /// never changes engine behaviour: the pinned fixed-seed regression
  /// metrics are bit-identical with and without an observer.
  void set_observer(EngineObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Attaches a trace sink (nullptr detaches) and forwards it to every
  /// component hook point. Like observers, tracing is passive: engine
  /// behaviour and metrics are bit-identical with and without a sink.
  void set_trace_sink(TraceSink* sink) noexcept {
    trace_ = sink;
    pool_.set_trace_sink(sink, &wall_us_);
    writer_.set_trace_sink(sink);
    gc_.set_trace_sink(sink);
  }

  /// Attaches a flush-record collector to the chunk writer (nullptr
  /// detaches): every flush appends a PendingFlush that the caller drains
  /// and submits to a device model (see ChunkWriter::set_flush_collector).
  void set_flush_collector(std::vector<PendingFlush>* out) noexcept {
    writer_.set_flush_collector(out);
  }

  /// Sets the causal-flow id the chunk writer stamps into flush events and
  /// collected PendingFlush records (see ChunkWriter::set_flow_id).
  void set_flow_id(std::uint64_t id) noexcept { writer_.set_flow_id(id); }

  /// Applies a user write of `blocks` consecutive blocks at `lba`,
  /// arriving at wall time `now_us`.
  void write(Lba lba, std::uint32_t blocks, TimeUs now_us);

  /// Single-block user write.
  void write_block(Lba lba, TimeUs now_us);

  /// Applies a user read of `blocks` consecutive blocks at `lba`. The
  /// array serves reads at chunk granularity (paper §2.2), so one fetch
  /// covers every requested block residing in the same chunk; blocks still
  /// pending in an open chunk are served from the buffer.
  void read(Lba lba, std::uint32_t blocks, TimeUs now_us);

  /// Starts the cache misses a user op at `lba` will take: its block-map
  /// entry and, for a write, the placement policy's per-LBA entry
  /// (PlacementPolicy::prefetch_user_write). Replay calls it a few ops
  /// ahead. No architectural effect; an out-of-range lba is ignored.
  ADAPT_HOT void prefetch_op(Lba lba, bool is_write) const noexcept {
    if (lba >= config_.logical_blocks) return;
    map_.prefetch_primary(lba);
    if (is_write) policy_.prefetch_user_write(lba);
  }

  /// Advances wall time, firing any expired coalescing deadlines.
  void advance_time(TimeUs now_us);

  /// Force-pads every partial chunk (end-of-trace drain).
  void flush_all();

  /// One proactive GC pass for background GC threads: reclaims a victim if
  /// the free pool has fallen below `watermark` segments. Returns true if
  /// work was done. Not thread-safe — callers serialize externally.
  bool gc_step(TimeUs now_us, std::uint32_t watermark);

  /// Total chunks flushed so far (full + padded), for bandwidth accounting.
  std::uint64_t chunks_flushed() const noexcept {
    return writer_.chunks_flushed();
  }

  // -- observers -----------------------------------------------------------

  const LssConfig& config() const noexcept { return config_; }
  VTime vtime() const noexcept { return vtime_; }
  GroupId group_count() const noexcept { return writer_.group_count(); }
  const LssMetrics& metrics() const noexcept { return metrics_; }
  const GroupTraffic& group_traffic(GroupId g) const {
    return metrics_.groups.at(g);
  }

  /// Blocks appended to `g`'s open segment but not yet flushed to a chunk.
  std::uint32_t pending_blocks(GroupId g) const {
    return writer_.pending_blocks(g);
  }

  /// Of the pending blocks, how many are still valid and not yet shadowed.
  std::uint32_t pending_unshadowed_valid(GroupId g) const {
    return writer_.pending_unshadowed_valid(g);
  }

  /// Number of in-use (non-free) segments currently owned by each group.
  /// O(groups): maintained incrementally at segment open/free.
  std::vector<std::uint32_t> segments_per_group() const {
    return pool_.group_segments();
  }

  /// Allocation-free variant for per-sample observer paths: assigns into
  /// `out`, reusing its capacity across calls.
  void segments_per_group(std::vector<std::uint32_t>& out) const {
    const std::vector<std::uint32_t>& src = pool_.group_segments();
    out.assign(src.begin(), src.end());
  }

  std::uint32_t free_segments() const noexcept { return pool_.free_count(); }

  /// Where lba currently lives (primary copy), or kNowhere.
  BlockLocation locate(Lba lba) const { return map_.locate(lba); }
  bool has_live_shadow(Lba lba) const { return map_.has_shadow(lba); }

  /// Where lba's live shadow copy sits, or kNowhere when it has none.
  BlockLocation shadow_location(Lba lba) const {
    return map_.shadow_location(lba);
  }
  std::size_t live_shadow_count() const noexcept {
    return map_.live_shadow_count();
  }

  /// True while lba's primary copy sits in its group's open chunk, appended
  /// but not yet persisted to the array.
  bool is_pending(Lba lba) const;

  std::span<const Segment> segments() const noexcept {
    return pool_.segments();
  }

  /// The logical block stored in a physical slot (kInvalidLba for padding
  /// or never-written slots). Slot LBAs live in the pool's SoA arena.
  Lba slot_lba(BlockLocation loc) const noexcept {
    return pool_.slot_lba(loc);
  }
  Lba slot_lba(SegmentId seg, std::uint32_t slot) const noexcept {
    return pool_.slot_lba(seg, slot);
  }

  /// Bytes the engine's own arrays hold: the block map (primary map and
  /// shadow table) and the segment pool (segment headers, validity bitmaps,
  /// slot-LBA arena, free list). The placement policy reports its own.
  std::size_t memory_usage_bytes() const noexcept {
    return map_.memory_usage_bytes() + pool_.memory_usage_bytes();
  }

  /// Effective self-audit tier (config value + ADAPT_AUDIT override).
  audit::Level audit_level() const noexcept { return audit_level_; }

  /// Consistency checks; throws std::logic_error on violation.
  /// kCounters runs each component's O(groups) counter cross-checks, then
  /// the placement policy's own audit at the same level; kFull additionally
  /// re-derives the counters with O(n) structural walks (bitmap popcounts,
  /// mapping walk, victim-index membership).
  void check_invariants(audit::Level level) const;
  void check_invariants() const { check_invariants(audit::Level::kFull); }

  /// Test-only mutable access for auditor failure-detection tests: lets a
  /// test corrupt a segment on purpose and assert the audit catches it.
  Segment& corrupt_segment_for_test(SegmentId id) { return pool_.at(id); }

  /// Test-only slot-LBA overwrite (same purpose, SoA arena).
  void corrupt_slot_lba_for_test(SegmentId seg, std::uint32_t slot, Lba lba) {
    pool_.set_slot_lba_for_test(seg, slot, lba);
  }

 private:
  void fire_deadline(GroupId g, TimeUs now_us);
  void check_counters() const;
  /// Per-op self-audit hook (no-op at Level::kOff).
  void audit_point() const {
    if (audit_level_ != audit::Level::kOff) check_invariants(audit_level_);
  }

  LssConfig config_;
  PlacementPolicy& policy_;
  VictimPolicy& victim_;
  AggregationHook* hook_ = nullptr;
  EngineObserver* observer_ = nullptr;
  TraceSink* trace_ = nullptr;
  Rng rng_;
  audit::Level audit_level_ = audit::Level::kOff;

  VTime vtime_ = 0;
  TimeUs wall_us_ = 0;
  LssMetrics metrics_;

  // Components (construction order matters: writer and gc hold references
  // to the pool/map and to vtime_/metrics_ above).
  SegmentPool pool_;
  BlockMap map_;
  ChunkWriter writer_;
  GcController gc_;
};

}  // namespace adapt::lss
