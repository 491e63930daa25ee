// GcController: garbage-collection driver for the LSS.
//
// Owns the watermark logic (reactive GC inside the write path plus the
// proactive gc_step entry point), victim selection through the incremental
// victim index, and live-block migration — including the forced lazy flush
// when a live shadow is found inside a sealed victim (its original must
// persist before the shadow can die).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "lss/block_map.h"
#include "lss/chunk_writer.h"
#include "lss/config.h"
#include "lss/metrics.h"
#include "lss/placement_policy.h"
#include "lss/segment_pool.h"
#include "lss/trace_sink.h"
#include "lss/victim_policy.h"

namespace adapt::lss {

class GcController {
 public:
  /// All references must outlive the controller. `vtime` is the engine's
  /// virtual clock; `rng` feeds randomized victim policies.
  GcController(const LssConfig& config, SegmentPool& pool, BlockMap& map,
               ChunkWriter& writer, PlacementPolicy& policy,
               VictimPolicy& victim, LssMetrics& metrics, Rng& rng,
               const VTime& vtime);

  GcController(const GcController&) = delete;
  GcController& operator=(const GcController&) = delete;

  /// Attaches a trace sink for per-run GC events (nullptr detaches).
  void set_trace_sink(TraceSink* sink) noexcept { trace_ = sink; }

  /// Reactive GC after a user write: reclaims until the free pool is back
  /// above the watermark (free_segment_reserve + group count). Throws when
  /// GC cannot make progress.
  void maybe_gc(TimeUs now_us);

  /// One proactive pass: reclaims a victim if the free pool has fallen
  /// below `watermark`. Returns true if work was done.
  bool step(TimeUs now_us, std::uint32_t watermark);

  /// Counters-tier self-audit; throws std::logic_error on violation.
  void check_counters() const;

 private:
  /// One live block queued for migration out of a victim.
  struct MigrateEntry {
    std::uint32_t slot;
    Lba lba;
  };

  void run_once(TimeUs now_us);

  const LssConfig& config_;
  SegmentPool& pool_;
  BlockMap& map_;
  ChunkWriter& writer_;
  PlacementPolicy& policy_;
  VictimPolicy& victim_;
  LssMetrics& metrics_;
  Rng& rng_;
  const VTime& vtime_;
  TraceSink* trace_ = nullptr;
  /// Recycled collect-then-migrate buffer (reserved once to
  /// segment_blocks — GC allocates nothing per run).
  std::vector<MigrateEntry> migrate_scratch_;
};

}  // namespace adapt::lss
