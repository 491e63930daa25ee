// Engine-side tracing hook: a tiny POD event record and an abstract sink.
//
// The engine components (SegmentPool, ChunkWriter, GcController, LssEngine,
// AdaptPolicy) emit TraceEvents through an optional TraceSink*; the concrete
// ring buffer lives in src/obs/trace_log.h so the hot path only depends on
// this header. Tracing is always compiled in and inert until a sink is
// attached: with no sink, every emit site costs one null check.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace adapt::lss {

enum class TraceEventKind : std::uint8_t {
  kUserWrite,       ///< a = lba
  kChunkFlush,      ///< a = fill_blocks, b = padded (0/1), c = chunk index
  kRmwFlush,        ///< a = pending blocks merged, c = chunk index
  kShadowAppend,    ///< group = host, a = donor group, b = blocks appended
  kShadowExpire,    ///< group = flushed group, a = shadows expired
  kSegmentAlloc,    ///< a = segment id
  kSegmentSeal,     ///< a = segment id, b = valid blocks at seal
  kGcRun,           ///< group = victim group, a = victim segment,
                    ///< b = migrated blocks, c = forced lazy flushes
  kThresholdAdapt,  ///< a = new threshold, b = total adoptions so far
  kGroupCommit,     ///< group = 0, a = ops committed (1), b = blocks,
                    ///< c = chunks flushed by the commit
  kLaneSubmit,      ///< group = lane, a = seq, b = inflight after admission,
                    ///< c = admit_us (>= wall_us when the queue was full)
  kLaneComplete,    ///< group = lane, a = seq, b = service_us,
                    ///< c = complete_us (virtual durable time)
  kOpSubmit,        ///< group = 0, a = lba, b = blocks (op applied; id
                    ///< carries the write's flow id)
  kOpDurable,       ///< group = 0, a = lba, b = blocks, c = durable_us
};

/// POD event record. `ts` is the engine's deterministic virtual clock
/// (vtime = user blocks written so far) and `wall_us` the simulated
/// microsecond clock — never the host clock, so traces replay bit-identical.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kUserWrite;
  GroupId group = kInvalidGroup;
  std::uint64_t ts = 0;       ///< vtime at emission
  TimeUs wall_us = 0;         ///< simulated wall clock at emission
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  /// Causal-flow correlation id: events of one op's lifecycle (op submit ->
  /// group commit -> chunk flush -> lane submit/complete -> op durable)
  /// share the write's nonzero id; 0 means "not part of a flow". The
  /// chrome-trace exporter renders matching ids as Perfetto flow arrows.
  std::uint64_t id = 0;
};

/// Abstract sink; the obs layer provides the ring-buffer implementation.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// Single emission point: a null check, plus a virtual call when a sink
/// is attached. Callers pass a possibly-null sink.
inline void emit(TraceSink* sink, const TraceEvent& event) {
  if (sink != nullptr) {
    sink->record(event);
  }
}

}  // namespace adapt::lss
