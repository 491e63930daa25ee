// ShardedEngine: one LssEngine plus the placement/victim/array stack it
// owns.
//
// The simulator and the prototype each run one log-structured store over
// the whole logical space, as the paper's do: sim::run_volume replays a
// volume through replay(), which walks the caller's op stream in place on
// the calling thread, and lss::ConcurrentEngine fronts the engine with its
// one-lock concurrent intake. enqueue_*/run_queued keep an op list for callers
// that build the stream op by op, and hand it to the same replay().
//
// The name, the shard-count argument (which must be 1), shard(i), the
// factory's index argument and the merged_* observer names stay because
// the benchmark harness compiles against them (ROADMAP item 5).
//
// Replay is memory-bound: a user op's first touches are its block-map
// entry and, for a write, the placement policy's per-LBA state, each one
// entry of an array as large as the logical space. So replay starts those
// misses kReplayLookahead ops ahead of the op it applies
// (LssEngine::prefetch_op, PlacementPolicy::prefetch_user_write). A
// prefetch has no architectural effect; outputs are bit-identical.
//
// Concurrency contract: thread-compatible, never thread-safe. Every member
// runs on the calling thread, and ConcurrentEngine supplies its own lock
// around this class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/annotations.h"
#include "lss/engine.h"

namespace adapt::lss {

/// Everything the engine needs besides itself. Built by the caller's
/// ShardFactory; owned by the ShardedEngine for the engine's lifetime.
/// `hook` is non-owning and normally points into `policy`.
struct ShardParts {
  std::unique_ptr<PlacementPolicy> policy;
  std::unique_ptr<VictimPolicy> victim;
  std::unique_ptr<array::SsdArray> array;  ///< optional
  AggregationHook* hook = nullptr;         ///< optional, non-owning
};

/// Builds the placement/victim/array stack sized for `config`. The index
/// is always 0.
using ShardFactory =
    std::function<ShardParts(std::uint32_t shard_index,
                             const LssConfig& config)>;

/// The simulator's logical-space floor (sim::run_volume): enough
/// over-provisioned segments for even an 8-group policy's GC watermark at
/// the default geometry (see LssConfig::validate).
inline constexpr std::uint64_t kMinShardBlocks = std::uint64_t{1} << 15;

/// One request of the op stream ShardedEngine::replay walks. An op with
/// blocks == 0 is skipped, so a caller can drop a record (e.g. one clamped
/// to nothing) without re-indexing its stream.
struct ReplayOp {
  Lba lba = 0;
  std::uint32_t blocks = 0;
  TimeUs ts_us = 0;
  bool is_write = false;
};

/// How many ops ahead of the one it applies replay prefetches. Far enough
/// to cover a DRAM miss behind one op's engine work, near enough that the
/// prefetched lines are still cached when the op arrives.
inline constexpr std::size_t kReplayLookahead = 8;

class ShardedEngine {
 public:
  /// Builds one engine over `config`, seeded with `seed`; the factory is
  /// called once, with index 0, on the constructing thread. Throws
  /// std::invalid_argument unless shard_count == 1, or when the factory is
  /// null or returns a null policy or victim.
  ShardedEngine(const LssConfig& config, std::uint32_t shard_count,
                std::uint64_t seed, const ShardFactory& factory);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  const LssConfig& config() const noexcept { return engine_.config(); }

  /// The engine; throws std::out_of_range unless i == 0.
  LssEngine& shard(std::uint32_t i) {
    check_index(i);
    return engine_;
  }
  const LssEngine& shard(std::uint32_t i) const {
    check_index(i);
    return engine_;
  }

  /// Attaches a trace sink to the engine (nullptr detaches).
  void set_trace_sink(TraceSink* sink) { engine_.set_trace_sink(sink); }

  /// Throws std::out_of_range unless [lba, lba + blocks) lies inside the
  /// logical space (written so that lba + blocks cannot wrap).
  void check_span(Lba lba, std::uint32_t blocks) const {
    const std::uint64_t logical = config().logical_blocks;
    if (lba >= logical || blocks > logical - lba) {
      throw std::out_of_range("span beyond logical capacity");
    }
  }

  // -- synchronous ops -----------------------------------------------------

  /// Applies a user write of `blocks` consecutive blocks at `lba`.
  void write(Lba lba, std::uint32_t blocks, TimeUs now_us) {
    check_span(lba, blocks);
    engine_.write(lba, blocks, now_us);
  }

  /// Applies a user read of `blocks` consecutive blocks at `lba`.
  void read(Lba lba, std::uint32_t blocks, TimeUs now_us) {
    check_span(lba, blocks);
    engine_.read(lba, blocks, now_us);
  }

  /// Force-pads every partial chunk (end-of-trace drain).
  void flush_all() { engine_.flush_all(); }

  // -- deterministic replay ------------------------------------------------

  /// Replays ops [0, count) of the caller's op stream in place: `op_at(i)`
  /// returns op i as a ReplayOp, applied in order on the calling thread.
  /// For the op kReplayLookahead ahead it prefetches the block-map entry
  /// and, for a write, the policy's per-LBA entry (LssEngine::prefetch_op).
  /// Equal to the synchronous write/read sequence. An op whose span passes
  /// the logical capacity throws std::out_of_range once exactly the ops
  /// before it have been applied.
  template <typename OpAt>
  void replay(std::size_t count, const OpAt& op_at);

  /// Appends a write/read to the op list run_queued replays. Throws
  /// std::out_of_range, queueing nothing, when the span passes the logical
  /// capacity.
  void enqueue_write(Lba lba, std::uint32_t blocks, TimeUs now_us);
  void enqueue_read(Lba lba, std::uint32_t blocks, TimeUs now_us);

  /// Reserves room for `expected_ops` more enqueues.
  void reserve_queues(std::size_t expected_ops);

  std::size_t queued_ops() const noexcept { return queue_.size(); }

  /// Hands the op list to replay(), then empties it (also when replay
  /// throws).
  void run_queued();

  // -- observers -----------------------------------------------------------

  LssMetrics merged_metrics() const { return engine_.metrics(); }
  std::vector<std::uint32_t> merged_segments_per_group() const {
    return engine_.segments_per_group();
  }
  /// The array's totals (zero stats without an array).
  array::StreamStats merged_array_totals() const;
  /// Appended-but-unflushed blocks over every group (closes the
  /// write-accounting identity; 0 after flush_all).
  std::uint64_t merged_pending_blocks() const;

  std::uint64_t chunks_flushed() const noexcept {
    return engine_.chunks_flushed();
  }
  std::size_t policy_memory_bytes() const {
    return parts_.policy->memory_usage_bytes();
  }

  void check_invariants(audit::Level level) const {
    engine_.check_invariants(level);
  }

 private:
  static void check_index(std::uint32_t i) {
    if (i != 0) throw std::out_of_range("ShardedEngine: shard index past 0");
  }

  ShardParts parts_;
  LssEngine engine_;
  std::vector<ReplayOp> queue_;  ///< enqueue_* ops awaiting run_queued
};

template <typename OpAt>
ADAPT_HOT void ShardedEngine::replay(std::size_t count, const OpAt& op_at) {
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kReplayLookahead < count) {
      const ReplayOp ahead = op_at(i + kReplayLookahead);
      engine_.prefetch_op(ahead.lba, ahead.is_write);
    }
    const ReplayOp op = op_at(i);
    if (op.blocks == 0) continue;
    check_span(op.lba, op.blocks);
    if (op.is_write) {
      engine_.write(op.lba, op.blocks, op.ts_us);
    } else {
      engine_.read(op.lba, op.blocks, op.ts_us);
    }
  }
}

}  // namespace adapt::lss
