// ShardedEngine: the one shard set — N independent LssEngine shards over
// contiguous LBA ranges.
//
// The LBA space is range-partitioned: shard `s` covers
// [s * blocks_per_shard, (s + 1) * blocks_per_shard), so global lba `l`
// lives on shard `l / blocks_per_shard` at local address
// `l % blocks_per_shard`. A request is tiny next to a shard, so almost
// every span lands whole on one shard and a group's open chunk sees the
// same arrival density the unsharded engine would. Each shard is a
// complete, independent log-structured store — its own placement policy,
// victim index, segment pool, and (optionally) SSD array — so shards share
// no mutable state and a shard's behaviour depends only on its own
// (op, lba, timestamp) sequence.
//
// lss::ConcurrentEngine drives N shards through its group-commit intake.
// sim::run_volume builds one shard and replays a volume through replay(),
// which walks the caller's op stream in place on the calling thread;
// enqueue_*/run_queued keep one global op list for callers that build the
// stream op by op, and hand it to the same replay().
//
// Replay is memory-bound: a user op's first touches are its block-map
// entry and, for a write, the placement policy's per-LBA state, each one
// entry of an array as large as the logical space. So each shard starts
// those misses kReplayLookahead ops ahead of the op it applies
// (LssEngine::prefetch_op, PlacementPolicy::prefetch_user_write). A
// prefetch has no architectural effect; outputs are bit-identical.
//
// N == 1 is an exact pass-through: a 1-shard ShardedEngine reproduces the
// single-engine pinned fixed-seed regression metrics bit-identically.
//
// Cross-shard counters merge through LssMetrics::merge_from; see DESIGN.md
// "Engine decomposition & sharding".
//
// Concurrency contract: the shard set is thread-compatible, never
// thread-safe. Every member runs on the calling thread, and
// ConcurrentEngine supplies its own per-shard locks around this class.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/annotations.h"
#include "lss/engine.h"

namespace adapt::lss {

/// Everything one shard needs besides its engine. Built per shard by the
/// caller's ShardFactory; owned by the ShardedEngine for the engines'
/// lifetime. `hook` is non-owning and normally points into `policy`.
struct ShardParts {
  std::unique_ptr<PlacementPolicy> policy;
  std::unique_ptr<VictimPolicy> victim;
  std::unique_ptr<array::SsdArray> array;  ///< optional
  AggregationHook* hook = nullptr;         ///< optional, non-owning
};

/// Builds the placement/victim/array stack for shard `shard_index`, sized
/// for `shard_config` (the already-divided per-shard geometry).
using ShardFactory =
    std::function<ShardParts(std::uint32_t shard_index,
                             const LssConfig& shard_config)>;

/// Upper bound on shard counts accepted by shard_config — far above any
/// sensible core count, low enough that a typo cannot allocate absurd
/// per-shard state.
inline constexpr std::uint32_t kMaxShards = 4096;

/// Per-shard logical-space floor callers apply before sharding: enough
/// over-provisioned segments for even an 8-group policy's GC watermark at
/// the default geometry (see LssConfig::validate).
inline constexpr std::uint64_t kMinShardBlocks = std::uint64_t{1} << 15;

/// Derives the per-shard config: the logical space divides evenly-as-
/// possible (ceil(logical_blocks / shard_count), uniform across shards so
/// every shard validates the same way), and the coalesce window scales by
/// shard_count — each shard sees ~1/N of the arrivals, so its window must
/// span N× the time to wait for the same amount of user data before
/// padding out. Throws std::invalid_argument when shard_count is 0,
/// exceeds kMaxShards, or exceeds logical_blocks.
LssConfig shard_config(const LssConfig& global, std::uint32_t shard_count);

/// One request of the op stream ShardedEngine::replay walks, in global
/// LBAs. An op with blocks == 0 is skipped, so a caller can drop a record
/// (e.g. one clamped to nothing) without re-indexing its stream.
struct ReplayOp {
  Lba lba = 0;
  std::uint32_t blocks = 0;
  TimeUs ts_us = 0;
  bool is_write = false;
};

/// How many ops ahead of the one it applies a replaying shard prefetches.
/// Far enough to cover a DRAM miss behind one op's engine work, near
/// enough that the prefetched lines are still cached when the op arrives.
inline constexpr std::size_t kReplayLookahead = 8;

class ShardedEngine {
 public:
  /// Builds `shard_count` independent engines over `config`'s logical
  /// space. Shard i's engine seeds with `base_seed + i` (shard 0 keeps the
  /// single-engine seed, preserving 1-shard bit-identity). The factory is
  /// called once per shard, in shard order, on the constructing thread.
  ShardedEngine(const LssConfig& config, std::uint32_t shard_count,
                std::uint64_t base_seed, const ShardFactory& factory);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint64_t logical_blocks() const noexcept { return logical_blocks_; }
  const LssConfig& per_shard_config() const noexcept { return shard_config_; }
  std::uint64_t blocks_per_shard() const noexcept {
    return shard_config_.logical_blocks;
  }

  /// Range partition: the shard holding global `lba`, and its address
  /// there.
  std::uint32_t shard_of(Lba lba) const noexcept {
    return static_cast<std::uint32_t>(lba / blocks_per_shard());
  }
  Lba local_of(Lba lba) const noexcept { return lba % blocks_per_shard(); }

  /// Invokes fn(shard_index, local_lba, local_blocks) for every shard
  /// receiving part of the global span [lba, lba + blocks), in shard
  /// order. Throws std::out_of_range, invoking nothing, when the span
  /// passes the logical capacity.
  template <typename Fn>
  void for_each_subspan(Lba lba, std::uint32_t blocks, Fn&& fn) const {
    check_span(lba, blocks);
    const Lba end = lba + blocks;
    const std::uint64_t bps = blocks_per_shard();
    for (Lba at = lba; at < end;) {
      const std::uint32_t s = shard_of(at);
      const Lba stop = std::min<Lba>(end, (Lba{s} + 1) * bps);
      fn(s, at - Lba{s} * bps, static_cast<std::uint32_t>(stop - at));
      at = stop;
    }
  }

  LssEngine& shard(std::uint32_t i) { return *shards_.at(i).engine; }
  const LssEngine& shard(std::uint32_t i) const {
    return *shards_.at(i).engine;
  }

  /// Attaches a trace sink to shard `i`'s engine (nullptr detaches). Each
  /// shard gets its own sink instance — sinks are not synchronised, and
  /// ConcurrentEngine applies shards on different threads; the obs layer
  /// merges per-shard rings afterwards, exactly like Registry/metrics.
  void set_trace_sink(std::uint32_t i, TraceSink* sink) {
    shards_.at(i).engine->set_trace_sink(sink);
  }

  // -- synchronous ops (route to shards on the calling thread) -------------

  /// Applies a user write of `blocks` consecutive global blocks at `lba`:
  /// each shard receiving part of the span gets one contiguous local write.
  void write(Lba lba, std::uint32_t blocks, TimeUs now_us);

  /// Applies a user read of `blocks` consecutive global blocks at `lba`.
  void read(Lba lba, std::uint32_t blocks, TimeUs now_us);

  /// Force-pads every partial chunk on every shard (end-of-trace drain).
  void flush_all();

  // -- deterministic replay ------------------------------------------------

  /// Replays ops [0, count) of the caller's op stream in place: `op_at(i)`
  /// returns op i as a ReplayOp. Every shard in turn walks the whole stream
  /// and applies the sub-span routed to it, in order, on the calling
  /// thread. For the op kReplayLookahead ahead it prefetches the block-map
  /// entry and, for a write, the policy's per-LBA entry
  /// (LssEngine::prefetch_op). Equal to the synchronous write/read
  /// sequence. An op whose span passes the logical capacity throws
  /// std::out_of_range once every shard has applied exactly the ops before
  /// it; the first shard exception (if any) is rethrown after all shards
  /// finish.
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

  // -- merged observers ----------------------------------------------------

  /// Element-wise sum of per-shard metrics (see LssMetrics::merge_from).
  LssMetrics merged_metrics() const;

  /// Element-wise sum of per-shard per-group in-use segment counts.
  std::vector<std::uint32_t> merged_segments_per_group() const;

  /// Sum of per-shard array totals (zero stats when no shard has an array).
  array::StreamStats merged_array_totals() const;

  /// Appended-but-unflushed blocks summed over every group of every shard
  /// (closes the write-accounting identity; 0 after flush_all).
  std::uint64_t merged_pending_blocks() const;

  std::uint64_t chunks_flushed() const noexcept;
  std::size_t policy_memory_bytes() const;
  /// Every shard's LssEngine::memory_usage_bytes(), summed.
  std::size_t engine_memory_bytes() const noexcept;

  /// Audits every shard at `level`.
  void check_invariants(audit::Level level) const;

 private:
  struct Shard {
    ShardParts parts;
    std::unique_ptr<LssEngine> engine;
    std::exception_ptr error;
  };

  /// Throws std::out_of_range unless [lba, lba + blocks) lies inside the
  /// logical space (written so that lba + blocks cannot wrap).
  void check_span(Lba lba, std::uint32_t blocks) const {
    if (lba >= logical_blocks_ || blocks > logical_blocks_ - lba) {
      throw std::out_of_range("span beyond logical capacity");
    }
  }

  template <typename OpAt>
  void replay_shard(std::uint32_t s, std::size_t count, const OpAt& op_at);

  /// Clears every shard's error and rethrows the first one, if any.
  void rethrow_shard_error();

  LssConfig shard_config_;
  std::uint64_t logical_blocks_ = 0;
  std::vector<Shard> shards_;
  std::vector<ReplayOp> queue_;  ///< enqueue_* ops awaiting run_queued
};

template <typename OpAt>
void ShardedEngine::replay(std::size_t count, const OpAt& op_at) {
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    try {
      replay_shard(s, count, op_at);
    } catch (...) {
      shards_[s].error = std::current_exception();
    }
  }
  rethrow_shard_error();
}

template <typename OpAt>
ADAPT_HOT void ShardedEngine::replay_shard(std::uint32_t s, std::size_t count,
                                           const OpAt& op_at) {
  LssEngine& engine = *shards_[s].engine;
  const std::uint64_t bps = blocks_per_shard();
  const Lba base = Lba{s} * bps;
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kReplayLookahead < count) {
      const ReplayOp ahead = op_at(i + kReplayLookahead);
      // Another shard's lba maps to a local address at or past bps (below
      // `base` it wraps), which prefetch_op ignores.
      engine.prefetch_op(ahead.lba - base, ahead.is_write);
    }
    const ReplayOp op = op_at(i);
    if (op.blocks == 0) continue;
    check_span(op.lba, op.blocks);
    const Lba lo = std::max(op.lba, base);
    const Lba hi = std::min(op.lba + op.blocks, base + bps);
    if (lo >= hi) continue;
    const auto blocks = static_cast<std::uint32_t>(hi - lo);
    if (op.is_write) {
      engine.write(lo - base, blocks, op.ts_us);
    } else {
      engine.read(lo - base, blocks, op.ts_us);
    }
  }
}

}  // namespace adapt::lss
