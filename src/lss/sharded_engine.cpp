#include "lss/sharded_engine.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace adapt::lss {

LssConfig shard_config(const LssConfig& global, std::uint32_t shard_count) {
  if (shard_count == 0 || shard_count > kMaxShards) {
    throw std::invalid_argument("shard_config: shard count must be in [1, " +
                                std::to_string(kMaxShards) + "]");
  }
  if (global.logical_blocks < shard_count) {
    throw std::invalid_argument(
        "shard_config: more shards than logical blocks");
  }
  LssConfig per_shard = global;
  // Uniform ceil-division: every shard gets the same logical size (the
  // last shard simply never sees its top addresses), so one validate()
  // covers all shards and shard 0 at N == 1 is exact.
  per_shard.logical_blocks =
      (global.logical_blocks + shard_count - 1) / shard_count;
  // Each shard's inter-write gaps are ~N× the global ones; an unscaled
  // window would turn routine gaps into deadline expiries and padding.
  per_shard.coalesce_window_us *= shard_count;
  return per_shard;
}

ShardedEngine::ShardedEngine(const LssConfig& config,
                             std::uint32_t shard_count,
                             std::uint64_t base_seed,
                             const ShardFactory& factory)
    : shard_config_(shard_config(config, shard_count)),
      logical_blocks_(config.logical_blocks) {
  if (!factory) {
    throw std::invalid_argument("ShardedEngine: null shard factory");
  }
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    Shard shard;
    shard.parts = factory(i, shard_config_);
    if (shard.parts.policy == nullptr || shard.parts.victim == nullptr) {
      throw std::invalid_argument(
          "ShardedEngine: factory returned a null policy or victim");
    }
    shard.engine = std::make_unique<LssEngine>(
        shard_config_, *shard.parts.policy, *shard.parts.victim,
        shard.parts.array.get(), base_seed + i);
    if (shard.parts.hook != nullptr) {
      shard.engine->set_aggregation_hook(shard.parts.hook);
    }
    shards_.push_back(std::move(shard));
  }
}

void ShardedEngine::write(Lba lba, std::uint32_t blocks, TimeUs now_us) {
  for_each_subspan(lba, blocks,
                   [&](std::uint32_t s, Lba local, std::uint32_t count) {
                     shards_[s].engine->write(local, count, now_us);
                   });
}

void ShardedEngine::read(Lba lba, std::uint32_t blocks, TimeUs now_us) {
  for_each_subspan(lba, blocks,
                   [&](std::uint32_t s, Lba local, std::uint32_t count) {
                     shards_[s].engine->read(local, count, now_us);
                   });
}

void ShardedEngine::flush_all() {
  for (Shard& shard : shards_) shard.engine->flush_all();
}

void ShardedEngine::enqueue_write(Lba lba, std::uint32_t blocks,
                                  TimeUs now_us) {
  check_span(lba, blocks);
  queue_.push_back(ReplayOp{lba, blocks, now_us, /*is_write=*/true});
}

void ShardedEngine::enqueue_read(Lba lba, std::uint32_t blocks,
                                 TimeUs now_us) {
  check_span(lba, blocks);
  queue_.push_back(ReplayOp{lba, blocks, now_us, /*is_write=*/false});
}

void ShardedEngine::reserve_queues(std::size_t expected_ops) {
  queue_.reserve(queue_.size() + expected_ops);
}

void ShardedEngine::run_queued() {
  const std::vector<ReplayOp> ops = std::move(queue_);
  queue_.clear();
  replay(ops.size(), [&ops](std::size_t i) { return ops[i]; });
}

void ShardedEngine::rethrow_shard_error() {
  std::exception_ptr first;
  for (Shard& shard : shards_) {
    if (first == nullptr) first = shard.error;
    shard.error = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

LssMetrics ShardedEngine::merged_metrics() const {
  LssMetrics merged;
  for (const Shard& shard : shards_) {
    merged.merge_from(shard.engine->metrics());
  }
  return merged;
}

std::vector<std::uint32_t> ShardedEngine::merged_segments_per_group() const {
  std::vector<std::uint32_t> merged;
  std::vector<std::uint32_t> scratch;
  for (const Shard& shard : shards_) {
    shard.engine->segments_per_group(scratch);
    if (merged.size() < scratch.size()) merged.resize(scratch.size(), 0);
    for (std::size_t g = 0; g < scratch.size(); ++g) {
      merged[g] += scratch[g];
    }
  }
  return merged;
}

array::StreamStats ShardedEngine::merged_array_totals() const {
  array::StreamStats merged;
  for (const Shard& shard : shards_) {
    if (shard.parts.array == nullptr) continue;
    const array::StreamStats& t = shard.parts.array->totals();
    merged.chunks_written += t.chunks_written;
    merged.data_bytes += t.data_bytes;
    merged.padding_bytes += t.padding_bytes;
    merged.parity_bytes += t.parity_bytes;
  }
  return merged;
}

std::uint64_t ShardedEngine::merged_pending_blocks() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (GroupId g = 0; g < shard.engine->group_count(); ++g) {
      total += shard.engine->pending_blocks(g);
    }
  }
  return total;
}

std::uint64_t ShardedEngine::chunks_flushed() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.engine->chunks_flushed();
  return total;
}

std::size_t ShardedEngine::policy_memory_bytes() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.parts.policy->memory_usage_bytes();
  }
  return total;
}

std::size_t ShardedEngine::engine_memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.engine->memory_usage_bytes();
  }
  return total;
}

void ShardedEngine::check_invariants(audit::Level level) const {
  for (const Shard& shard : shards_) shard.engine->check_invariants(level);
}

}  // namespace adapt::lss
