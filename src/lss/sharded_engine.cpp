#include "lss/sharded_engine.h"

#include <stdexcept>
#include <utility>

namespace adapt::lss {
namespace {

/// Checks the constructor's contract and builds the stack the engine
/// borrows, so that the engine member can be built right after it.
ShardParts build_parts(const LssConfig& config, std::uint32_t shard_count,
                       const ShardFactory& factory) {
  if (shard_count != 1) {
    throw std::invalid_argument("ShardedEngine: shard count must be 1");
  }
  if (!factory) {
    throw std::invalid_argument("ShardedEngine: null shard factory");
  }
  ShardParts parts = factory(0, config);
  if (parts.policy == nullptr || parts.victim == nullptr) {
    throw std::invalid_argument(
        "ShardedEngine: factory returned a null policy or victim");
  }
  return parts;
}

}  // namespace

ShardedEngine::ShardedEngine(const LssConfig& config,
                             std::uint32_t shard_count, std::uint64_t seed,
                             const ShardFactory& factory)
    : parts_(build_parts(config, shard_count, factory)),
      engine_(config, *parts_.policy, *parts_.victim, parts_.array.get(),
              seed) {
  if (parts_.hook != nullptr) engine_.set_aggregation_hook(parts_.hook);
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

array::StreamStats ShardedEngine::merged_array_totals() const {
  return parts_.array == nullptr ? array::StreamStats{}
                                 : parts_.array->totals();
}

std::uint64_t ShardedEngine::merged_pending_blocks() const {
  std::uint64_t total = 0;
  for (GroupId g = 0; g < engine_.group_count(); ++g) {
    total += engine_.pending_blocks(g);
  }
  return total;
}

}  // namespace adapt::lss
