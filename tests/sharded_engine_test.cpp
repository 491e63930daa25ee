// ShardedEngine tests: the pass-through identity against a direct
// LssEngine, the range check, the constructor's contract, and the in-place
// replay and the op list against the synchronous path.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lss/sharded_engine.h"
#include "lss/victim_policy.h"
#include "placement/sepbit.h"
#include "test_support.h"

namespace adapt::lss {
namespace {

using testing::TwoGroupPolicy;
using testing::small_config;

/// small_config over a 2048-block logical space.
LssConfig sharded_config() {
  LssConfig c = small_config();
  c.logical_blocks = 2048;
  return c;
}

/// Factory building the same deterministic TwoGroupPolicy + greedy stack a
/// direct-engine test would use.
ShardParts two_group_parts(std::uint32_t /*shard_index*/,
                           const LssConfig& /*config*/) {
  ShardParts parts;
  parts.policy = std::make_unique<TwoGroupPolicy>();
  parts.victim = make_greedy();
  return parts;
}

/// Same, placed by SepBIT, whose per-LBA last-write map takes the replay's
/// write hints (PlacementPolicy::prefetch_user_write).
ShardParts sepbit_parts(std::uint32_t /*shard_index*/,
                        const LssConfig& config) {
  ShardParts parts;
  parts.policy = std::make_unique<placement::SepBitPolicy>(
      config.logical_blocks, config.segment_blocks());
  parts.victim = make_greedy();
  return parts;
}

void expect_group_traffic_eq(const GroupTraffic& a, const GroupTraffic& b) {
  EXPECT_EQ(a.user_blocks, b.user_blocks);
  EXPECT_EQ(a.gc_blocks, b.gc_blocks);
  EXPECT_EQ(a.shadow_blocks, b.shadow_blocks);
  EXPECT_EQ(a.padding_blocks, b.padding_blocks);
  EXPECT_EQ(a.full_flushes, b.full_flushes);
  EXPECT_EQ(a.padded_flushes, b.padded_flushes);
  EXPECT_EQ(a.padded_fill_blocks, b.padded_fill_blocks);
  EXPECT_EQ(a.rmw_flushes, b.rmw_flushes);
  EXPECT_EQ(a.rmw_blocks, b.rmw_blocks);
  EXPECT_EQ(a.segments_sealed, b.segments_sealed);
  EXPECT_EQ(a.segments_reclaimed, b.segments_reclaimed);
}

void expect_metrics_eq(const LssMetrics& a, const LssMetrics& b) {
  EXPECT_EQ(a.user_blocks, b.user_blocks);
  EXPECT_EQ(a.gc_blocks, b.gc_blocks);
  EXPECT_EQ(a.shadow_blocks, b.shadow_blocks);
  EXPECT_EQ(a.padding_blocks, b.padding_blocks);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.gc_migrated_blocks, b.gc_migrated_blocks);
  EXPECT_EQ(a.forced_lazy_flushes, b.forced_lazy_flushes);
  EXPECT_EQ(a.rmw_flushes, b.rmw_flushes);
  EXPECT_EQ(a.rmw_blocks, b.rmw_blocks);
  EXPECT_EQ(a.rmw_read_blocks, b.rmw_read_blocks);
  EXPECT_EQ(a.read_blocks, b.read_blocks);
  EXPECT_EQ(a.read_chunk_fetches, b.read_chunk_fetches);
  EXPECT_EQ(a.read_buffer_hits, b.read_buffer_hits);
  EXPECT_EQ(a.read_unmapped, b.read_unmapped);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    expect_group_traffic_eq(a.groups[g], b.groups[g]);
  }
}

// ---------------------------------------------------------------------------
// Pass-through identity
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, OneShardMatchesDirectEngineBitIdentically) {
  const LssConfig config = sharded_config();
  TwoGroupPolicy direct_policy;
  auto direct_victim = make_greedy();
  LssEngine direct(config, direct_policy, *direct_victim, nullptr,
                   /*seed=*/1);
  ShardedEngine sharded(config, 1, /*base_seed=*/1, two_group_parts);

  Rng rng(211);
  TimeUs now = 0;
  for (int i = 0; i < 12000; ++i) {
    now += rng.below(250);
    const std::uint64_t kind = rng.below(100);
    const Lba lba = rng.below(config.logical_blocks - 4);
    const auto blocks = static_cast<std::uint32_t>(1 + rng.below(4));
    if (kind < 70) {
      direct.write(lba, blocks, now);
      sharded.write(lba, blocks, now);
    } else if (kind < 85) {
      direct.read(lba, blocks, now);
      sharded.read(lba, blocks, now);
    } else {
      // An idle gap: the next op fires the deadlines that expired in it.
      now += 200;
    }
  }
  direct.flush_all();
  sharded.flush_all();

  expect_metrics_eq(sharded.merged_metrics(), direct.metrics());
  EXPECT_EQ(sharded.chunks_flushed(), direct.chunks_flushed());
  EXPECT_EQ(sharded.merged_segments_per_group(),
            direct.segments_per_group());
  // Same mapping, block by block.
  for (Lba lba = 0; lba < config.logical_blocks; ++lba) {
    ASSERT_EQ(sharded.shard(0).locate(lba), direct.locate(lba))
        << "lba " << lba;
  }
  sharded.check_invariants(audit::Level::kFull);
}

// ---------------------------------------------------------------------------
// Contract
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, OutOfRangeOpsThrow) {
  ShardedEngine sharded(sharded_config(), 1, 1, two_group_parts);
  EXPECT_THROW(sharded.write(2047, 2, 0), std::out_of_range);
  EXPECT_THROW(sharded.read(2048, 1, 0), std::out_of_range);
  EXPECT_THROW(sharded.enqueue_write(2040, 16, 0), std::out_of_range);

  // A span whose end wraps past 2^64 is out of range too.
  const Lba wrapped = ~Lba{0} - 3;
  EXPECT_THROW(sharded.write(wrapped, 8, 0), std::out_of_range);
  EXPECT_THROW(sharded.read(wrapped, 8, 0), std::out_of_range);
  EXPECT_THROW(sharded.enqueue_write(wrapped, 8, 0), std::out_of_range);
  EXPECT_EQ(sharded.queued_ops(), 0u);

  // replay stops at the first bad op: the op before it landed, the op
  // after it did not.
  const std::vector<ReplayOp> ops = {
      {0, 4, 0, true}, {wrapped, 8, 0, true}, {8, 4, 0, true}};
  EXPECT_THROW(
      sharded.replay(ops.size(), [&ops](std::size_t i) { return ops[i]; }),
      std::out_of_range);
  EXPECT_EQ(sharded.merged_metrics().user_blocks, 4u);
  EXPECT_EQ(sharded.shard(0).locate(8), kNowhere);
}

TEST(ShardedEngineTest, FactoryContractEnforced) {
  EXPECT_THROW(ShardedEngine(sharded_config(), 1, 1, ShardFactory{}),
               std::invalid_argument);
  const auto null_policy = [](std::uint32_t, const LssConfig&) {
    ShardParts parts;
    parts.victim = make_greedy();
    return parts;  // policy left null
  };
  EXPECT_THROW(ShardedEngine(sharded_config(), 1, 1, null_policy),
               std::invalid_argument);
}

// One engine over the whole logical space: every other shard count is
// refused before the factory runs, and shard(i) has only index 0.
TEST(ShardedEngineTest, RejectsMoreThanOneShard) {
  int factory_calls = 0;
  const ShardFactory counting = [&](std::uint32_t i, const LssConfig& c) {
    ++factory_calls;
    return two_group_parts(i, c);
  };
  for (const std::uint32_t shards : {0u, 2u, 4u}) {
    EXPECT_THROW(ShardedEngine(sharded_config(), shards, 1, counting),
                 std::invalid_argument)
        << shards << " shards";
  }
  EXPECT_EQ(factory_calls, 0);
  ShardedEngine one(sharded_config(), 1, 1, counting);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_EQ(one.config().logical_blocks, sharded_config().logical_blocks);
  EXPECT_NO_THROW(one.shard(0));
  EXPECT_THROW(one.shard(1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// In-place replay and the op list
// ---------------------------------------------------------------------------

/// Drives one engine synchronously, one through the op list (run_queued)
/// and one through replay() over the op array itself with the same op
/// stream; all three must agree, under a policy without write hints and
/// under SepBIT.
TEST(ShardedEngineTest, RunQueuedMatchesSyncReplayAnyScheduling) {
  const LssConfig config = sharded_config();
  for (const ShardFactory& factory :
       {ShardFactory(two_group_parts), ShardFactory(sepbit_parts)}) {
    // Spans up to 6 blocks; one op in 16 is a clamped zero-block op, some
    // of them past the logical capacity, which replay skips.
    std::vector<ReplayOp> ops;
    Rng rng(227);
    TimeUs now = 0;
    for (int i = 0; i < 8000; ++i) {
      now += rng.below(300);
      const Lba lba = rng.below(config.logical_blocks - 6);
      const auto blocks = static_cast<std::uint32_t>(1 + rng.below(6));
      const bool is_write = rng.below(100) < 80;
      if (rng.below(16) == 0) {
        ops.push_back({lba + rng.below(2) * config.logical_blocks, 0, now,
                       is_write});
      } else {
        ops.push_back({lba, blocks, now, is_write});
      }
    }
    const auto op_at = [&ops](std::size_t i) { return ops[i]; };

    ShardedEngine sync_engine(config, 1, 1, factory);
    ShardedEngine queued(config, 1, 1, factory);
    ShardedEngine replayed(config, 1, 1, factory);
    for (const ReplayOp& op : ops) {
      if (op.blocks == 0) continue;
      if (op.is_write) {
        sync_engine.write(op.lba, op.blocks, op.ts_us);
        queued.enqueue_write(op.lba, op.blocks, op.ts_us);
      } else {
        sync_engine.read(op.lba, op.blocks, op.ts_us);
        queued.enqueue_read(op.lba, op.blocks, op.ts_us);
      }
    }
    EXPECT_GT(queued.queued_ops(), 0u);
    queued.run_queued();
    replayed.replay(ops.size(), op_at);
    EXPECT_EQ(queued.queued_ops(), 0u);

    sync_engine.flush_all();
    for (ShardedEngine* engine : {&queued, &replayed}) {
      engine->flush_all();
      expect_metrics_eq(engine->merged_metrics(),
                        sync_engine.merged_metrics());
      EXPECT_EQ(engine->chunks_flushed(), sync_engine.chunks_flushed());
      engine->check_invariants(audit::Level::kFull);
    }
  }
}

}  // namespace
}  // namespace adapt::lss
