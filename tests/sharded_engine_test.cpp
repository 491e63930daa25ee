// ShardedEngine tests: per-shard config derivation, the LBA range
// span-split, the 1-shard pass-through identity against a direct
// LssEngine, the in-place replay and the op list against the synchronous
// path, and merged-observer accounting.
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

/// small_config with a logical space big enough that a 4-way split still
/// validates (each shard needs op segments >= reserve + 2*groups + 2).
LssConfig sharded_config() {
  LssConfig c = small_config();
  c.logical_blocks = 2048;
  return c;
}

/// Factory building the same deterministic TwoGroupPolicy + greedy stack a
/// direct-engine test would use.
ShardParts two_group_parts(std::uint32_t /*shard_index*/,
                           const LssConfig& /*shard_config*/) {
  ShardParts parts;
  parts.policy = std::make_unique<TwoGroupPolicy>();
  parts.victim = make_greedy();
  return parts;
}

/// Same, placed by SepBIT, whose per-LBA last-write map takes the replay's
/// write hints (PlacementPolicy::prefetch_user_write).
ShardParts sepbit_parts(std::uint32_t /*shard_index*/,
                        const LssConfig& shard_config) {
  ShardParts parts;
  parts.policy = std::make_unique<placement::SepBitPolicy>(
      shard_config.logical_blocks, shard_config.segment_blocks());
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
// shard_config
// ---------------------------------------------------------------------------

TEST(ShardConfigTest, DividesLogicalSpaceCeil) {
  LssConfig global = sharded_config();
  EXPECT_EQ(shard_config(global, 1).logical_blocks, 2048u);
  EXPECT_EQ(shard_config(global, 4).logical_blocks, 512u);
  global.logical_blocks = 2049;  // remainder: every shard gets the ceiling
  EXPECT_EQ(shard_config(global, 4).logical_blocks, 513u);
}

TEST(ShardConfigTest, PreservesChunkAndSegmentGeometry) {
  const LssConfig global = sharded_config();
  const LssConfig per_shard = shard_config(global, 4);
  EXPECT_EQ(per_shard.chunk_blocks, global.chunk_blocks);
  EXPECT_EQ(per_shard.segment_chunks, global.segment_chunks);
  EXPECT_EQ(per_shard.free_segment_reserve, global.free_segment_reserve);
  EXPECT_DOUBLE_EQ(per_shard.over_provision, global.over_provision);
}

TEST(ShardConfigTest, ScalesCoalesceWindowByShardCount) {
  const LssConfig global = sharded_config();
  EXPECT_EQ(shard_config(global, 1).coalesce_window_us,
            global.coalesce_window_us);
  EXPECT_EQ(shard_config(global, 4).coalesce_window_us,
            4 * global.coalesce_window_us);
}

TEST(ShardConfigTest, RejectsBadShardCounts) {
  const LssConfig global = sharded_config();
  EXPECT_THROW(shard_config(global, 0), std::invalid_argument);
  EXPECT_THROW(shard_config(global, kMaxShards + 1), std::invalid_argument);
  LssConfig tiny = global;
  tiny.logical_blocks = 3;
  EXPECT_THROW(shard_config(tiny, 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 1-shard pass-through identity
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
  // Same mapping, block by block: shard 0 at N == 1 is the whole space.
  for (Lba lba = 0; lba < config.logical_blocks; ++lba) {
    ASSERT_EQ(sharded.shard(0).locate(lba), direct.locate(lba))
        << "lba " << lba;
  }
  sharded.check_invariants(audit::Level::kFull);
}

// ---------------------------------------------------------------------------
// Span-split routing
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, RangeRuleMapsContiguousSpans) {
  ShardedEngine sharded(sharded_config(), 4, /*base_seed=*/1,
                        two_group_parts);
  const std::uint64_t bps = sharded.blocks_per_shard();
  ASSERT_EQ(bps, 512u);
  EXPECT_EQ(sharded.shard_of(bps - 1), 0u);
  EXPECT_EQ(sharded.shard_of(bps), 1u);
  EXPECT_EQ(sharded.local_of(bps), 0u);

  // A span over the boundary lands as the top of shard 0 and the bottom
  // of shard 1; no other shard sees it.
  sharded.write(bps - 2, 4, 0);
  sharded.flush_all();
  for (Lba local = 0; local < bps; ++local) {
    const bool on0 = local >= bps - 2;
    const bool on1 = local < 2;
    ASSERT_EQ(sharded.shard(0).locate(local) != kNowhere, on0) << local;
    ASSERT_EQ(sharded.shard(1).locate(local) != kNowhere, on1) << local;
    ASSERT_EQ(sharded.shard(2).locate(local), kNowhere) << local;
    ASSERT_EQ(sharded.shard(3).locate(local), kNowhere) << local;
  }
  EXPECT_EQ(sharded.shard(0).metrics().user_blocks, 2u);
  EXPECT_EQ(sharded.shard(1).metrics().user_blocks, 2u);
}

TEST(ShardedEngineTest, SpanSplitCoversEveryBlockExactlyOnce) {
  const LssConfig config = sharded_config();
  ShardedEngine sharded(config, 4, /*base_seed=*/1, two_group_parts);
  EXPECT_EQ(sharded.per_shard_config().logical_blocks, 512u);

  // Random spans, some of them crossing a shard boundary.
  std::vector<bool> written(config.logical_blocks, false);
  Rng rng(223);
  std::uint64_t blocks_issued = 0;
  for (int i = 0; i < 4000; ++i) {
    const Lba lba = rng.below(config.logical_blocks - 9);
    const auto blocks = static_cast<std::uint32_t>(1 + rng.below(9));
    sharded.write(lba, blocks, 0);
    blocks_issued += blocks;
    for (Lba l = lba; l < lba + blocks; ++l) written[l] = true;
  }
  sharded.flush_all();

  // Every written global block is mapped on exactly the shard the range
  // partition assigns it; untouched blocks stay unmapped everywhere.
  for (Lba lba = 0; lba < config.logical_blocks; ++lba) {
    const LssEngine& owner = sharded.shard(sharded.shard_of(lba));
    ASSERT_EQ(owner.locate(sharded.local_of(lba)) != kNowhere, written[lba])
        << "lba " << lba;
  }
  EXPECT_EQ(sharded.merged_metrics().user_blocks, blocks_issued);
  sharded.check_invariants(audit::Level::kFull);
}

TEST(ShardedEngineTest, OutOfRangeOpsThrow) {
  ShardedEngine sharded(sharded_config(), 4, 1, two_group_parts);
  EXPECT_THROW(sharded.write(2047, 2, 0), std::out_of_range);
  EXPECT_THROW(sharded.read(2048, 1, 0), std::out_of_range);
  EXPECT_THROW(sharded.enqueue_write(2040, 16, 0), std::out_of_range);

  // A span whose end wraps past 2^64 is out of range too.
  const Lba wrapped = ~Lba{0} - 3;
  EXPECT_THROW(sharded.write(wrapped, 8, 0), std::out_of_range);
  EXPECT_THROW(sharded.read(wrapped, 8, 0), std::out_of_range);
  EXPECT_THROW(sharded.enqueue_write(wrapped, 8, 0), std::out_of_range);
  EXPECT_EQ(sharded.queued_ops(), 0u);

  // replay stops every shard at the first bad op: the op before it
  // landed, the op after it did not.
  const std::vector<ReplayOp> ops = {
      {0, 4, 0, true}, {wrapped, 8, 0, true}, {8, 4, 0, true}};
  EXPECT_THROW(
      sharded.replay(ops.size(), [&ops](std::size_t i) { return ops[i]; }),
      std::out_of_range);
  EXPECT_EQ(sharded.merged_metrics().user_blocks, 4u);
  EXPECT_EQ(sharded.shard(0).locate(8), kNowhere);
}

TEST(ShardedEngineTest, FactoryContractEnforced) {
  EXPECT_THROW(ShardedEngine(sharded_config(), 2, 1, ShardFactory{}),
               std::invalid_argument);
  const auto null_policy = [](std::uint32_t, const LssConfig&) {
    ShardParts parts;
    parts.victim = make_greedy();
    return parts;  // policy left null
  };
  EXPECT_THROW(ShardedEngine(sharded_config(), 2, 1, null_policy),
               std::invalid_argument);
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
    // Spans up to 6 blocks, some crossing a shard boundary; one op in 16
    // is a clamped zero-block op, some of them past the logical capacity,
    // which replay skips.
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

    ShardedEngine sync_engine(config, 4, 1, factory);
    ShardedEngine queued(config, 4, 1, factory);
    ShardedEngine replayed(config, 4, 1, factory);
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

TEST(ShardedEngineTest, MergedObserversSumShards) {
  const LssConfig config = sharded_config();
  ShardedEngine sharded(config, 4, 1, two_group_parts);
  Rng rng(229);
  for (int i = 0; i < 6000; ++i) {
    sharded.write(rng.below(config.logical_blocks), 1,
                  static_cast<TimeUs>(i) * 20);
  }
  std::uint64_t expected_pending = 0;
  for (std::uint32_t s = 0; s < sharded.shard_count(); ++s) {
    for (GroupId g = 0; g < sharded.shard(s).group_count(); ++g) {
      expected_pending += sharded.shard(s).pending_blocks(g);
    }
  }
  EXPECT_GT(expected_pending, 0u);
  EXPECT_EQ(sharded.merged_pending_blocks(), expected_pending);
  sharded.flush_all();
  EXPECT_EQ(sharded.merged_pending_blocks(), 0u);

  LssMetrics expected;
  std::vector<std::uint32_t> expected_segments;
  std::uint64_t expected_chunks = 0;
  for (std::uint32_t s = 0; s < sharded.shard_count(); ++s) {
    const LssEngine& shard = sharded.shard(s);
    expected.merge_from(shard.metrics());
    const auto counts = shard.segments_per_group();
    if (expected_segments.size() < counts.size()) {
      expected_segments.resize(counts.size(), 0);
    }
    for (std::size_t g = 0; g < counts.size(); ++g) {
      expected_segments[g] += counts[g];
    }
    expected_chunks += shard.chunks_flushed();
    // Every shard saw real traffic: uniform writes reach every range.
    EXPECT_GT(shard.metrics().user_blocks, 0u) << "shard " << s;
  }
  expect_metrics_eq(sharded.merged_metrics(), expected);
  EXPECT_EQ(sharded.merged_segments_per_group(), expected_segments);
  EXPECT_EQ(sharded.chunks_flushed(), expected_chunks);
}

}  // namespace
}  // namespace adapt::lss
