// Engine-level tests: append/flush mechanics, the SLA coalescing window,
// padding accounting, segment lifecycle, GC correctness, shadow-append
// semantics, randomized invariant checks, and the per-block arrays' zero
// pages.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adapt_policy.h"
#include "common/rng.h"
#include "lss/engine.h"
#include "lss/victim_policy.h"
#include "placement/sep_gc.h"
#include "placement/sepbit.h"
#include "test_support.h"

namespace adapt::lss {
namespace {

using testing::ParityPolicy;
using testing::TwoGroupPolicy;
using testing::small_config;

struct EngineFixture {
  explicit EngineFixture(LssConfig config = small_config())
      : victim(make_greedy()),
        engine(config, policy, *victim, nullptr, /*seed=*/1) {}

  TwoGroupPolicy policy;
  std::unique_ptr<VictimPolicy> victim;
  LssEngine engine;
};

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(LssConfigTest, GeometryHelpers) {
  const LssConfig c = small_config();
  EXPECT_EQ(c.segment_blocks(), 8u);
  EXPECT_EQ(c.physical_blocks(), 448u);
  EXPECT_EQ(c.total_segments(), 56u);
}

TEST(LssConfigTest, RejectsZeroGeometry) {
  LssConfig c = small_config();
  c.chunk_blocks = 0;
  EXPECT_THROW(c.validate(2), std::invalid_argument);
}

TEST(LssConfigTest, RejectsInsufficientOverProvision) {
  LssConfig c = small_config();
  c.over_provision = 0.01;
  EXPECT_THROW(c.validate(2), std::invalid_argument);
}

TEST(LssConfigTest, AcceptsSaneConfig) {
  const LssConfig c = small_config();
  EXPECT_NO_THROW(c.validate(2));
}

// ---------------------------------------------------------------------------
// Basic write path
// ---------------------------------------------------------------------------

TEST(LssEngineTest, SingleWriteIsMapped) {
  EngineFixture f;
  f.engine.write_block(5, 0);
  const BlockLocation loc = f.engine.locate(5);
  EXPECT_NE(loc.segment, kInvalidSegment);
  EXPECT_EQ(f.engine.metrics().user_blocks, 1u);
  EXPECT_EQ(f.engine.vtime(), 1u);
  f.engine.check_invariants();
}

TEST(LssEngineTest, UnwrittenLbaIsNowhere) {
  EngineFixture f;
  EXPECT_EQ(f.engine.locate(9), kNowhere);
}

TEST(LssEngineTest, OverwriteMovesBlock) {
  EngineFixture f;
  f.engine.write_block(5, 0);
  const BlockLocation first = f.engine.locate(5);
  f.engine.write_block(5, 0);
  const BlockLocation second = f.engine.locate(5);
  EXPECT_NE(first, second);
  EXPECT_EQ(f.engine.metrics().user_blocks, 2u);
  f.engine.check_invariants();
}

TEST(LssEngineTest, MultiBlockWrite) {
  EngineFixture f;
  f.engine.write(10, 4, 0);
  for (Lba lba = 10; lba < 14; ++lba) {
    EXPECT_NE(f.engine.locate(lba), kNowhere);
  }
  EXPECT_EQ(f.engine.metrics().user_blocks, 4u);
}

TEST(LssEngineTest, OutOfRangeWriteThrows) {
  EngineFixture f;
  EXPECT_THROW(f.engine.write_block(256, 0), std::out_of_range);
  EXPECT_THROW(f.engine.write(255, 2, 0), std::out_of_range);
  // A span whose end wraps past 2^64.
  EXPECT_THROW(f.engine.write(~Lba{0} - 3, 8, 0), std::out_of_range);
  EXPECT_EQ(f.engine.metrics().user_blocks, 0u);
}

TEST(LssEngineTest, PrefetchHintsChangeNothing) {
  // SepBIT, so write hints reach a policy's per-LBA state.
  const LssConfig config = small_config();
  placement::SepBitPolicy hinted_policy(config.logical_blocks,
                                        config.segment_blocks());
  placement::SepBitPolicy plain_policy(config.logical_blocks,
                                       config.segment_blocks());
  const auto hinted_victim = make_greedy();
  const auto plain_victim = make_greedy();
  LssEngine hinted(config, hinted_policy, *hinted_victim, nullptr, 1);
  LssEngine plain(config, plain_policy, *plain_victim, nullptr, 1);

  // Between ops, hint every LBA of [0, logical + 8) in turn as a read and
  // as a write; the last 8 are out of range and must be ignored.
  const Lba hint_end = config.logical_blocks + 8;
  Lba hint = 0;
  Rng rng(31);
  TimeUs now = 0;
  for (int i = 0; i < 6000; ++i) {
    hinted.prefetch_op(hint, /*is_write=*/true);
    hinted.prefetch_op(hint, /*is_write=*/false);
    hint = (hint + 1) % hint_end;
    now += rng.below(60);
    const Lba lba = rng.below(config.logical_blocks - 3);
    const auto blocks = static_cast<std::uint32_t>(1 + rng.below(3));
    if (rng.below(4) == 0) {
      hinted.read(lba, blocks, now);
      plain.read(lba, blocks, now);
    } else {
      hinted.write(lba, blocks, now);
      plain.write(lba, blocks, now);
    }
  }
  hinted.flush_all();
  plain.flush_all();

  const LssMetrics& a = hinted.metrics();
  const LssMetrics& b = plain.metrics();
  EXPECT_GT(a.gc_runs, 0u);
  EXPECT_EQ(a.user_blocks, b.user_blocks);
  EXPECT_EQ(a.gc_blocks, b.gc_blocks);
  EXPECT_EQ(a.padding_blocks, b.padding_blocks);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.read_blocks, b.read_blocks);
  EXPECT_EQ(a.read_chunk_fetches, b.read_chunk_fetches);
  EXPECT_EQ(a.read_buffer_hits, b.read_buffer_hits);
  EXPECT_EQ(a.read_unmapped, b.read_unmapped);
  for (GroupId g = 0; g < hinted.group_count(); ++g) {
    EXPECT_EQ(a.groups[g].user_blocks, b.groups[g].user_blocks) << g;
    EXPECT_EQ(a.groups[g].gc_blocks, b.groups[g].gc_blocks) << g;
  }
  for (Lba lba = 0; lba < hint_end; ++lba) {
    ASSERT_EQ(hinted.locate(lba), plain.locate(lba)) << "lba " << lba;
  }
  hinted.check_invariants();
}

TEST(LssEngineTest, PendingBlocksTracked) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.write_block(2, 0);
  EXPECT_EQ(f.engine.pending_blocks(0), 2u);
  EXPECT_EQ(f.engine.pending_blocks(1), 0u);
}

// ---------------------------------------------------------------------------
// Chunk flush & padding
// ---------------------------------------------------------------------------

TEST(LssEngineTest, FullChunkFlushesWithoutPadding) {
  EngineFixture f;
  for (Lba lba = 0; lba < 4; ++lba) f.engine.write_block(lba, 0);
  EXPECT_EQ(f.engine.pending_blocks(0), 0u);
  const GroupTraffic& g = f.engine.group_traffic(0);
  EXPECT_EQ(g.full_flushes, 1u);
  EXPECT_EQ(g.padded_flushes, 0u);
  EXPECT_EQ(f.engine.metrics().padding_blocks, 0u);
}

TEST(LssEngineTest, DeadlineExpiryPadsPartialChunk) {
  EngineFixture f;
  f.engine.write_block(1, 0);     // deadline armed for t=100
  f.engine.advance_time(99);
  EXPECT_EQ(f.engine.pending_blocks(0), 1u);  // not yet
  f.engine.advance_time(100);
  EXPECT_EQ(f.engine.pending_blocks(0), 0u);
  const GroupTraffic& g = f.engine.group_traffic(0);
  EXPECT_EQ(g.padded_flushes, 1u);
  EXPECT_EQ(g.padding_blocks, 3u);
  EXPECT_EQ(g.padded_fill_blocks, 1u);
  f.engine.check_invariants();
}

TEST(LssEngineTest, DeadlineAnchorsToFirstPendingBlock) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.write_block(2, 60);  // same chunk, does not extend the deadline
  f.engine.advance_time(100);
  EXPECT_EQ(f.engine.pending_blocks(0), 0u);
  EXPECT_EQ(f.engine.group_traffic(0).padding_blocks, 2u);
}

TEST(LssEngineTest, WriteAtLaterTimeFiresExpiredDeadlineFirst) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.write_block(2, 500);  // deadline at 100 fires before this append
  const GroupTraffic& g = f.engine.group_traffic(0);
  EXPECT_EQ(g.padded_flushes, 1u);
  EXPECT_EQ(f.engine.pending_blocks(0), 1u);  // block 2 pending fresh
}

TEST(LssEngineTest, InvalidatedPendingBlockNeedsNoDurability) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.write_block(1, 10);  // overwrites the pending copy (same group)
  // Two pending slots, one stale; the deadline must still fire and pad
  // because the *new* copy is live.
  f.engine.advance_time(200);
  EXPECT_EQ(f.engine.pending_blocks(0), 0u);
  EXPECT_EQ(f.engine.group_traffic(0).padded_flushes, 1u);
}

TEST(LssEngineTest, AllStalePendingSkipsPadding) {
  // Fill a chunk to its last slot, then overwrite those blocks so the
  // stragglers in the next chunk are stale.
  ParityPolicy policy;
  auto victim = make_greedy();
  LssEngine engine(small_config(), policy, *victim, nullptr, 1);
  engine.write_block(0, 0);  // group 0 pending
  engine.write_block(1, 0);  // group 1 pending
  // Overwrite block 0 -> its old copy is stale; new copy pending too.
  engine.write_block(0, 10);
  engine.advance_time(1000);
  // Group 0 must have flushed once (live copies), not twice.
  EXPECT_EQ(engine.group_traffic(0).padded_flushes, 1u);
  engine.check_invariants();
}

TEST(LssEngineTest, FlushAllDrainsEverything) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.write_block(2, 0);
  f.engine.flush_all();
  EXPECT_EQ(f.engine.pending_blocks(0), 0u);
  EXPECT_EQ(f.engine.group_traffic(0).padding_blocks, 2u);
  f.engine.check_invariants();
}

TEST(LssEngineTest, PaddingRatioMatchesDefinition) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.flush_all();
  const LssMetrics& m = f.engine.metrics();
  EXPECT_EQ(m.user_blocks, 1u);
  EXPECT_EQ(m.padding_blocks, 3u);
  EXPECT_DOUBLE_EQ(m.wa(), 4.0);
  EXPECT_DOUBLE_EQ(m.padding_ratio(), 0.75);
}

// ---------------------------------------------------------------------------
// Segment lifecycle
// ---------------------------------------------------------------------------

TEST(LssEngineTest, SegmentSealsWhenFull) {
  EngineFixture f;
  for (Lba lba = 0; lba < 8; ++lba) f.engine.write_block(lba, 0);
  EXPECT_EQ(f.engine.group_traffic(0).segments_sealed, 1u);
  f.engine.check_invariants();
}

TEST(LssEngineTest, SegmentsPerGroupCountsOpenSegments) {
  EngineFixture f;
  f.engine.write_block(0, 0);
  const auto counts = f.engine.segments_per_group();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);
}

TEST(LssEngineTest, PaddingConsumesSegmentSpace) {
  EngineFixture f;
  // Two padded chunks fill one 8-block segment.
  f.engine.write_block(1, 0);
  f.engine.advance_time(150);
  f.engine.write_block(2, 1000);
  f.engine.advance_time(1150);
  EXPECT_EQ(f.engine.group_traffic(0).segments_sealed, 1u);
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

TEST(LssEngineTest, GcPreservesAllLiveData) {
  EngineFixture f;
  Rng rng(71);
  std::vector<bool> written(256, false);
  for (int i = 0; i < 8000; ++i) {
    const Lba lba = rng.below(256);
    f.engine.write_block(lba, static_cast<TimeUs>(i) * 10);
    written[lba] = true;
  }
  f.engine.flush_all();
  f.engine.check_invariants();
  for (Lba lba = 0; lba < 256; ++lba) {
    EXPECT_EQ(f.engine.locate(lba) != kNowhere, written[lba])
        << "lba " << lba;
  }
  EXPECT_GT(f.engine.metrics().gc_runs, 0u);
  EXPECT_GT(f.engine.metrics().gc_blocks, 0u);
}

TEST(LssEngineTest, GcRewritesLandInGcGroup) {
  EngineFixture f;
  Rng rng(73);
  for (int i = 0; i < 5000; ++i) {
    f.engine.write_block(rng.below(200), static_cast<TimeUs>(i));
  }
  EXPECT_GT(f.engine.group_traffic(1).gc_blocks, 0u);
  EXPECT_EQ(f.engine.group_traffic(1).user_blocks, 0u);
}

TEST(LssEngineTest, GcKeepsFreePoolAboveWatermark) {
  EngineFixture f;
  Rng rng(79);
  for (int i = 0; i < 20000; ++i) {
    f.engine.write_block(rng.below(256), static_cast<TimeUs>(i));
  }
  // Watermark = reserve (4) + groups (2).
  EXPECT_GE(f.engine.free_segments(), 6u);
}

TEST(LssEngineTest, WaIsAtLeastOne) {
  EngineFixture f;
  Rng rng(83);
  for (int i = 0; i < 3000; ++i) {
    f.engine.write_block(rng.below(256), static_cast<TimeUs>(i) * 50);
  }
  f.engine.flush_all();
  EXPECT_GE(f.engine.metrics().wa(), 1.0);
  EXPECT_GE(f.engine.metrics().gc_wa(), 1.0);
}

TEST(LssEngineTest, GcStepHonorsWatermark) {
  EngineFixture f;
  // Fresh engine: everything free, gc_step must refuse.
  EXPECT_FALSE(f.engine.gc_step(0, 1));
  Rng rng(89);
  for (int i = 0; i < 3000; ++i) {
    f.engine.write_block(rng.below(256), 0);
  }
  // Force one proactive pass with a watermark above the current free pool.
  const std::uint32_t free_now = f.engine.free_segments();
  EXPECT_TRUE(f.engine.gc_step(0, free_now + 1));
  f.engine.check_invariants();
}

TEST(LssEngineTest, ChunksFlushedCounter) {
  EngineFixture f;
  for (Lba lba = 0; lba < 4; ++lba) f.engine.write_block(lba, 0);
  EXPECT_EQ(f.engine.chunks_flushed(), 1u);
  f.engine.write_block(9, 0);
  f.engine.flush_all();
  EXPECT_EQ(f.engine.chunks_flushed(), 2u);
}

// ---------------------------------------------------------------------------
// GC against closed-form theory
// ---------------------------------------------------------------------------

/// 2^15 blocks, 16-block chunks, 64-block segments, 25% over-provision.
LssConfig uniform_config() {
  LssConfig c;
  c.chunk_blocks = 16;
  c.segment_chunks = 4;
  c.logical_blocks = 1u << 15;
  c.over_provision = 0.25;
  return c;
}

/// SepGC over a fully live uniform volume: every block is written once,
/// then 32 × 2^15 uniformly random one-block writes follow, all at time 0
/// so no deadline pads. Returns the WA of the random-write phase alone.
double uniform_sepgc_wa(std::string_view victim_name, std::uint64_t seed) {
  const LssConfig c = uniform_config();
  placement::SepGcPolicy policy;
  const std::unique_ptr<VictimPolicy> victim = make_victim_policy(victim_name);
  LssEngine engine(c, policy, *victim, nullptr, seed);
  for (Lba lba = 0; lba < c.logical_blocks; ++lba) engine.write_block(lba, 0);
  const std::uint64_t user_before = engine.metrics().user_blocks;
  const std::uint64_t total_before = engine.metrics().total_blocks();
  Rng rng(seed);
  for (std::uint64_t i = 0; i < 32 * c.logical_blocks; ++i) {
    engine.write_block(rng.below(c.logical_blocks), 0);
  }
  EXPECT_EQ(engine.metrics().padding_blocks, 0u);
  return static_cast<double>(engine.metrics().total_blocks() - total_before) /
         static_cast<double>(engine.metrics().user_blocks - user_before);
}

/// Mean-field FIFO cleaning WA at α physical segments per live segment:
/// victims hold a valid fraction u solving u = e^(−α(1−u)), so
/// WA = 1/(1−u) (Nagel et al.). Iterating from 0 finds the root below 1.
double fifo_wa(double alpha) {
  double u = 0.0;
  for (int i = 0; i < 500; ++i) u = std::exp(-alpha * (1.0 - u));
  return 1.0 / (1.0 - u);
}

TEST(GcTheoryTest, UniformWritesMatchMeanFieldWa) {
  // α spans the usable segments: all physical ones, down to those left
  // after GC's free reserve and one open segment per group (SepGC: 8 of
  // 640, over 512 live — α from 632/512 to 640/512).
  const LssConfig c = uniform_config();
  const double live =
      static_cast<double>(c.logical_blocks / c.segment_blocks());
  const double physical = c.total_segments();
  const double out_of_service =
      c.free_segment_reserve + 2.0 * placement::SepGcPolicy{}.group_count();
  const double alpha_min = (physical - out_of_service) / live;
  const double alpha_max = physical / live;
  ASSERT_DOUBLE_EQ(alpha_min, 632.0 / 512.0);
  ASSERT_DOUBLE_EQ(alpha_max, 640.0 / 512.0);

  // FIFO cleans the oldest segment, and a uniformly random victim cleans
  // at the mean valid fraction 1/α, so WA = α/(α−1).
  const double fifo = uniform_sepgc_wa("windowed:1", 7);
  EXPECT_GE(fifo, fifo_wa(alpha_max));
  EXPECT_LE(fifo, fifo_wa(alpha_min));
  const double random = uniform_sepgc_wa("random", 7);
  EXPECT_GE(random, alpha_max / (alpha_max - 1.0));
  EXPECT_LE(random, alpha_min / (alpha_min - 1.0));
  // Greedy and cost-benefit choose by valid count (cost-benefit also by
  // age); on uniform writes that cleans no worse than age order.
  EXPECT_LE(uniform_sepgc_wa("greedy", 7), fifo);
  EXPECT_LE(uniform_sepgc_wa("cost-benefit", 7), fifo);
}

// ---------------------------------------------------------------------------
// flush_all / gc_step interplay
// ---------------------------------------------------------------------------

/// Redirects every group-0 deadline into a shadow append hosted by group 1
/// (the §3.3 cross-group aggregation shape, without the full ADAPT policy).
class AggregateIntoGroupOne final : public AggregationHook {
 public:
  AggregationDecision on_chunk_deadline(GroupId group,
                                        const LssEngine&) override {
    if (group != 0) return {};
    return AggregationDecision{/*donor=*/0, /*host=*/1};
  }
};

/// The identity every drain/GC test below re-derives from public counters:
/// every appended block either reached the media or is still pending.
void expect_write_accounting_identity(const LssEngine& engine) {
  const LssMetrics& m = engine.metrics();
  std::uint64_t pending = 0;
  for (GroupId g = 0; g < engine.group_count(); ++g) {
    pending += engine.pending_blocks(g);
  }
  EXPECT_EQ(m.user_blocks + m.gc_blocks + m.shadow_blocks + m.padding_blocks,
            engine.config().chunk_blocks * engine.chunks_flushed() +
                m.rmw_blocks + pending);
}

TEST(LssEngineInterplayTest, FlushAllExpiresOutstandingShadows) {
  EngineFixture f;
  AggregateIntoGroupOne hook;
  f.engine.set_aggregation_hook(&hook);

  f.engine.write_block(1, 0);
  f.engine.advance_time(150);  // deadline fires -> shadow into group 1

  // Lazy append: the original stays pending in group 0 while its shadow
  // copy sits in group 1's already-persisted chunk.
  EXPECT_EQ(f.engine.pending_blocks(0), 1u);
  EXPECT_EQ(f.engine.live_shadow_count(), 1u);
  EXPECT_TRUE(f.engine.has_live_shadow(1));
  EXPECT_EQ(f.engine.metrics().shadow_blocks, 1u);
  EXPECT_EQ(f.engine.group_traffic(1).padded_flushes, 1u);
  EXPECT_EQ(f.engine.group_traffic(0).padding_blocks, 0u);
  expect_write_accounting_identity(f.engine);

  // The drain pads group 0's partial chunk; persisting the original must
  // expire its shadow copy.
  f.engine.flush_all();
  EXPECT_EQ(f.engine.pending_blocks(0), 0u);
  EXPECT_EQ(f.engine.live_shadow_count(), 0u);
  EXPECT_FALSE(f.engine.has_live_shadow(1));
  expect_write_accounting_identity(f.engine);
  f.engine.check_invariants();
}

TEST(LssEngineInterplayTest, ShadowExpiresWhenOriginalChunkFills) {
  EngineFixture f;
  AggregateIntoGroupOne hook;
  f.engine.set_aggregation_hook(&hook);

  f.engine.write_block(1, 0);
  f.engine.advance_time(150);
  ASSERT_EQ(f.engine.live_shadow_count(), 1u);

  // Three more writes complete the original's 4-block chunk: it persists
  // on its own, so the shadow must be gone before any flush_all.
  for (Lba lba = 2; lba <= 4; ++lba) f.engine.write_block(lba, 200);
  EXPECT_EQ(f.engine.pending_blocks(0), 0u);
  EXPECT_EQ(f.engine.live_shadow_count(), 0u);
  expect_write_accounting_identity(f.engine);
  f.engine.flush_all();  // nothing left: must be a no-op
  EXPECT_EQ(f.engine.metrics().padding_blocks, 3u);  // host pad only
  expect_write_accounting_identity(f.engine);
  f.engine.check_invariants();
}

TEST(LssEngineInterplayTest, GcStepWatermarkBoundaryIsExact) {
  EngineFixture f;
  Rng rng(149);
  for (int i = 0; i < 3000; ++i) {
    f.engine.write_block(rng.below(256), 0);
  }
  const std::uint32_t free_now = f.engine.free_segments();
  const std::uint64_t runs_before = f.engine.metrics().gc_runs;

  // Exactly at the watermark (free == watermark): no work, nothing moves.
  EXPECT_FALSE(f.engine.gc_step(0, free_now));
  EXPECT_EQ(f.engine.free_segments(), free_now);
  EXPECT_EQ(f.engine.metrics().gc_runs, runs_before);
  expect_write_accounting_identity(f.engine);

  // One segment below (free == watermark - 1): exactly one reclaim.
  EXPECT_TRUE(f.engine.gc_step(0, free_now + 1));
  EXPECT_EQ(f.engine.metrics().gc_runs, runs_before + 1);
  EXPECT_GE(f.engine.free_segments(), free_now);
  expect_write_accounting_identity(f.engine);
  f.engine.check_invariants();
}

TEST(LssEngineInterplayTest, GcThenDrainKeepsAccountingIdentity) {
  EngineFixture f;
  AggregateIntoGroupOne hook;
  f.engine.set_aggregation_hook(&hook);
  Rng rng(151);
  TimeUs now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += rng.below(120);
    f.engine.write_block(rng.below(256), now);
    if (i % 640 == 0 && i > 0) {  // warm-up first: GC needs a sealed victim
      // Proactive GC with a partial chunk (possibly shadow-hosting)
      // outstanding.
      f.engine.gc_step(now, f.engine.free_segments() + 1);
      expect_write_accounting_identity(f.engine);
    }
  }
  f.engine.flush_all();
  EXPECT_EQ(f.engine.live_shadow_count(), 0u);
  EXPECT_GT(f.engine.metrics().shadow_blocks, 0u);
  expect_write_accounting_identity(f.engine);
  f.engine.check_invariants();
}

// ---------------------------------------------------------------------------
// Randomized invariants (property-style, parameterized over seeds)
// ---------------------------------------------------------------------------

class EngineRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineRandomTest, InvariantsHoldUnderRandomWorkload) {
  ParityPolicy policy;
  auto victim = make_greedy();
  LssEngine engine(small_config(), policy, *victim, nullptr, GetParam());
  Rng rng(GetParam());
  TimeUs now = 0;
  for (int i = 0; i < 4000; ++i) {
    now += rng.below(200);
    const Lba lba = rng.below(250);
    const auto blocks = static_cast<std::uint32_t>(1 + rng.below(4));
    engine.write(
        lba,
        std::min<std::uint32_t>(blocks, static_cast<std::uint32_t>(256 - lba)),
        now);
    if (i % 512 == 0) engine.check_invariants();
  }
  engine.flush_all();
  engine.check_invariants();
  const LssMetrics& m = engine.metrics();
  EXPECT_GE(m.wa(), 1.0);
  EXPECT_EQ(m.user_blocks,
            m.groups[0].user_blocks + m.groups[1].user_blocks +
                m.groups[2].user_blocks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Geometry sweep: the engine must behave at any (chunk, segment) shape
// ---------------------------------------------------------------------------

struct Geometry {
  std::uint32_t chunk_blocks;
  std::uint32_t segment_chunks;
};

class EngineGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(EngineGeometryTest, InvariantsAndDataSafetyHold) {
  LssConfig config = small_config();
  config.chunk_blocks = GetParam().chunk_blocks;
  config.segment_chunks = GetParam().segment_chunks;
  config.logical_blocks = 2048;
  config.over_provision = 0.75;
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  LssEngine engine(config, policy, *victim, nullptr, 3);
  Rng rng(GetParam().chunk_blocks * 131 + GetParam().segment_chunks);
  std::vector<bool> written(2048, false);
  TimeUs now = 0;
  for (int i = 0; i < 12000; ++i) {
    now += rng.below(250);
    const Lba lba = rng.below(2048);
    engine.write_block(lba, now);
    written[lba] = true;
  }
  engine.flush_all();
  engine.check_invariants();
  for (Lba lba = 0; lba < 2048; ++lba) {
    ASSERT_EQ(engine.locate(lba) != kNowhere, written[lba]);
  }
  EXPECT_GE(engine.metrics().wa(), 1.0);
  // Padding can never exceed (chunk - 1) blocks per flush event.
  const auto& m = engine.metrics();
  const std::uint64_t flushes =
      m.groups[0].padded_flushes + m.groups[1].padded_flushes;
  EXPECT_LE(m.padding_blocks,
            flushes * (config.chunk_blocks - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineGeometryTest,
    ::testing::Values(Geometry{2, 2}, Geometry{2, 16}, Geometry{4, 8},
                      Geometry{8, 4}, Geometry{16, 2}, Geometry{16, 8}),
    [](const auto& info) {
      return "chunk" + std::to_string(info.param.chunk_blocks) + "x" +
             std::to_string(info.param.segment_chunks);
    });

// ---------------------------------------------------------------------------
// Victim policy integration
// ---------------------------------------------------------------------------

class EngineVictimTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineVictimTest, AllVictimPoliciesKeepDataSafe) {
  TwoGroupPolicy policy;
  auto victim = make_victim_policy(GetParam());
  LssEngine engine(small_config(), policy, *victim, nullptr, 7);
  Rng rng(97);
  std::vector<bool> written(256, false);
  for (int i = 0; i < 8000; ++i) {
    const Lba lba = rng.below(256);
    engine.write_block(lba, static_cast<TimeUs>(i) * 3);
    written[lba] = true;
  }
  engine.flush_all();
  engine.check_invariants();
  for (Lba lba = 0; lba < 256; ++lba) {
    ASSERT_EQ(engine.locate(lba) != kNowhere, written[lba]);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, EngineVictimTest,
                         ::testing::Values("greedy", "cost-benefit",
                                           "d-choice", "windowed", "random"));

// ---------------------------------------------------------------------------
// Array mirroring
// ---------------------------------------------------------------------------

TEST(LssEngineTest, ArrayMirrorsChunkTraffic) {
  for (const PartialWriteMode mode :
       {PartialWriteMode::kZeroPad, PartialWriteMode::kReadModifyWrite}) {
    SCOPED_TRACE(mode == PartialWriteMode::kZeroPad ? "zero-pad" : "rmw");
    TwoGroupPolicy policy;
    auto victim = make_greedy();
    LssConfig config = small_config();
    config.partial_write_mode = mode;
    array::SsdArrayConfig ac;
    ac.chunk_bytes = config.chunk_blocks * config.block_bytes;
    ac.num_streams = 2;
    array::SsdArray ssd_array(ac);
    LssEngine engine(config, policy, *victim, &ssd_array, 1);

    Rng rng(101);
    for (int i = 0; i < 3000; ++i) {
      engine.write_block(rng.below(256), static_cast<TimeUs>(i) * 40);
    }
    engine.flush_all();

    const LssMetrics& m = engine.metrics();
    const array::StreamStats& totals = ssd_array.totals();
    EXPECT_EQ(totals.chunks_written, engine.chunks_flushed());
    EXPECT_EQ(totals.padding_bytes,
              m.padding_blocks * config.block_bytes);
    EXPECT_EQ(totals.data_bytes,
              (m.user_blocks + m.gc_blocks + m.shadow_blocks) *
                  config.block_bytes);
    // One parity chunk per data write: full, padded or sub-chunk RMW.
    EXPECT_EQ(totals.parity_bytes,
              (engine.chunks_flushed() + m.rmw_flushes) * ac.chunk_bytes);
    if (mode == PartialWriteMode::kReadModifyWrite) {
      EXPECT_GT(m.rmw_flushes, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

TEST(LssEngineReadTest, PendingBlocksAreBufferHits) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.read(1, 1, 10);
  const LssMetrics& m = f.engine.metrics();
  EXPECT_EQ(m.read_blocks, 1u);
  EXPECT_EQ(m.read_buffer_hits, 1u);
  EXPECT_EQ(m.read_chunk_fetches, 0u);
}

TEST(LssEngineReadTest, FlushedBlocksFetchChunks) {
  EngineFixture f;
  for (Lba lba = 0; lba < 4; ++lba) f.engine.write_block(lba, 0);  // 1 chunk
  f.engine.read(0, 4, 10);
  const LssMetrics& m = f.engine.metrics();
  EXPECT_EQ(m.read_blocks, 4u);
  // All four blocks share one chunk: a single fetch.
  EXPECT_EQ(m.read_chunk_fetches, 1u);
  EXPECT_EQ(m.read_buffer_hits, 0u);
}

TEST(LssEngineReadTest, UnmappedReadsCounted) {
  EngineFixture f;
  f.engine.read(100, 2, 0);
  EXPECT_EQ(f.engine.metrics().read_unmapped, 2u);
  EXPECT_EQ(f.engine.metrics().read_chunk_fetches, 0u);
}

TEST(LssEngineReadTest, SpanningChunksFetchesEach) {
  EngineFixture f;
  for (Lba lba = 0; lba < 8; ++lba) f.engine.write_block(lba, 0);  // 2 chunks
  f.engine.read(0, 8, 10);
  EXPECT_EQ(f.engine.metrics().read_chunk_fetches, 2u);
}

TEST(LssEngineReadTest, ReadBeyondCapacityThrows) {
  EngineFixture f;
  EXPECT_THROW(f.engine.read(255, 2, 0), std::out_of_range);
  // A span whose end wraps past 2^64.
  EXPECT_THROW(f.engine.read(~Lba{0} - 3, 8, 0), std::out_of_range);
  EXPECT_EQ(f.engine.metrics().read_blocks, 0u);
}

TEST(LssEngineReadTest, ReadFiresExpiredDeadlines) {
  EngineFixture f;
  f.engine.write_block(1, 0);
  f.engine.read(1, 1, 500);  // past the 100 us window
  EXPECT_EQ(f.engine.group_traffic(0).padded_flushes, 1u);
  // The deadline fired before the read was served, so the block was
  // already on disk and the read fetched its chunk.
  EXPECT_EQ(f.engine.metrics().read_chunk_fetches, 1u);
  EXPECT_EQ(f.engine.metrics().read_buffer_hits, 0u);
}

// ---------------------------------------------------------------------------
// Read-modify-write mode
// ---------------------------------------------------------------------------

LssConfig rmw_config() {
  LssConfig c = small_config();
  c.partial_write_mode = PartialWriteMode::kReadModifyWrite;
  return c;
}

TEST(LssEngineRmwTest, DeadlinePersistsWithoutPadding) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  LssEngine engine(rmw_config(), policy, *victim, nullptr, 1);
  engine.write_block(1, 0);
  engine.advance_time(200);
  EXPECT_EQ(engine.pending_blocks(0), 0u);
  EXPECT_EQ(engine.metrics().padding_blocks, 0u);
  EXPECT_EQ(engine.metrics().rmw_flushes, 1u);
  EXPECT_GT(engine.metrics().rmw_read_blocks, 0u);
  engine.check_invariants();
}

TEST(LssEngineRmwTest, ChunkStaysOpenAcrossSubChunkFlushes) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  LssEngine engine(rmw_config(), policy, *victim, nullptr, 1);
  engine.write_block(1, 0);
  engine.advance_time(200);  // RMW flush of 1 block
  engine.write_block(2, 300);
  engine.write_block(3, 300);
  engine.write_block(4, 300);  // completes the 4-block chunk -> tail RMW
  EXPECT_EQ(engine.pending_blocks(0), 0u);
  EXPECT_EQ(engine.metrics().rmw_flushes, 2u);
  EXPECT_EQ(engine.group_traffic(0).full_flushes, 0u);
  engine.check_invariants();
}

TEST(LssEngineRmwTest, AlignedFullChunksAvoidRmw) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  LssEngine engine(rmw_config(), policy, *victim, nullptr, 1);
  for (Lba lba = 0; lba < 4; ++lba) engine.write_block(lba, 0);
  EXPECT_EQ(engine.metrics().rmw_flushes, 0u);
  EXPECT_EQ(engine.group_traffic(0).full_flushes, 1u);
}

TEST(LssEngineRmwTest, RandomWorkloadNoPaddingEver) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  LssEngine engine(rmw_config(), policy, *victim, nullptr, 1);
  Rng rng(137);
  TimeUs now = 0;
  for (int i = 0; i < 6000; ++i) {
    now += rng.below(300);
    engine.write_block(rng.below(256), now);
  }
  engine.flush_all();
  engine.check_invariants();
  EXPECT_EQ(engine.metrics().padding_blocks, 0u);
  EXPECT_GT(engine.metrics().rmw_flushes, 0u);
}

// ---------------------------------------------------------------------------
// Flash-backed array integration
// ---------------------------------------------------------------------------

array::FlashBacking backing_for(const LssConfig& c) {
  return array::FlashBacking{
      .page_bytes = c.block_bytes,
      .data_chunks =
          static_cast<std::uint64_t>(c.total_segments()) * c.segment_chunks,
      .device_over_provision = 0.3};
}

array::SsdArrayConfig flash_array_for(const LssConfig& c) {
  array::SsdArrayConfig ac;
  ac.chunk_bytes = c.chunk_blocks * c.block_bytes;
  ac.num_streams = 2;
  ac.flash = backing_for(c);
  return ac;
}

std::uint64_t device_pages(const array::SsdArray& arr, bool trimmed) {
  std::uint64_t pages = 0;
  for (std::uint32_t d = 0; d < arr.config().num_devices; ++d) {
    const flash::FtlStats& s = arr.device(d).stats();
    pages += trimmed ? s.trimmed_pages : s.host_pages;
  }
  return pages;
}

TEST(LssEngineFlashArrayTest, GeometryMismatchThrows) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  const LssConfig config = small_config();
  array::SsdArrayConfig ac = flash_array_for(config);
  ac.chunk_bytes *= 2;
  array::SsdArray wrong_chunk(ac);
  EXPECT_THROW(LssEngine(config, policy, *victim, &wrong_chunk, 1),
               std::invalid_argument);
  ac = flash_array_for(config);
  array::FlashBacking backing = backing_for(config);
  backing.page_bytes *= 2;
  ac.flash = backing;
  array::SsdArray wrong_page(ac);
  EXPECT_THROW(LssEngine(config, policy, *victim, &wrong_page, 1),
               std::invalid_argument);
  backing = backing_for(config);
  backing.data_chunks /= 2;
  ac.flash = backing;
  array::SsdArray too_small(ac);
  EXPECT_THROW(LssEngine(config, policy, *victim, &too_small, 1),
               std::invalid_argument);
}

TEST(LssEngineFlashArrayTest, FewerStreamsThanGroupsThrows) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  array::SsdArrayConfig ac = flash_array_for(small_config());
  ac.num_streams = 1;  // two groups would share a device stream
  array::SsdArray ssd_array(ac);
  EXPECT_THROW(LssEngine(small_config(), policy, *victim, &ssd_array, 1),
               std::invalid_argument);
}

TEST(LssEngineFlashArrayTest, ChunkWritesReachDevicesAndTrim) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  array::SsdArray ssd_array(flash_array_for(small_config()));
  LssEngine engine(small_config(), policy, *victim, &ssd_array, 1);

  Rng rng(139);
  for (int i = 0; i < 6000; ++i) {
    engine.write_block(rng.below(256), static_cast<TimeUs>(i) * 20);
  }
  engine.flush_all();
  engine.check_invariants();
  const array::StreamStats& totals = ssd_array.totals();
  EXPECT_GT(totals.chunks_written, 0u);
  EXPECT_EQ(totals.parity_bytes,
            totals.chunks_written * ssd_array.config().chunk_bytes);
  // GC reclaimed segments -> TRIMs flowed to the devices.
  EXPECT_GT(device_pages(ssd_array, /*trimmed=*/true), 0u);
  EXPECT_GE(ssd_array.device_internal_wa(), 1.0);
}

TEST(LssEngineFlashArrayTest, DataChunkWritesMatchEngineFlushes) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  const LssConfig config = small_config();
  array::SsdArray ssd_array(flash_array_for(config));
  LssEngine engine(config, policy, *victim, &ssd_array, 1);
  Rng rng(141);
  for (int i = 0; i < 2000; ++i) {
    engine.write_block(rng.below(256), static_cast<TimeUs>(i) * 20);
  }
  engine.flush_all();
  EXPECT_EQ(ssd_array.totals().chunks_written, engine.chunks_flushed());
  // Each chunk lands once as data and once as its stripe's parity.
  EXPECT_EQ(device_pages(ssd_array, /*trimmed=*/false),
            2 * engine.chunks_flushed() * config.chunk_blocks);
}

TEST(LssEngineTest, ArrayStreamMismatchThrows) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  array::SsdArrayConfig ac;
  ac.chunk_bytes = small_config().chunk_blocks * small_config().block_bytes;
  ac.num_streams = 1;  // fewer streams than groups
  array::SsdArray ssd_array(ac);
  EXPECT_THROW(
      LssEngine(small_config(), policy, *victim, &ssd_array, 1),
      std::invalid_argument);
}

TEST(LssEngineTest, ArrayChunkSizeMismatchThrows) {
  TwoGroupPolicy policy;
  auto victim = make_greedy();
  array::SsdArrayConfig ac;
  ac.chunk_bytes = 1234;
  ac.num_streams = 4;
  array::SsdArray ssd_array(ac);
  EXPECT_THROW(
      LssEngine(small_config(), policy, *victim, &ssd_array, 1),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-block arrays start as untouched zero pages
// ---------------------------------------------------------------------------

// The block map and the slot-LBA arena store complements, so the values
// that complement to all ones are their edge cases: the first write of a
// fresh engine lands in segment 0 slot 0 (packed location 0), and LBA 0 is
// the arena's all-ones word. LBA 0 and the last LBA must map, survive GC's
// sweep (which reads the victim's slot LBAs) and read back where GC moved
// them.
TEST(LssEngineZeroPageTest, EdgeLbasRoundTripThroughGc) {
  EngineFixture f;
  const Lba last = f.engine.config().logical_blocks - 1;
  f.engine.write_block(0, 0);
  f.engine.write_block(last, 0);
  const BlockLocation first_home = f.engine.locate(0);
  const BlockLocation last_home = f.engine.locate(last);
  ASSERT_EQ(first_home, (BlockLocation{0, 0}));
  EXPECT_EQ(f.engine.slot_lba(first_home), 0u);
  EXPECT_EQ(f.engine.slot_lba(last_home), last);
  // Churn only the LBAs between them until GC has migrated both.
  Rng rng(11);
  TimeUs now = 0;
  while (f.engine.locate(0) == first_home ||
         f.engine.locate(last) == last_home) {
    ASSERT_LT(now, 100000u) << "GC never migrated the edge LBAs";
    f.engine.write_block(1 + rng.below(last - 1), ++now);
  }
  EXPECT_EQ(f.engine.slot_lba(f.engine.locate(0)), 0u);
  EXPECT_EQ(f.engine.slot_lba(f.engine.locate(last)), last);
  // TwoGroupPolicy's GC group.
  EXPECT_EQ(f.engine.segments()[f.engine.locate(0).segment].group, 1u);
  f.engine.check_invariants();
}

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

// Regression: building an engine used to fill every entry of its per-block
// arrays with an all-ones sentinel. Over 2^22 logical blocks under ADAPT
// that is the block map (32 MiB), SepBIT's last-write times (32 MiB) and
// the slot-LBA arena (40 MiB): about 26.6K 4-KiB pages, each faulted in
// before the first op. The arrays now start as zero pages the build leaves
// alone.
TEST(LssEngineZeroPageTest, BuildWritesNoPerBlockPage) {
  LssConfig config;
  config.logical_blocks = std::uint64_t{1} << 22;
  const std::uint64_t per_block_bytes =
      config.logical_blocks * (sizeof(std::uint64_t) + sizeof(VTime)) +
      config.physical_blocks() * sizeof(Lba);
  const std::uint64_t per_block_pages =
      per_block_bytes / static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  core::AdaptConfig ac;
  ac.logical_blocks = config.logical_blocks;
  ac.segment_blocks = config.segment_blocks();
  ac.chunk_blocks = config.chunk_blocks;

  const std::uint64_t before = minor_faults();
  core::AdaptPolicy policy(ac);
  const std::unique_ptr<VictimPolicy> victim = make_greedy();
  LssEngine engine(config, policy, *victim, nullptr, /*seed=*/1);
  const std::uint64_t faults = minor_faults() - before;
  EXPECT_LT(faults, per_block_pages / 8);

  // The untouched arrays read as empty at both ends of their range.
  const Lba last = config.logical_blocks - 1;
  EXPECT_EQ(engine.locate(0), kNowhere);
  EXPECT_EQ(engine.locate(last), kNowhere);
  engine.write_block(last, 0);
  EXPECT_NE(engine.locate(last), kNowhere);
  EXPECT_EQ(engine.slot_lba(engine.locate(last)), last);
}

}  // namespace
}  // namespace adapt::lss
