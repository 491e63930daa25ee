// Unit tests for the baseline placement policies (SepGC, DAC, WARCIP,
// MiDA, SepBIT) and their factory.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "placement/dac.h"
#include "placement/factory.h"
#include "placement/mida.h"
#include "placement/sep_gc.h"
#include "placement/sepbit.h"
#include "placement/warcip.h"

namespace adapt::placement {
namespace {

constexpr std::uint64_t kBlocks = 1024;
constexpr std::uint32_t kSegBlocks = 64;

// ---------------------------------------------------------------------------
// SepGC
// ---------------------------------------------------------------------------

TEST(SepGcTest, RoutesUserAndGcSeparately) {
  SepGcPolicy p;
  EXPECT_EQ(p.group_count(), 2u);
  EXPECT_EQ(p.place_user_write(1, 0), SepGcPolicy::kUserGroup);
  EXPECT_EQ(p.place_gc_rewrite(1, 0, 10), SepGcPolicy::kGcGroup);
  EXPECT_TRUE(p.is_user_group(0));
  EXPECT_FALSE(p.is_user_group(1));
}

// ---------------------------------------------------------------------------
// DAC
// ---------------------------------------------------------------------------

TEST(DacTest, FirstWriteIsColdest) {
  DacPolicy p(kBlocks);
  EXPECT_EQ(p.place_user_write(7, 0), 0u);
  // Region 0 (stored as its complement) is not the never-written value:
  // GC keeps the block there, and its next update promotes it.
  EXPECT_EQ(p.place_gc_rewrite(7, 0, 1), 0u);
  EXPECT_EQ(p.place_user_write(7, 2), 1u);
}

TEST(DacTest, UpdatesPromote) {
  DacPolicy p(kBlocks);
  p.place_user_write(7, 0);
  EXPECT_EQ(p.place_user_write(7, 1), 1u);
  EXPECT_EQ(p.place_user_write(7, 2), 2u);
}

TEST(DacTest, PromotionSaturatesAtHottest) {
  DacPolicy p(kBlocks);
  for (int i = 0; i < 10; ++i) p.place_user_write(7, i);
  EXPECT_EQ(p.place_user_write(7, 11), 4u);
}

TEST(DacTest, GcDemotes) {
  DacPolicy p(kBlocks);
  for (int i = 0; i < 4; ++i) p.place_user_write(7, i);  // level 3
  EXPECT_EQ(p.place_gc_rewrite(7, 3, 10), 2u);
  EXPECT_EQ(p.place_gc_rewrite(7, 2, 11), 1u);
}

TEST(DacTest, DemotionSaturatesAtColdest) {
  DacPolicy p(kBlocks);
  p.place_user_write(7, 0);
  EXPECT_EQ(p.place_gc_rewrite(7, 0, 1), 0u);
  EXPECT_EQ(p.place_gc_rewrite(7, 0, 2), 0u);
}

TEST(DacTest, GcOfNeverWrittenBlockIsCold) {
  DacPolicy p(kBlocks);
  EXPECT_EQ(p.place_gc_rewrite(3, 0, 1), 0u);
}

TEST(DacTest, AllGroupsAreUserGroups) {
  DacPolicy p(kBlocks);
  for (GroupId g = 0; g < p.group_count(); ++g) {
    EXPECT_TRUE(p.is_user_group(g));
  }
}

// ---------------------------------------------------------------------------
// WARCIP
// ---------------------------------------------------------------------------

TEST(WarcipTest, NewBlocksJoinColdestCluster) {
  WarcipPolicy p(kBlocks, kSegBlocks);
  EXPECT_EQ(p.place_user_write(1, 0), 4u);
}

TEST(WarcipTest, ShortIntervalsJoinHotCluster) {
  WarcipPolicy p(kBlocks, kSegBlocks);
  p.place_user_write(1, 0);
  // Rewrite after a tiny interval: nearest centroid is the hottest one.
  // The write at vtime 0 (stored as its complement) is history, not the
  // never-written value, so the interval is 1.
  EXPECT_EQ(p.place_user_write(1, 1), 0u);
}

TEST(WarcipTest, LongIntervalsJoinColdClusters) {
  WarcipPolicy p(kBlocks, kSegBlocks);
  p.place_user_write(1, 0);
  const GroupId g = p.place_user_write(1, 1u << 22);
  EXPECT_GE(g, 3u);
}

TEST(WarcipTest, GcGoesToRewriteGroup) {
  WarcipPolicy p(kBlocks, kSegBlocks);
  EXPECT_EQ(p.place_gc_rewrite(1, 2, 5), 5u);
  EXPECT_FALSE(p.is_user_group(5));
}

TEST(WarcipTest, CentroidsAdapt) {
  WarcipPolicy p(kBlocks, kSegBlocks);
  // Feed a steady diet of medium intervals; the chosen cluster for that
  // interval must stabilize (no thrash across the whole range).
  GroupId last = 0;
  for (int i = 0; i < 200; ++i) {
    p.place_user_write(2, static_cast<VTime>(i) * 1000);
    last = p.place_user_write(2, static_cast<VTime>(i) * 1000 + 500);
  }
  const GroupId repeat = p.place_user_write(2, 200 * 1000 + 500);
  EXPECT_EQ(repeat, last);
}

// ---------------------------------------------------------------------------
// MiDA
// ---------------------------------------------------------------------------

TEST(MidaTest, FreshBlocksStartInGroupZero) {
  MidaPolicy p(kBlocks);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_EQ(p.place_user_write(lba, 0), 0u) << "lba " << lba;
  }
}

TEST(MidaTest, MigrationsRaiseGroup) {
  MidaPolicy p(kBlocks);
  EXPECT_EQ(p.place_gc_rewrite(1, 0, 1), 1u);
  EXPECT_EQ(p.place_gc_rewrite(1, 1, 2), 2u);
  EXPECT_EQ(p.place_gc_rewrite(1, 2, 3), 3u);
}

TEST(MidaTest, MigrationCountSaturatesAtLastGroup) {
  MidaPolicy p(kBlocks);
  for (int i = 0; i < 20; ++i) p.place_gc_rewrite(1, 0, i);
  EXPECT_EQ(p.place_gc_rewrite(1, 7, 21), 7u);
}

TEST(MidaTest, UserWriteUsesThenDecaysCount) {
  MidaPolicy p(kBlocks);
  p.place_gc_rewrite(1, 0, 1);
  p.place_gc_rewrite(1, 1, 2);  // count = 2
  EXPECT_EQ(p.place_user_write(1, 3), 2u);  // placed by count, then decays
  EXPECT_EQ(p.place_user_write(1, 4), 1u);
  EXPECT_EQ(p.place_user_write(1, 5), 0u);
  EXPECT_EQ(p.place_user_write(1, 6), 0u);
}

TEST(MidaTest, EveryGroupAcceptsUserWrites) {
  MidaPolicy p(kBlocks);
  for (GroupId g = 0; g < p.group_count(); ++g) {
    EXPECT_TRUE(p.is_user_group(g));
  }
}

// ---------------------------------------------------------------------------
// SepBIT
// ---------------------------------------------------------------------------

TEST(SepBitTest, FirstWriteIsCold) {
  SepBitPolicy p(kBlocks, kSegBlocks);
  EXPECT_EQ(p.place_user_write(1, 0), SepBitPolicy::kColdUser);
}

TEST(SepBitTest, ShortLifespanIsHot) {
  SepBitPolicy p(kBlocks, kSegBlocks);
  EXPECT_EQ(p.last_write(1), SepBitPolicy::kNeverWritten);
  p.place_user_write(1, 0);
  // A write at vtime 0 (stored as its complement) is history, not the
  // never-written value. Initial threshold = 4 * segment = 256; lifespan
  // 1 < 256 -> hot.
  EXPECT_EQ(p.last_write(1), 0u);
  EXPECT_EQ(p.place_user_write(1, 1), SepBitPolicy::kHotUser);
  EXPECT_EQ(p.last_write(1), 1u);
}

TEST(SepBitTest, LongLifespanIsCold) {
  SepBitPolicy p(kBlocks, kSegBlocks);
  p.place_user_write(1, 0);
  EXPECT_EQ(p.place_user_write(1, 100000), SepBitPolicy::kColdUser);
}

TEST(SepBitTest, GcAgeBuckets) {
  SepBitPolicy p(kBlocks, kSegBlocks);
  const double l = p.threshold();  // 256
  p.place_user_write(1, 0);
  EXPECT_EQ(p.place_gc_rewrite(1, 0, static_cast<VTime>(l)), 2u);
  EXPECT_EQ(p.place_gc_rewrite(1, 2, static_cast<VTime>(5 * l)), 3u);
  EXPECT_EQ(p.place_gc_rewrite(1, 3, static_cast<VTime>(20 * l)), 4u);
  EXPECT_EQ(p.place_gc_rewrite(1, 4, static_cast<VTime>(100 * l)), 5u);
}

TEST(SepBitTest, ThresholdTracksHotSegmentLifespan) {
  SepBitPolicy p(kBlocks, kSegBlocks);
  const double before = p.threshold();
  // Class-1 segments reclaimed with long lifespans raise the threshold.
  for (int i = 0; i < 20; ++i) {
    p.note_segment_reclaimed(SepBitPolicy::kHotUser, 0, 10000);
  }
  EXPECT_GT(p.threshold(), before);
  // Reclamations of other groups must not touch it.
  const double mid = p.threshold();
  p.note_segment_reclaimed(3, 0, 1);
  EXPECT_DOUBLE_EQ(p.threshold(), mid);
}

TEST(SepBitTest, UserGroupsAreExactlyTwo) {
  SepBitPolicy p(kBlocks, kSegBlocks);
  EXPECT_TRUE(p.is_user_group(0));
  EXPECT_TRUE(p.is_user_group(1));
  for (GroupId g = 2; g < p.group_count(); ++g) {
    EXPECT_FALSE(p.is_user_group(g));
  }
}

TEST(SepBitTest, MemoryScalesWithCapacity) {
  SepBitPolicy small(1024, kSegBlocks);
  SepBitPolicy large(4096, kSegBlocks);
  EXPECT_GT(large.memory_usage_bytes(), small.memory_usage_bytes());
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(FactoryTest, BuildsEveryBaseline) {
  const PolicyConfig config{.logical_blocks = kBlocks,
                            .segment_blocks = kSegBlocks};
  for (const auto name : baseline_names()) {
    const auto policy = make_baseline_policy(name, config);
    EXPECT_EQ(policy->name(), name);
    EXPECT_GE(policy->group_count(), 2u);
  }
}

TEST(FactoryTest, GroupCountsMatchPaperConfigurations) {
  const PolicyConfig config{.logical_blocks = kBlocks,
                            .segment_blocks = kSegBlocks};
  EXPECT_EQ(make_baseline_policy("sepgc", config)->group_count(), 2u);
  EXPECT_EQ(make_baseline_policy("dac", config)->group_count(), 5u);
  EXPECT_EQ(make_baseline_policy("warcip", config)->group_count(), 6u);
  EXPECT_EQ(make_baseline_policy("mida", config)->group_count(), 8u);
  EXPECT_EQ(make_baseline_policy("sepbit", config)->group_count(), 6u);
}

TEST(FactoryTest, UnknownNameThrows) {
  const PolicyConfig config{.logical_blocks = kBlocks,
                            .segment_blocks = kSegBlocks};
  EXPECT_THROW(make_baseline_policy("nope", config), std::invalid_argument);
}

TEST(FactoryTest, PoliciesStayWithinGroupBounds) {
  const PolicyConfig config{.logical_blocks = kBlocks,
                            .segment_blocks = kSegBlocks};
  Rng rng(3);
  for (const auto name : baseline_names()) {
    const auto policy = make_baseline_policy(name, config);
    for (int i = 0; i < 2000; ++i) {
      const Lba lba = rng.below(kBlocks);
      const GroupId ug =
          policy->place_user_write(lba, static_cast<VTime>(i));
      ASSERT_LT(ug, policy->group_count()) << name;
      if (i % 3 == 0) {
        const GroupId gg = policy->place_gc_rewrite(
            lba, static_cast<GroupId>(rng.below(policy->group_count())),
            static_cast<VTime>(i));
        ASSERT_LT(gg, policy->group_count()) << name;
      }
    }
  }
}

}  // namespace
}  // namespace adapt::placement
