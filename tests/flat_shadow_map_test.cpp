// Tests for the flat shadow table and the BlockMap bounds/self-audit
// contract.
//
// The flat table replaced std::unordered_map on the per-write hot path, so
// its primary obligation is behavioural equivalence: a randomized
// differential test drives both containers through the same churn and
// compares every observable. The BlockMap tests pin the bounds contract
// (tolerant locate, asserted accessors) and the counters-tier audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lss/block_map.h"
#include "lss/flat_shadow_map.h"
#include "lss/segment.h"

namespace adapt::lss {
namespace {

BlockLocation loc_of(std::uint32_t seg, std::uint32_t slot) {
  return BlockLocation{seg, slot};
}

/// Drives the flat table and std::unordered_map through an identical
/// random mix of insert/overwrite/erase/lookup and checks every
/// observable after each mutation batch.
TEST(FlatShadowMapTest, DifferentialAgainstUnorderedMap) {
  Rng rng(0x5eedu);
  FlatShadowMap flat;
  std::unordered_map<Lba, BlockLocation> reference;
  const Lba key_space = 512;  // small space => frequent overwrite/erase hits
  for (int step = 0; step < 20000; ++step) {
    const Lba lba = rng.below(key_space);
    switch (rng.below(4)) {
      case 0:
      case 1: {  // insert or overwrite
        const BlockLocation loc =
            loc_of(static_cast<std::uint32_t>(rng.below(64)),
                   static_cast<std::uint32_t>(rng.below(256)));
        flat.insert_or_assign(lba, loc);
        reference[lba] = loc;
        break;
      }
      case 2: {  // erase (often a miss)
        EXPECT_EQ(flat.erase(lba), reference.erase(lba) > 0);
        break;
      }
      default: {  // lookup
        const auto it = reference.find(lba);
        EXPECT_EQ(flat.contains(lba), it != reference.end());
        EXPECT_EQ(flat.find(lba),
                  it != reference.end() ? it->second : kNowhere);
        break;
      }
    }
    EXPECT_EQ(flat.size(), reference.size());
  }
  // Full-content comparison via iteration: every pair the flat table
  // yields must match the reference, and the counts already agree.
  std::size_t seen = 0;
  for (const auto [lba, loc] : flat) {
    const auto it = reference.find(lba);
    ASSERT_NE(it, reference.end()) << "flat table yielded unknown key";
    EXPECT_EQ(loc, it->second);
    ++seen;
  }
  EXPECT_EQ(seen, reference.size());
  EXPECT_NO_THROW(flat.check_counters());
}

/// Growth must preserve contents across the rehash boundaries (16 -> 32 ->
/// ... slots at 7/8 load), and shrinking to empty must behave like a fresh
/// table.
TEST(FlatShadowMapTest, GrowthAndDrainPreserveContents) {
  FlatShadowMap flat;
  EXPECT_TRUE(flat.empty());
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    flat.insert_or_assign(static_cast<Lba>(i * 7919),
                          loc_of(static_cast<std::uint32_t>(i), 0));
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(i + 1));
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(flat.find(static_cast<Lba>(i * 7919)).segment,
              static_cast<std::uint32_t>(i));
  }
  EXPECT_NO_THROW(flat.check_counters());
  // Erase in an interleaved order to exercise backshift runs.
  for (int i = 0; i < n; i += 2) ASSERT_TRUE(flat.erase(i * 7919));
  for (int i = n - 1; i >= 0; i -= 2) ASSERT_TRUE(flat.erase(i * 7919));
  EXPECT_TRUE(flat.empty());
  EXPECT_FALSE(flat.erase(0));
  EXPECT_EQ(flat.find(7919), kNowhere);
  EXPECT_NO_THROW(flat.check_counters());
}

/// The layout (and hence iteration order) is a pure function of the
/// insert/erase sequence — two tables fed the same ops agree slot for
/// slot, which is what makes fixed-seed engine runs bit-identical.
TEST(FlatShadowMapTest, IterationOrderIsReproducible) {
  const auto drive = [](FlatShadowMap& m) {
    Rng rng(99);
    for (int i = 0; i < 3000; ++i) {
      const Lba lba = rng.below(400);
      if (rng.below(3) == 0) {
        m.erase(lba);
      } else {
        m.insert_or_assign(lba, loc_of(static_cast<std::uint32_t>(i), 1));
      }
    }
  };
  FlatShadowMap a;
  FlatShadowMap b;
  drive(a);
  drive(b);
  const std::vector<std::pair<Lba, BlockLocation>> ta(a.begin(), a.end());
  const std::vector<std::pair<Lba, BlockLocation>> tb(b.begin(), b.end());
  EXPECT_EQ(ta, tb);
}

TEST(FlatShadowMapTest, RejectsReservedKey) {
  FlatShadowMap flat;
  EXPECT_THROW(flat.insert_or_assign(kInvalidLba, kNowhere),
               std::invalid_argument);
}

/// locate() is the tolerant query: out-of-range probes answer kNowhere
/// instead of reading out of bounds (replay layers probe speculative
/// addresses).
TEST(BlockMapBoundsTest, LocateToleratesOutOfRange) {
  BlockMap map(64);
  EXPECT_EQ(map.locate(63), kNowhere);
  EXPECT_EQ(map.locate(64), kNowhere);
  EXPECT_EQ(map.locate(~static_cast<Lba>(0) - 1), kNowhere);
}

/// The primary map stores each location's complement: segment 0 slot 0
/// packs to 0, and it must read back as mapped, not as the empty value.
TEST(BlockMapTest, SegmentZeroSlotZeroIsMapped) {
  BlockMap map(64);
  EXPECT_FALSE(map.is_mapped(0));
  map.set_primary(0, loc_of(0, 0));
  EXPECT_TRUE(map.is_mapped(0));
  EXPECT_TRUE(map.primary_is(0, loc_of(0, 0)));
  EXPECT_EQ(map.locate(0), loc_of(0, 0));
  map.clear_primary(0);
  EXPECT_FALSE(map.is_mapped(0));
  EXPECT_EQ(map.locate(0), kNowhere);
}

#ifndef NDEBUG
/// The unchecked accessors assert their precondition in audit builds;
/// release builds document it instead of paying a per-op range check.
TEST(BlockMapBoundsTest, UncheckedAccessorsAssertInAuditBuilds) {
  BlockMap map(64);
  EXPECT_DEATH((void)map.is_mapped(64), "lba < primary_");
  EXPECT_DEATH((void)map.primary_is(64, kNowhere), "lba < primary_");
  EXPECT_DEATH(map.set_primary(64, loc_of(0, 0)), "lba < primary_");
  EXPECT_DEATH(map.clear_primary(64), "lba < primary_");
}
#endif

/// Counters-tier audit: a shadow entry whose primary is gone is internal
/// corruption the cheap tier must already catch.
TEST(BlockMapAuditTest, ShadowWithoutPrimaryFailsCounters) {
  BlockMap map(64);
  map.set_primary(7, loc_of(1, 3));
  map.set_shadow(7, loc_of(2, 5));
  EXPECT_NO_THROW(map.check_counters());
  map.clear_primary(7);
  EXPECT_THROW(map.check_counters(), std::logic_error);
}

}  // namespace
}  // namespace adapt::lss
