// Unit tests for the victim-selection policies against hand-crafted
// segment pools, driven through the lifecycle notification interface
// (bind_pool + on_seal / on_valid_delta / on_free).
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "lss/victim_policy.h"

namespace adapt::lss {
namespace {

// Builds a sealed segment with the given valid count and seal time.
Segment sealed_segment(std::uint32_t blocks, std::uint32_t valid,
                       VTime seal_vtime) {
  Segment s;
  s.reset(blocks);
  s.free = false;
  s.sealed = true;
  s.write_ptr = blocks;
  s.valid_count = valid;
  s.seal_vtime = seal_vtime;
  return s;
}

struct Pool {
  std::uint32_t blocks;
  std::vector<Segment> segments;

  explicit Pool(std::uint32_t blocks = 8) : blocks(blocks) {}

  void add(std::uint32_t valid, VTime seal_vtime) {
    segments.push_back(sealed_segment(blocks, valid, seal_vtime));
  }

  /// Binds `policy` to this pool and replays the seals in add() order
  /// (which the tests keep consistent with seal_vtime order, as the
  /// engine would).
  void prime(VictimPolicy& policy) const {
    policy.bind_pool(static_cast<std::uint32_t>(segments.size()), blocks);
    for (SegmentId id = 0; id < segments.size(); ++id) {
      policy.on_seal(id, segments[id].valid_count,
                     segments[id].seal_vtime);
    }
  }

  /// Applies an invalidation to the pool and notifies the policy.
  void invalidate(VictimPolicy& policy, SegmentId id, std::uint32_t by = 1) {
    Segment& seg = segments.at(id);
    const std::uint32_t old_valid = seg.valid_count;
    seg.valid_count -= by;
    policy.on_valid_delta(id, old_valid, seg.valid_count);
  }
};

TEST(GreedyTest, PicksLeastValid) {
  Pool pool;
  pool.add(5, 0);
  pool.add(2, 0);
  pool.add(7, 0);
  Rng rng(1);
  auto policy = make_greedy();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
}

TEST(GreedyTest, EmptyCandidatesReturnsInvalid) {
  Pool pool;
  Rng rng(1);
  auto policy = make_greedy();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), kInvalidSegment);
}

TEST(GreedyTest, TiesBreakTowardLowestId) {
  Pool pool;
  pool.add(4, 0);
  pool.add(2, 0);
  pool.add(2, 0);
  pool.add(2, 0);
  Rng rng(1);
  auto policy = make_greedy();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), 1u);
}

TEST(GreedyTest, TracksValidDeltas) {
  Pool pool;
  pool.add(5, 0);
  pool.add(3, 0);
  Rng rng(1);
  auto policy = make_greedy();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), 1u);
  // Drain segment 0 below segment 1: the index must follow.
  pool.invalidate(*policy, 0, 3);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), 0u);
}

TEST(GreedyTest, FreedSegmentLeavesTheIndex) {
  Pool pool;
  pool.add(1, 0);
  pool.add(6, 0);
  Rng rng(1);
  auto policy = make_greedy();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), 0u);
  policy->on_free(0);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), 1u);
  policy->on_free(1);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), kInvalidSegment);
}

TEST(GreedyTest, ResealAfterFreeReenters) {
  Pool pool;
  pool.add(4, 0);
  pool.add(2, 1);
  Rng rng(1);
  auto policy = make_greedy();
  pool.prime(*policy);
  policy->on_free(1);
  // Segment 1 is reused and sealed again, now fuller than segment 0.
  pool.segments[1].valid_count = 8;
  pool.segments[1].seal_vtime = 9;
  policy->on_seal(1, 8, 9);
  EXPECT_EQ(policy->select(pool.segments, 10, rng), 0u);
}

TEST(CostBenefitTest, PrefersOlderAmongEquallyValid) {
  Pool pool;
  pool.add(4, /*seal_vtime=*/90);  // young
  pool.add(4, /*seal_vtime=*/10);  // old
  Rng rng(1);
  auto policy = make_cost_benefit();
  // Seals replayed oldest-first, as the engine would deliver them.
  policy->bind_pool(2, pool.blocks);
  policy->on_seal(1, 4, 10);
  policy->on_seal(0, 4, 90);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
}

TEST(CostBenefitTest, EmptySegmentBeatsOldFullOne) {
  Pool pool;
  pool.add(8, 0);    // fully valid, ancient
  pool.add(0, 99);   // empty, young
  Rng rng(1);
  auto policy = make_cost_benefit();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
}

TEST(CostBenefitTest, TradesAgeAgainstUtilization) {
  Pool pool;
  pool.add(6, 0);    // 75% valid but very old: (1-.75)*101/1.75 = 14.4
  pool.add(2, 99);   // 25% valid but brand new: (1-.25)*2/1.25 = 1.2
  Rng rng(1);
  auto policy = make_cost_benefit();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 0u);
}

TEST(CostBenefitTest, ValidDeltaMovesBuckets) {
  Pool pool;
  pool.add(7, 0);   // old but nearly full
  pool.add(2, 50);  // newer, mostly dead
  Rng rng(1);
  auto policy = make_cost_benefit();
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
  // Invalidate segment 0 down to empty: (1-0)*101/1 beats segment 1.
  pool.invalidate(*policy, 0, 7);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 0u);
}

// Between equal scores the fewest valid blocks win, then the oldest seal,
// then the lowest id: a first-maximum scan in id order picks 0 in both
// pools below.
TEST(CostBenefitTest, EqualScoresGoToFewestValidThenOldest) {
  Rng rng(1);
  {
    // Across valid counts: (1-.25)*10/1.25 == (1-0)*6/1 == 6.0 at now=100.
    Pool pool;
    pool.add(2, 91);
    pool.add(0, 95);
    auto policy = make_cost_benefit();
    pool.prime(*policy);
    EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
  }
  {
    // Within one valid count: every full segment scores 0.
    Pool pool;
    pool.add(8, 50);
    pool.add(8, 10);
    pool.add(8, 10);
    auto policy = make_cost_benefit();
    policy->bind_pool(3, pool.blocks);
    policy->on_seal(1, 8, 10);
    policy->on_seal(2, 8, 10);
    policy->on_seal(0, 8, 50);
    EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
  }
}

TEST(DChoiceTest, WithLargeDMatchesGreedy) {
  Pool pool;
  for (std::uint32_t v = 8; v > 0; --v) pool.add(v, 0);
  Rng rng(5);
  auto policy = make_d_choice(64);
  pool.prime(*policy);
  // Sampling 64 times from 8 candidates virtually guarantees seeing the min.
  EXPECT_EQ(policy->select(pool.segments, 0, rng), 7u);
}

TEST(DChoiceTest, ReturnsSomeCandidate) {
  Pool pool;
  pool.add(1, 0);
  pool.add(2, 0);
  Rng rng(7);
  auto policy = make_d_choice(1);
  pool.prime(*policy);
  for (int i = 0; i < 20; ++i) {
    const SegmentId v = policy->select(pool.segments, 0, rng);
    EXPECT_LT(v, 2u);
  }
}

TEST(WindowedGreedyTest, RestrictsToOldestWindow) {
  Pool pool;
  pool.add(8, 0);   // oldest, fully valid
  pool.add(7, 1);   // second oldest
  pool.add(0, 50);  // newest, empty — outside window of 2
  Rng rng(1);
  auto policy = make_windowed_greedy(2);
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
}

TEST(WindowedGreedyTest, WindowLargerThanPoolIsGreedy) {
  Pool pool;
  pool.add(5, 0);
  pool.add(1, 99);
  Rng rng(1);
  auto policy = make_windowed_greedy(100);
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 1u);
}

TEST(WindowedGreedyTest, WindowSlidesWhenOldestIsFreed) {
  Pool pool;
  pool.add(8, 0);
  pool.add(7, 1);
  pool.add(0, 50);
  Rng rng(1);
  auto policy = make_windowed_greedy(2);
  pool.prime(*policy);
  policy->on_free(0);
  // Window of 2 now covers segments 1 and 2.
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 2u);
}

TEST(RandomTest, UniformOverCandidates) {
  Pool pool;
  pool.add(1, 0);
  pool.add(2, 0);
  pool.add(3, 0);
  Rng rng(11);
  auto policy = make_random();
  pool.prime(*policy);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    ++counts[policy->select(pool.segments, 0, rng)];
  }
  for (int c : counts) EXPECT_GT(c, 700);
}

constexpr const char* kVictimNames[] = {"greedy", "cost-benefit", "d-choice",
                                       "windowed", "random"};

TEST(VictimIndexTest, DoubleSealThrows) {
  for (const char* name : kVictimNames) {
    SCOPED_TRACE(name);
    Pool pool;
    pool.add(3, 0);
    auto policy = make_victim_policy(name);
    pool.prime(*policy);
    EXPECT_THROW(policy->on_seal(0, 3, 0), std::logic_error);
  }
}

TEST(VictimIndexTest, FreeOfAbsentSegmentThrows) {
  for (const char* name : kVictimNames) {
    SCOPED_TRACE(name);
    Pool pool;
    pool.add(3, 0);
    auto policy = make_victim_policy(name);
    pool.prime(*policy);
    policy->on_free(0);
    EXPECT_THROW(policy->on_free(0), std::logic_error);
  }
}

TEST(VictimFactoryTest, KnownNames) {
  EXPECT_EQ(make_victim_policy("greedy")->name(), "greedy");
  EXPECT_EQ(make_victim_policy("cost-benefit")->name(), "cost-benefit");
  EXPECT_EQ(make_victim_policy("d-choice")->name(), "d-choice");
  EXPECT_EQ(make_victim_policy("windowed")->name(), "windowed-greedy");
  EXPECT_EQ(make_victim_policy("random")->name(), "random");
}

TEST(VictimFactoryTest, UnknownNameThrows) {
  EXPECT_THROW(make_victim_policy("lru"), std::invalid_argument);
}

TEST(VictimFactoryTest, ParameterizedDChoice) {
  Pool pool;
  for (std::uint32_t v = 8; v > 0; --v) pool.add(v, 0);
  Rng rng(5);
  auto policy = make_victim_policy("d-choice:64");
  EXPECT_EQ(policy->name(), "d-choice");
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 0, rng), 7u);
}

TEST(VictimFactoryTest, ParameterizedWindow) {
  Pool pool;
  pool.add(8, 0);
  pool.add(0, 50);
  Rng rng(1);
  // window=1 restricts to the single oldest segment regardless of valid.
  auto policy = make_victim_policy("windowed:1");
  EXPECT_EQ(policy->name(), "windowed-greedy");
  pool.prime(*policy);
  EXPECT_EQ(policy->select(pool.segments, 100, rng), 0u);
}

TEST(VictimFactoryTest, MalformedParametersThrow) {
  EXPECT_THROW(make_victim_policy("d-choice:"), std::invalid_argument);
  EXPECT_THROW(make_victim_policy("d-choice:x"), std::invalid_argument);
  EXPECT_THROW(make_victim_policy("d-choice:8x"), std::invalid_argument);
  EXPECT_THROW(make_victim_policy("d-choice:0"), std::invalid_argument);
  EXPECT_THROW(make_victim_policy("windowed:-1"), std::invalid_argument);
  EXPECT_THROW(make_victim_policy("windowed:"), std::invalid_argument);
}

TEST(VictimFactoryTest, ParameterOnUnparameterizedPolicyThrows) {
  EXPECT_THROW(make_victim_policy("greedy:4"), std::invalid_argument);
  EXPECT_THROW(make_victim_policy("cost-benefit:2"), std::invalid_argument);
  EXPECT_THROW(make_victim_policy("random:1"), std::invalid_argument);
}

}  // namespace
}  // namespace adapt::lss
