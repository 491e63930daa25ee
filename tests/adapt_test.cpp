// Tests for the ADAPT core: the Bloom cascade bank, spatial sampling, ghost
// sets, threshold adaptation, the AdaptPolicy placement logic, and the §3.3
// aggregation rule that AdaptPolicy and the "+agg" wrapper share (driven
// through the engine's shadow append / lazy append).
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adapt_policy.h"
#include "adapt/aggregation.h"
#include "adapt/bloom.h"
#include "placement/dac.h"
#include "placement/sep_gc.h"
#include "placement/sepbit.h"
#include "placement/warcip.h"
#include "adapt/ghost_set.h"
#include "adapt/threshold_adapter.h"
#include "audit/audit.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "lss/engine.h"
#include "lss/victim_policy.h"

namespace adapt::core {
namespace {

// ---------------------------------------------------------------------------
// Bloom filters: one filter of a CascadeBank
// ---------------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  CascadeBank f(1000);
  for (Lba lba = 0; lba < 1000; ++lba) f.insert(0, lba * 7);
  for (Lba lba = 0; lba < 1000; ++lba) {
    EXPECT_EQ(f.score(0, lba * 7), 1u);
  }
}

TEST(BloomTest, FalsePositiveRateIsBounded) {
  CascadeBank f(1000);
  for (Lba lba = 0; lba < 1000; ++lba) f.insert(0, lba);
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (f.score(0, 1'000'000 + i) != 0) ++fp;
  }
  // Analytical rate: (1 - e^(-7·1000/10048))^7 ≈ 0.80%. A position
  // derivation that clusters bits overshoots this bound.
  EXPECT_LT(static_cast<double>(fp) / probes, 0.015);
}

TEST(BloomTest, EmptyContainsNothing) {
  const CascadeBank f(100);
  int hits = 0;
  for (Lba lba = 0; lba < 1000; ++lba) {
    if (f.score(0, lba) != 0 || f.pick(lba) != CascadeBank::kGroups) ++hits;
  }
  EXPECT_EQ(hits, 0);
}

// The shared probe is the exact (h1 + i·h2) mod bit_count that a per-filter
// `%` gives, including when h1 + i·h2 wraps past 2^64.
TEST(BloomTest, SharedProbeMatchesModulo) {
  for (const std::uint32_t capacity : {1u, 7u, 100u, 1000u, 1024u, 4096u,
                                       65536u}) {
    const BloomGeometry geometry(capacity);
    const std::uint64_t bits = geometry.bit_count();
    ASSERT_EQ(bits, (std::uint64_t{capacity} * 10 + 63) / 64 * 64);
    Rng rng(capacity);
    std::uint64_t wrapped = 0;
    for (std::uint64_t n = 0; n < 100'000; ++n) {
      // Small, large and random LBAs.
      const Lba lba = n < 1000 ? n : n < 2000 ? ~Lba{0} - n : rng();
      const std::uint64_t h1 = mix64(lba);
      const std::uint64_t h2 = mix64(lba ^ 0x9e3779b97f4a7c15ULL) | 1;
      const BloomProbe probe = geometry.probe(lba);
      for (std::uint32_t i = 0; i < kBloomHashes; ++i) {
        const std::uint64_t x = h1 + i * h2;
        if (static_cast<unsigned __int128>(h1) +
                static_cast<unsigned __int128>(i) * h2 >
            ~std::uint64_t{0}) {
          ++wrapped;
        }
        ASSERT_EQ(probe.bit[i], x % bits)
            << "capacity " << capacity << " lba " << lba << " i " << i;
      }
    }
    EXPECT_GT(wrapped, 100'000u) << "capacity " << capacity;
  }
}

TEST(BloomTest, ZeroCapacityIsRejected) {
  EXPECT_THROW(BloomGeometry(0), std::invalid_argument);
  EXPECT_THROW(CascadeBank(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CascadeBank
// ---------------------------------------------------------------------------

TEST(CascadeTest, ScoreCountsFilters) {
  CascadeBank d(10);
  d.insert(1, 42);
  EXPECT_EQ(d.score(1, 42), 1u);
  // Fill the first filter so a new one opens, then insert again.
  for (Lba lba = 100; lba < 110; ++lba) d.insert(1, lba);
  d.insert(1, 42);
  EXPECT_GE(d.score(1, 42), 2u);
  EXPECT_EQ(d.filter_count(1), 2u);
  // The other groups' cascades are untouched.
  for (const std::size_t g : {0u, 2u, 3u}) EXPECT_EQ(d.score(g, 42), 0u);
}

TEST(CascadeTest, FifoEviction) {
  CascadeBank d(4);
  d.insert(3, 7);  // filter 0
  for (Lba lba = 1000; lba < 1015; ++lba) d.insert(3, lba);  // fills 0 to 3
  d.check_invariants(audit::Level::kCounters);
  EXPECT_EQ(d.filter_count(3), 4u);
  EXPECT_EQ(d.score(3, 7), 1u);
  // The fifth filter reuses filter 0's slot, and 7 goes with it.
  d.insert(3, 200);
  EXPECT_EQ(d.filter_count(3), 4u);
  EXPECT_EQ(d.score(3, 7), 0u);
  EXPECT_EQ(d.score(3, 200), 1u);
  d.check_invariants(audit::Level::kFull);
}

// A ring wraps at its nibble's width: however often it turns, an LBA in
// every filter scores 4, never more.
TEST(CascadeTest, ScoreBoundedByMaxFilters) {
  CascadeBank d(2);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t g = 0; g < CascadeBank::kGroups; ++g) {
      d.insert(g, 5);
      d.insert(g, static_cast<Lba>(100 + round));
    }
  }
  for (std::size_t g = 0; g < CascadeBank::kGroups; ++g) {
    EXPECT_EQ(d.filter_count(g), CascadeBank::kFilters);
    EXPECT_EQ(d.score(g, 5), CascadeBank::kFilters);
  }
  EXPECT_EQ(d.pick(5), 0u);  // a four-way tie goes to the first group
  d.check_invariants(audit::Level::kFull);
}

// One 16-bit plane per bit position, whatever the rings hold: 20,480 B at
// the default 4 groups × 4 filters × 1024 LBAs, 10 bits per LBA.
TEST(CascadeTest, MemoryIsOnePlanePerBitPosition) {
  EXPECT_EQ(CascadeBank(1024).memory_usage_bytes(), 4u * 4 * 1024 * 10 / 8);
  CascadeBank d(100);
  const std::size_t bytes = d.memory_usage_bytes();
  EXPECT_EQ(bytes, BloomGeometry(100).bit_count() * sizeof(std::uint16_t));
  for (Lba lba = 0; lba < 10000; ++lba) {
    d.insert(lba % CascadeBank::kGroups, lba);
    if (lba % 512 == 0) d.check_invariants(audit::Level::kCounters);
  }
  EXPECT_EQ(d.memory_usage_bytes(), bytes);
  for (std::size_t g = 0; g < CascadeBank::kGroups; ++g) {
    EXPECT_EQ(d.filter_count(g), CascadeBank::kFilters);
  }
  d.check_invariants(audit::Level::kFull);
}

// The bank answers exactly like 4 × 4 independent filters: one
// std::vector<bool> per filter at BloomGeometry's positions, and per group
// a FIFO deque that opens a new filter when its newest is full and drops
// the oldest beyond 4. Inserts favour low groups, so some rings rotate
// while others are still partial, and a small LBA universe makes shared
// scores and ties common. Every ~97 inserts, each group's score and the
// pick are compared, and the bank audits itself. Until some ring holds
// kDemotionScore filters the bank picks without hashing, and the audit
// checks that gate against the rings.
TEST(CascadeTest, BankMatchesIndependentFilters) {
  struct Filter {
    std::vector<bool> bits;
    std::uint32_t inserted = 0;
  };
  constexpr std::size_t kGroups = CascadeBank::kGroups;
  std::uint64_t rotations = 0;
  std::uint64_t partial_rings = 0;
  std::uint64_t ties = 0;
  std::uint64_t demoted = 0;
  std::uint64_t unarmed_probes = 0;
  for (const std::uint32_t capacity : {1u, 8u, 50u, 1024u}) {
    SCOPED_TRACE(testing::Message() << "filters of " << capacity);
    const BloomGeometry geometry(capacity);
    CascadeBank bank(capacity);
    std::deque<Filter> rings[kGroups];
    Rng rng(40'000 + capacity);
    const Lba universe = std::max<Lba>(24, 2 * capacity);
    const std::uint64_t inserts = 32 * std::uint64_t{CascadeBank::kFilters} *
                                  capacity;
    for (std::uint64_t n = 1; n <= inserts; ++n) {
      // Groups 0-3 take 1/2, 1/4, 1/8 and 1/8 of the inserts.
      const std::uint64_t draw = rng.below(8);
      const std::size_t g = draw < 4 ? 0 : draw < 6 ? 1 : draw < 7 ? 2 : 3;
      const Lba lba = rng.below(universe);
      bank.insert(g, lba);
      std::deque<Filter>& ring = rings[g];
      if (ring.empty() || ring.back().inserted == capacity) {
        ring.push_back(Filter{std::vector<bool>(geometry.bit_count()), 0});
        if (ring.size() > CascadeBank::kFilters) {
          ring.pop_front();
          ++rotations;
        }
      }
      for (const std::uint64_t b : geometry.probe(lba).bit) {
        ring.back().bits[b] = true;
      }
      ++ring.back().inserted;
      if (n % 97 != 0) continue;

      ASSERT_NO_THROW(bank.check_invariants(audit::Level::kFull))
          << "insert " << n;
      bool armed = false;
      for (std::size_t h = 0; h < kGroups; ++h) {
        ASSERT_EQ(bank.filter_count(h), rings[h].size());
        if (!rings[h].empty() && rings[h].size() < CascadeBank::kFilters) {
          ++partial_rings;
        }
        armed = armed || rings[h].size() >= CascadeBank::kDemotionScore;
      }
      for (int probe_n = 0; probe_n < 64; ++probe_n) {
        const Lba probe_lba = rng.below(universe + 16);
        const BloomProbe probe = geometry.probe(probe_lba);
        std::uint32_t scores[kGroups] = {};
        std::size_t first_max = 0;
        for (std::size_t h = 0; h < kGroups; ++h) {
          for (const Filter& f : rings[h]) {
            bool all = true;
            for (const std::uint64_t b : probe.bit) all = all && f.bits[b];
            if (all) ++scores[h];
          }
          ASSERT_EQ(bank.score(h, probe_lba), scores[h])
              << "insert " << n << " lba " << probe_lba << " group " << h;
          if (scores[h] > scores[first_max]) first_max = h;
        }
        for (std::size_t h = first_max + 1; h < kGroups; ++h) {
          if (scores[h] == scores[first_max] && scores[h] > 0) ++ties;
        }
        const bool demote = scores[first_max] >= CascadeBank::kDemotionScore;
        ASSERT_EQ(bank.pick(probe_lba), demote ? first_max : kGroups)
            << "insert " << n << " lba " << probe_lba;
        if (demote) ++demoted;
        if (!armed) ++unarmed_probes;
      }
    }
  }
  EXPECT_GT(rotations, 300u);
  EXPECT_GT(partial_rings, 500u);
  EXPECT_GT(ties, 10'000u);
  EXPECT_GT(demoted, 1000u);
  EXPECT_GT(unarmed_probes, 1000u);
}

// ---------------------------------------------------------------------------
// SpatialSampler
// ---------------------------------------------------------------------------

TEST(SamplerTest, RateZeroSamplesNothing) {
  SpatialSampler s(0.0);
  for (Lba lba = 0; lba < 1000; ++lba) EXPECT_FALSE(s.sampled(lba));
}

TEST(SamplerTest, RateOneSamplesEverything) {
  SpatialSampler s(1.0);
  for (Lba lba = 0; lba < 1000; ++lba) EXPECT_TRUE(s.sampled(lba));
}

TEST(SamplerTest, RateApproximatelyHolds) {
  SpatialSampler s(0.1);
  int hits = 0;
  const int n = 100000;
  for (Lba lba = 0; lba < static_cast<Lba>(n); ++lba) {
    if (s.sampled(lba)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
}

TEST(SamplerTest, DecisionIsStablePerLba) {
  SpatialSampler s(0.5);
  for (Lba lba = 0; lba < 100; ++lba) {
    EXPECT_EQ(s.sampled(lba), s.sampled(lba));
  }
}

// ---------------------------------------------------------------------------
// GhostSet
// ---------------------------------------------------------------------------

GhostConfig tiny_ghost() {
  return GhostConfig{.segment_blocks = 4, .capacity_segments = 6};
}

TEST(GhostSetTest, CountsWrites) {
  GhostSet g(tiny_ghost(), 100);
  for (Lba lba = 0; lba < 10; ++lba) g.write(lba, 1000);
  EXPECT_EQ(g.written(), 10u);
}

TEST(GhostSetTest, RejectsBadGeometry) {
  EXPECT_THROW(GhostSet(GhostConfig{.segment_blocks = 0}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      GhostSet(GhostConfig{.segment_blocks = 4, .capacity_segments = 2}, 1),
      std::invalid_argument);
}

TEST(GhostSetTest, OverwritesCreateGarbageNotDiscards) {
  GhostSet g(tiny_ghost(), 100);
  // Hammer a handful of blocks: every segment dies before GC needs to
  // discard anything.
  for (int round = 0; round < 50; ++round) {
    for (Lba lba = 0; lba < 4; ++lba) g.write(lba, 0);
  }
  EXPECT_EQ(g.discarded(), 0u);
}

TEST(GhostSetTest, WriteOnceStreamForcesDiscards) {
  GhostSet g(tiny_ghost(), 100);
  for (Lba lba = 0; lba < 200; ++lba) {
    g.write(lba, 1000000);
    g.check_invariants(audit::Level::kCounters);
  }
  EXPECT_GT(g.discarded(), 0u);
  EXPECT_GT(g.gc_runs(), 0u);
  EXPECT_GT(g.discard_ratio(), 0.0);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, SegmentCountBounded) {
  GhostSet g(tiny_ghost(), 100);
  Rng rng(109);
  for (int i = 0; i < 5000; ++i) {
    g.write(rng.below(256), rng.below(2000));
    if (i % 256 == 0) g.check_invariants(audit::Level::kFull);
    g.check_invariants(audit::Level::kCounters);
  }
  EXPECT_LE(g.segment_count(), tiny_ghost().capacity_segments + 1u);
}

// Regression: memory_usage_bytes must account for the validity bitmaps and
// the per-segment map overhead, not just raw LBA bytes plus the LBA-map
// nodes. The accounting model is deterministic (modelled constants, no
// sizeof of library types), so the scenario below pins an exact number:
// 20 distinct cold LBAs -> 5 sealed 4-block segments, 20 map entries.
//   per segment: 4*8 (LBA log) + 1 (bitmap) + 8 (key) + 24 (node) = 65
//   per mapping: 8 (LBA) + 16 (Location) + 24 (node)              = 48
//   total: 5*65 + 20*48 = 1285
// (The pre-fix formula gave 20*8 + 20*24 = 640.)
TEST(GhostSetTest, MemoryAccountsForBitmapsAndSegmentOverhead) {
  GhostSet g(tiny_ghost(), 100);
  for (Lba lba = 0; lba < 20; ++lba) g.write(lba, 1000);
  ASSERT_EQ(g.segment_count(), 5u);
  EXPECT_EQ(g.memory_usage_bytes(), 1285u);
}

TEST(GhostSetTest, DiscardAccountingIsExact) {
  // Deterministic micro-scenario: segment = 4 blocks, capacity = 4
  // segments. Fill four segments with write-once blocks routed cold, then
  // push one more segment's worth: each overflow seal forces exactly one
  // greedy eviction of a fully-valid sealed segment (4 discards each).
  GhostSet g(GhostConfig{.segment_blocks = 4, .capacity_segments = 4}, 100);
  for (Lba lba = 0; lba < 16; ++lba) g.write(lba, 1u << 20);
  EXPECT_EQ(g.discarded(), 0u);  // exactly at capacity, nothing evicted
  for (Lba lba = 16; lba < 20; ++lba) g.write(lba, 1u << 20);
  EXPECT_EQ(g.discarded(), 4u);
  EXPECT_EQ(g.gc_runs(), 1u);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, GcTiesEvictTheOldestSegment) {
  // Segments 0-4 hold LBAs 0-19, all fully valid. Sealing segment 4 evicts
  // one of the four equally full segments 0-3: the oldest, segment 0
  // (LBAs 0-3). The hot rewrites of 0-3 then find no previous copy to
  // invalidate, so opening segment 5 again evicts a fully valid segment.
  // Evicting a newer one first would leave 0-3 live; their rewrites would
  // then hollow out segment 0, and the second eviction would discard 3.
  GhostSet g(GhostConfig{.segment_blocks = 4, .capacity_segments = 4}, 100);
  for (Lba lba = 0; lba < 20; ++lba) g.write(lba, 1u << 20);
  for (Lba lba = 0; lba < 4; ++lba) g.write(lba, 10);
  EXPECT_EQ(g.discarded(), 8u);
  EXPECT_EQ(g.gc_runs(), 2u);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, InvalidatedBlocksAreNotDiscarded) {
  // Same scenario, but the first segment's blocks are overwritten before
  // the eviction: greedy then reclaims that dead segment for free.
  GhostSet g(GhostConfig{.segment_blocks = 4, .capacity_segments = 4}, 100);
  for (Lba lba = 0; lba < 12; ++lba) g.write(lba, 1u << 20);
  // Overwrites of 0-3 land hot (short interval), invalidating segment 0
  // while the set is still at capacity.
  for (Lba lba = 0; lba < 4; ++lba) g.write(lba, 10);
  // The next cold segment pushes the set over capacity; greedy reclaims
  // the now-dead segment 0 without discarding anything.
  for (Lba lba = 16; lba < 20; ++lba) g.write(lba, 1u << 20);
  EXPECT_EQ(g.discarded(), 0u);
  EXPECT_GE(g.gc_runs(), 1u);
  g.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, DifferentThresholdsDifferentPlacements) {
  // The whole point of the ghost bank: thresholds change where blocks go
  // and therefore how much GC discards. Verify the bank actually produces
  // divergent measurements on a mixed workload.
  GhostSet separating(
      GhostConfig{.segment_blocks = 8, .capacity_segments = 16}, 1000);
  GhostSet degenerate(
      GhostConfig{.segment_blocks = 8, .capacity_segments = 16}, 1);
  Rng rng(113);
  Lba cold = 1000;
  for (int i = 0; i < 4000; ++i) {
    const bool hot = rng.chance(0.7);
    const Lba lba = hot ? rng.below(32) : cold++;
    const std::uint64_t interval = hot ? 10 : (1u << 20);
    separating.write(lba, interval);
    degenerate.write(lba, interval);
  }
  EXPECT_NE(separating.discarded(), degenerate.discarded());
  EXPECT_GT(separating.gc_runs(), 0u);
  EXPECT_GT(degenerate.gc_runs(), 0u);
  separating.check_invariants(audit::Level::kFull);
  degenerate.check_invariants(audit::Level::kFull);
}

TEST(GhostSetTest, SetThresholdResetsMetrics) {
  GhostSet g(tiny_ghost(), 100);
  for (Lba lba = 0; lba < 100; ++lba) g.write(lba, 1000000);
  EXPECT_GT(g.written(), 0u);
  g.set_threshold(200);
  EXPECT_EQ(g.written(), 0u);
  EXPECT_EQ(g.discarded(), 0u);
  EXPECT_EQ(g.threshold(), 200u);
}

/// Naive reference ghost set: segments in a std::map by key, each with its
/// block list and validity, and a second std::map from block to location.
/// GC evicts the sealed segment with the smallest (valid count, key).
class ReferenceGhost {
 public:
  ReferenceGhost(GhostConfig config, std::uint64_t threshold)
      : config_(config), threshold_(threshold) {}

  void write(std::uint64_t block, std::uint64_t interval) {
    ++written_;
    if (const auto it = where_.find(block); it != where_.end()) {
      Segment& seg = segments_.at(it->second.first);
      seg.valid[it->second.second] = false;
      --seg.valid_count;
      where_.erase(it);
    }
    std::uint64_t& open = open_[interval < threshold_ ? 0 : 1];
    if (open == kNone) open = next_key_++;
    Segment& seg = segments_[open];
    where_[block] = {open, seg.blocks.size()};
    seg.blocks.push_back(block);
    seg.valid.push_back(true);
    ++seg.valid_count;
    if (seg.blocks.size() == config_.segment_blocks) open = kNone;
    while (segments_.size() > config_.capacity_segments) {
      auto victim = segments_.end();
      for (auto it = segments_.begin(); it != segments_.end(); ++it) {
        if (it->second.blocks.size() != config_.segment_blocks) continue;
        if (victim == segments_.end() ||
            std::pair(it->second.valid_count, it->first) <
                std::pair(victim->second.valid_count, victim->first)) {
          victim = it;
        }
      }
      discarded_ += victim->second.valid_count;
      for (std::size_t i = 0; i < victim->second.blocks.size(); ++i) {
        if (victim->second.valid[i]) where_.erase(victim->second.blocks[i]);
      }
      segments_.erase(victim);
      ++gc_runs_;
    }
  }

  std::uint64_t written() const { return written_; }
  std::uint64_t discarded() const { return discarded_; }
  std::uint64_t gc_runs() const { return gc_runs_; }
  std::size_t segment_count() const { return segments_.size(); }

  /// GhostSet's memory model, computed from the maps it models.
  std::size_t modelled_bytes() const {
    std::size_t total = where_.size() * (8 + 16 + 24);
    for (const auto& [key, seg] : segments_) {
      total += seg.blocks.size() * 8 + (seg.blocks.size() + 7) / 8 + 8 + 24;
    }
    return total;
  }

 private:
  static constexpr std::uint64_t kNone = ~0ull;
  struct Segment {
    std::vector<std::uint64_t> blocks;
    std::vector<bool> valid;
    std::uint64_t valid_count = 0;
  };

  GhostConfig config_;
  std::uint64_t threshold_;
  std::uint64_t written_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t next_key_ = 0;
  std::uint64_t open_[2] = {kNone, kNone};
  std::map<std::uint64_t, Segment> segments_;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::size_t>> where_;
};

TEST(GhostSetDifferentialTest, MatchesNaiveReference) {
  // Segment size x capacity: tiny; a segment wider than one 64-bit validity
  // word and not a multiple of 64; two words exactly; many small segments.
  const GhostConfig geometries[] = {
      {.segment_blocks = 4, .capacity_segments = 4},
      {.segment_blocks = 100, .capacity_segments = 6},
      {.segment_blocks = 128, .capacity_segments = 8},
      {.segment_blocks = 4, .capacity_segments = 256},
  };
  constexpr std::uint64_t kThreshold = 1000;
  for (const GhostConfig& geom : geometries) {
    SCOPED_TRACE(testing::Message() << geom.segment_blocks << "x"
                                    << geom.capacity_segments);
    GhostSet ghost(geom, kThreshold);
    ReferenceGhost ref(geom, kThreshold);
    // Twice the simulated capacity in keys, half the writes on a hot
    // eighth of them, intervals on both sides of the threshold and
    // first writes.
    const std::uint64_t capacity_blocks =
        std::uint64_t{geom.segment_blocks} * geom.capacity_segments;
    const std::uint64_t keys = 2 * capacity_blocks;
    const std::uint64_t hot_keys =
        std::max<std::uint64_t>(capacity_blocks / 8, 4);
    Rng rng(0xd1ff + geom.segment_blocks * 1000 + geom.capacity_segments);
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t key =
          rng.chance(0.5) ? rng.below(hot_keys) : rng.below(keys);
      const double pick = rng.uniform();
      const std::uint64_t interval =
          pick < 0.1   ? GhostSet::kNoHistory
          : pick < 0.6 ? rng.below(kThreshold)
                       : kThreshold + rng.below(4 * kThreshold);
      ghost.write(key, interval);
      ref.write(key, interval);
      ASSERT_EQ(ghost.written(), ref.written()) << "write " << i;
      ASSERT_EQ(ghost.discarded(), ref.discarded()) << "write " << i;
      ASSERT_EQ(ghost.gc_runs(), ref.gc_runs()) << "write " << i;
      ASSERT_EQ(ghost.segment_count(), ref.segment_count()) << "write " << i;
      if (i % 4096 == 0) ghost.check_invariants(audit::Level::kFull);
    }
    EXPECT_GT(ghost.gc_runs(), 500u);
    EXPECT_GT(ghost.discarded(), 0u);
    EXPECT_EQ(ghost.memory_usage_bytes(), ref.modelled_bytes());
    ghost.check_invariants(audit::Level::kFull);
  }
}

// ---------------------------------------------------------------------------
// ThresholdAdapter
// ---------------------------------------------------------------------------

AdapterConfig small_adapter() {
  AdapterConfig c;
  c.sample_rate = 1.0;  // sample everything: deterministic tests
  c.num_ghosts = 5;
  c.segment_blocks = 64;
  c.logical_blocks = 4096;
  c.update_fraction = 0.05;
  return c;
}

TEST(ThresholdAdapterTest, StartsInExponentialPhase) {
  ThresholdAdapter a(small_adapter());
  EXPECT_EQ(a.phase(), ThresholdAdapter::Phase::kExponential);
  const auto thresholds = a.ghost_thresholds();
  for (std::size_t i = 1; i < thresholds.size(); ++i) {
    EXPECT_EQ(thresholds[i], thresholds[i - 1] * 2);
  }
}

// Two ghosts leave the linear window no interior; 64 leave the exponential
// window no base below 2^(64-K).
TEST(ThresholdAdapterTest, RejectsTooFewOrTooManyGhosts) {
  AdapterConfig c = small_adapter();
  c.num_ghosts = 2;
  EXPECT_THROW(ThresholdAdapter a(c), std::invalid_argument);
  c.num_ghosts = 64;
  EXPECT_THROW(ThresholdAdapter a(c), std::invalid_argument);
  c.num_ghosts = 63;
  EXPECT_NO_THROW(ThresholdAdapter a(c));
}

// A top-edge winner re-anchors the exponential window at itself, moving
// its base up 2^(K-1)-fold. On a Zipf(0.99) stream the base climbed until
// the window's doubling wrapped past 2^64 (after 74,226 writes at seed 7
// and 167,870 at seed 42), and the ghost thresholds stopped increasing.
// With the base capped, no window threshold or adoption passes 2^63.
TEST(ThresholdAdapterTest, ExponentialWindowNeverWraps) {
  for (const std::uint64_t seed : {7u, 42u}) {
    SCOPED_TRACE(seed);
    AdapterConfig c;
    c.logical_blocks = 4096;
    c.segment_blocks = 64;
    c.over_provision = 0.5;
    ThresholdAdapter a(c);
    ZipfianGenerator zipf(c.logical_blocks, 0.99);
    Rng rng(seed);
    for (VTime now = 0; now < 200'000; ++now) {
      a.on_user_write(zipf.next(rng), now);
      ASSERT_NO_THROW(a.check_invariants(audit::Level::kCounters))
          << "write " << now << ", " << a.adoptions() << " adoptions";
      ASSERT_LE(a.threshold(), ~std::uint64_t{0} >> 1) << "write " << now;
    }
    EXPECT_GT(a.adoptions(), 138u);
    EXPECT_LE(a.ghost_thresholds().back(), ~std::uint64_t{0} >> 1);
  }
}

TEST(ThresholdAdapterTest, AutoSampleRateFromCapacity) {
  AdapterConfig c = small_adapter();
  c.sample_rate = 0.0;
  c.logical_blocks = 1u << 20;
  ThresholdAdapter a(c);
  // Feeding every LBA once, roughly 4096/2^20 of them should be sampled.
  std::uint64_t hits = 0;
  for (Lba lba = 0; lba < (1u << 18); ++lba) {
    a.on_user_write(lba, lba);
    if (a.sampled_writes() > hits) hits = a.sampled_writes();
  }
  EXPECT_NEAR(static_cast<double>(hits), 1024.0, 200.0);
}

TEST(ThresholdAdapterTest, AdoptsAfterEnoughChurn) {
  ThresholdAdapter a(small_adapter());
  Rng rng(127);
  VTime now = 0;
  bool changed = false;
  for (int i = 0; i < 200000 && !changed; ++i) {
    // Mixed workload: hot blocks 0-31 + cold stream.
    const Lba lba = rng.chance(0.6) ? rng.below(32) : 100 + rng.below(4000);
    changed |= a.on_user_write(lba, now++);
    a.check_invariants(audit::Level::kCounters);
    if (i % 8192 == 0) a.check_invariants(audit::Level::kFull);
  }
  EXPECT_TRUE(a.adopted());
  EXPECT_GT(a.threshold(), 0u);
  a.check_invariants(audit::Level::kFull);
}

TEST(ThresholdAdapterTest, MemoryGrowsWithTracking) {
  ThresholdAdapter a(small_adapter());
  const std::size_t before = a.memory_usage_bytes();
  for (Lba lba = 0; lba < 1000; ++lba) a.on_user_write(lba, lba);
  EXPECT_GT(a.memory_usage_bytes(), before);
  a.check_invariants(audit::Level::kFull);
}

TEST(ThresholdAdapterTest, GhostsSeeIntervalSincePreviousWrite) {
  // Reference bank: ghosts of the adapter's geometry fed the user blocks
  // written since each block's previous write (kNoHistory on its first),
  // re-thresholded after every adoption like the adapter's own bank.
  ThresholdAdapter a(small_adapter());
  // Rate 1: 64-block segments; 20% of 4096 * 1.25 blocks is 16 segments.
  const GhostConfig geom{.segment_blocks = 64, .capacity_segments = 16};
  std::vector<GhostSet> ref;
  for (const std::uint64_t t : a.ghost_thresholds()) ref.emplace_back(geom, t);
  std::unordered_map<Lba, VTime> last_write;
  Rng rng(131);
  std::uint64_t adoptions = 0;
  for (VTime now = 0; now < 50000; ++now) {
    const Lba lba = rng.chance(0.6) ? rng.below(32) : 100 + rng.below(4000);
    const auto it = last_write.find(lba);
    const std::uint64_t interval =
        it == last_write.end() ? GhostSet::kNoHistory : now - it->second;
    last_write[lba] = now;
    for (GhostSet& g : ref) g.write(lba, interval);
    a.on_user_write(lba, now);
    if (a.adoptions() != adoptions) {
      adoptions = a.adoptions();
      const auto thresholds = a.ghost_thresholds();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ref[i].set_threshold(thresholds[i]);
      }
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const GhostSet& g = a.ghosts()[i];
      ASSERT_EQ(g.written(), ref[i].written()) << "ghost " << i << " @" << now;
      ASSERT_EQ(g.discarded(), ref[i].discarded())
          << "ghost " << i << " @" << now;
    }
  }
  EXPECT_GT(adoptions, 1u);
}

TEST(ThresholdAdapterTest, MemoryBoundedBySampledBlocks) {
  // The adapter's own state (memory minus the ghosts') holds one entry per
  // sampled block, however often each block is rewritten.
  ThresholdAdapter a(small_adapter());
  const auto own_bytes = [&a] {
    std::size_t ghost_bytes = 0;
    for (const GhostSet& g : a.ghosts()) ghost_bytes += g.memory_usage_bytes();
    return a.memory_usage_bytes() - ghost_bytes;
  };
  VTime now = 0;
  for (Lba lba = 0; lba < 1000; ++lba) a.on_user_write(lba, now++);
  const std::size_t after_one_pass = own_bytes();
  EXPECT_EQ(after_one_pass, 1000u * 40u);
  for (int pass = 0; pass < 50; ++pass) {
    for (Lba lba = 0; lba < 1000; ++lba) a.on_user_write(lba, now++);
  }
  EXPECT_EQ(own_bytes(), after_one_pass);
  a.check_invariants(audit::Level::kFull);
}

// ---------------------------------------------------------------------------
// AdaptPolicy — placement logic
// ---------------------------------------------------------------------------

AdaptConfig small_policy() {
  AdaptConfig c;
  c.logical_blocks = 4096;
  c.segment_blocks = 64;
  c.chunk_blocks = 4;
  c.enable_threshold_adaptation = false;  // deterministic threshold
  return c;
}

TEST(AdaptPolicyTest, SixGroupsTwoUser) {
  AdaptPolicy p(small_policy());
  EXPECT_EQ(p.group_count(), 6u);
  EXPECT_TRUE(p.is_user_group(AdaptPolicy::kHotUser));
  EXPECT_TRUE(p.is_user_group(AdaptPolicy::kColdUser));
  for (GroupId g = AdaptPolicy::kFirstGcGroup; g < 6; ++g) {
    EXPECT_FALSE(p.is_user_group(g));
  }
}

TEST(AdaptPolicyTest, GcNeverPromotesTowardHotterGroups) {
  AdaptPolicy p(small_policy());
  p.place_user_write(1, 1000);
  // Young version age but victim already in the coldest group: stays.
  EXPECT_EQ(p.place_gc_rewrite(1, 5, 1001), 5u);
}

// Drives `config`'s AdaptPolicy and a SepBitPolicy of the same geometry
// with one seeded stream of user writes (mostly to a small hot set), GC
// rewrites from random victim groups, and segment reclaims whose hot-group
// lifespans grow SepBIT's EWMA. Every user group and threshold must match
// SepBIT's; a GC group must be SepBIT's class, raised to the victim's GC
// group when §3.4 is on.
void expect_sepbit_placement(const AdaptConfig& config, std::uint64_t seed) {
  AdaptPolicy adapt(config);
  placement::SepBitPolicy sepbit(config.logical_blocks, config.segment_blocks);
  ASSERT_EQ(adapt.group_count(), sepbit.group_count());
  const double start = sepbit.threshold();
  std::vector<std::uint64_t> seen(sepbit.group_count(), 0);
  Rng rng(seed);
  VTime now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += 1 + rng.below(8);
    const std::uint64_t op = rng.below(100);
    if (op < 80) {
      const Lba lba = rng.below(10) < 8 ? rng.below(64)
                                        : rng.below(config.logical_blocks);
      const GroupId want = sepbit.place_user_write(lba, now);
      ASSERT_EQ(adapt.place_user_write(lba, now), want) << "op " << i;
      ++seen[want];
    } else if (op < 95) {
      const Lba lba = rng.below(config.logical_blocks);
      const auto victim =
          static_cast<GroupId>(rng.below(sepbit.group_count()));
      GroupId want = sepbit.place_gc_rewrite(lba, victim, now);
      ++seen[want];
      if (config.enable_proactive_demotion &&
          victim >= AdaptPolicy::kFirstGcGroup) {
        want = std::max(want, victim);
      }
      ASSERT_EQ(adapt.place_gc_rewrite(lba, victim, now), want)
          << "op " << i << ", victim group " << victim;
    } else {
      const auto group = static_cast<GroupId>(rng.below(3));
      const VTime lifespan = std::min<VTime>(now, 256 + rng.below(1024));
      sepbit.note_segment_reclaimed(group, now - lifespan, now);
      adapt.note_segment_reclaimed(group, now - lifespan, now);
    }
    ASSERT_EQ(adapt.threshold(), sepbit.threshold()) << "op " << i;
  }
  // The stream reaches every SepBIT class and moves the EWMA, and nothing
  // was demoted.
  for (GroupId g = 0; g < sepbit.group_count(); ++g) {
    EXPECT_GT(seen[g], 0u) << "group " << g;
  }
  EXPECT_GT(sepbit.threshold(), start);
  EXPECT_EQ(adapt.demotions(), 0u);
}

TEST(AdaptPolicyTest, WithoutMechanismsPlacesAsSepBit) {
  AdaptConfig c = small_policy();
  c.enable_threshold_adaptation = false;
  c.enable_cross_group_aggregation = false;
  c.enable_proactive_demotion = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    expect_sepbit_placement(c, seed);
  }
}

// With §3.4 on, GC never moves a block back toward hotter GC groups. The
// filters hold more than the stream's GC inserts, so the cascades never
// rotate, no LBA scores above 1 and nothing is demoted.
TEST(AdaptPolicyTest, DemotionWithoutCascadeHitsClampsSepBitGc) {
  AdaptConfig c = small_policy();
  c.bloom_filter_capacity = 1u << 16;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    expect_sepbit_placement(c, seed);
  }
}

TEST(AdaptPolicyTest, DemotionRequiresScoreAndLifespan) {
  AdaptConfig c = small_policy();
  // One insert per filter so each GC return is a distinct score unit.
  c.bloom_filter_capacity = 1;
  AdaptPolicy p(c);
  const Lba lba = 77;
  p.place_user_write(lba, 0);
  // A score of 2 in GC group 5's cascade is one short of a demotion: the
  // long-lived write goes to the cold user group, as SepBIT places it.
  const auto far = static_cast<VTime>(p.threshold() * 100);
  p.place_gc_rewrite(lba, 5, far);
  p.place_gc_rewrite(lba, 5, far + 1);
  EXPECT_EQ(p.place_user_write(lba, far + 2), AdaptPolicy::kColdUser);
  EXPECT_EQ(p.demotions(), 0u);
  // A score of 3 and a long prior lifespan (>= 4 * threshold) demote
  // straight to group 5.
  p.place_gc_rewrite(lba, 5, 2 * far);
  EXPECT_EQ(p.place_user_write(lba, 2 * far + 1), 5u);
  EXPECT_EQ(p.demotions(), 1u);
  // A short prior lifespan must NOT demote, whatever the score.
  EXPECT_EQ(p.place_user_write(lba, 2 * far + 2), AdaptPolicy::kHotUser);
  EXPECT_EQ(p.demotions(), 1u);
  p.check_invariants(audit::Level::kFull);
}

// SepBIT's last-write array stores complements, so a write at vtime 0 is
// history for ADAPT's demotion gate (last_write(lba) != kNeverWritten): a
// block last written at vtime 0 can be demoted.
TEST(AdaptPolicyTest, WriteAtVtimeZeroPassesTheDemotionGate) {
  AdaptConfig c = small_policy();
  c.bloom_filter_capacity = 1;
  AdaptPolicy p(c);
  const Lba lba = 77;
  p.place_user_write(lba, 0);
  const auto far = static_cast<VTime>(p.threshold() * 100);
  for (VTime t = far; t < far + 3; ++t) p.place_gc_rewrite(lba, 5, t);
  EXPECT_EQ(p.place_user_write(lba, 2 * far), 5u);
  EXPECT_EQ(p.demotions(), 1u);
}

// Zero-sized cascades were once clamped to 1; demotion on now rejects
// them, and with demotion off the capacity is unused.
TEST(AdaptPolicyTest, RejectsZeroFilterCapacityWithDemotionOn) {
  AdaptConfig c = small_policy();
  c.bloom_filter_capacity = 0;
  EXPECT_THROW(AdaptPolicy{c}, std::invalid_argument);
  c.enable_proactive_demotion = false;
  EXPECT_NO_THROW(AdaptPolicy{c});
}

TEST(AdaptPolicyTest, DemotionDisabledByConfig) {
  AdaptConfig c = small_policy();
  c.enable_proactive_demotion = false;
  AdaptPolicy p(c);
  const Lba lba = 77;
  p.place_user_write(lba, 0);
  const auto far = static_cast<VTime>(p.threshold() * 100);
  p.place_gc_rewrite(lba, 5, far);
  p.place_gc_rewrite(lba, 5, far + 1);
  EXPECT_EQ(p.place_user_write(lba, far + 2), AdaptPolicy::kColdUser);
  EXPECT_EQ(p.demotions(), 0u);
}

// ---------------------------------------------------------------------------
// AdaptPolicy — engine integration (shadow / lazy append lifecycle)
// ---------------------------------------------------------------------------

lss::LssConfig engine_config() {
  lss::LssConfig c;
  c.chunk_blocks = 4;
  c.segment_chunks = 2;
  c.logical_blocks = 1024;
  c.over_provision = 0.5;
  c.coalesce_window_us = 100;
  // Per-op counters self-audit inside the engine for every test below.
  c.audit_level = audit::Level::kCounters;
  return c;
}

struct AdaptEngine {
  explicit AdaptEngine(AdaptConfig ac = {}) : policy(make_policy_config(ac)) {
    victim = lss::make_greedy();
    engine = std::make_unique<lss::LssEngine>(engine_config(), policy,
                                              *victim, nullptr, 1);
    engine->set_aggregation_hook(&policy);
  }

  static AdaptConfig make_policy_config(AdaptConfig ac) {
    ac.logical_blocks = engine_config().logical_blocks;
    ac.segment_blocks = engine_config().segment_blocks();
    ac.chunk_blocks = engine_config().chunk_blocks;
    ac.enable_threshold_adaptation = false;
    return ac;
  }

  /// Makes `lba` classify as hot on its next write.
  void heat(Lba lba, TimeUs now) {
    engine->write_block(lba, now);
    engine->write_block(lba, now);
  }

  AdaptPolicy policy;
  std::unique_ptr<lss::VictimPolicy> victim;
  std::unique_ptr<lss::LssEngine> engine;
};

TEST(AdaptEngineTest, DeadlineMergeShadowsHotIntoCold) {
  AdaptEngine f;
  // One hot block pending + one cold block pending, deadlines overlap.
  f.heat(1, 0);              // lba 1 now hot (2 writes, same chunk)
  f.engine->advance_time(200);  // drain those (pad) so state is clean
  f.engine->write_block(1, 1000);   // hot pending
  f.engine->write_block(500, 1010);  // first write -> cold pending
  f.engine->advance_time(1100);      // hot deadline fires first
  // The hot block must now have a live shadow and its original pending.
  EXPECT_TRUE(f.engine->has_live_shadow(1));
  EXPECT_GT(f.engine->metrics().shadow_blocks, 0u);
  EXPECT_GT(f.policy.shadow_decisions(), 0u);
  f.engine->check_invariants();
}

TEST(AdaptEngineTest, ShadowExpiresWhenHotChunkFlushes) {
  AdaptEngine f;
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  ASSERT_TRUE(f.engine->has_live_shadow(1));
  // Fill the hot chunk so the lazy original persists.
  f.heat(2, 2000);
  f.heat(3, 2000);
  f.engine->write_block(2, 3000);
  f.engine->write_block(3, 3000);
  f.engine->write_block(2, 3000);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  f.engine->check_invariants();
}

TEST(AdaptEngineTest, OverwriteKillsShadowToo) {
  AdaptEngine f;
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  ASSERT_TRUE(f.engine->has_live_shadow(1));
  f.engine->write_block(1, 1200);  // new version invalidates both copies
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  f.engine->check_invariants();
}

TEST(AdaptEngineTest, NoAggregationWithoutOverlap) {
  AdaptConfig ac;
  AdaptEngine f(ac);
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);  // hot pending, cold empty
  f.engine->advance_time(1100);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  EXPECT_GT(f.engine->group_traffic(AdaptPolicy::kHotUser).padding_blocks,
            0u);
}

TEST(AdaptEngineTest, AggregationDisabledByConfig) {
  AdaptConfig ac;
  ac.enable_cross_group_aggregation = false;
  AdaptEngine f(ac);
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  EXPECT_EQ(f.engine->metrics().shadow_blocks, 0u);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
}

TEST(AdaptEngineTest, RandomizedWorkloadKeepsInvariantsAndData) {
  AdaptEngine f;
  Rng rng(131);
  std::vector<bool> written(1024, false);
  TimeUs now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.below(150);
    const Lba lba = rng.chance(0.5) ? rng.below(32) : rng.below(1024);
    f.engine->write_block(lba, now);
    written[lba] = true;
    if (i % 2048 == 0) f.engine->check_invariants();
  }
  f.engine->flush_all();
  f.engine->check_invariants();
  for (Lba lba = 0; lba < 1024; ++lba) {
    ASSERT_EQ(f.engine->locate(lba) != lss::kNowhere, written[lba]);
  }
  EXPECT_GE(f.engine->metrics().wa(), 1.0);
}

TEST(AdaptEngineTest, GcOnSegmentWithLiveShadowForcesLazyFlush) {
  AdaptEngine f;
  // Create a live shadow in the cold group.
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(1, 1000);
  f.engine->write_block(500, 1010);
  f.engine->advance_time(1100);
  ASSERT_TRUE(f.engine->has_live_shadow(1));
  // Seal the cold segment (8 slots) around the shadow with write-once
  // cold blocks while the hot original stays pending.
  Lba cold_lba = 600;
  while (f.engine->group_traffic(core::AdaptPolicy::kColdUser)
             .segments_sealed == 0) {
    f.engine->write_block(cold_lba++, 2000);
    f.engine->advance_time(2000 + 200 * (cold_lba - 600));
    ASSERT_LT(cold_lba, 700u) << "cold segment never sealed";
  }
  if (!f.engine->has_live_shadow(1)) {
    GTEST_SKIP() << "shadow expired while sealing (hot chunk filled)";
  }
  // Force GC until the sealed cold segment (holding the live shadow) is
  // collected: the engine must pad-flush the hot chunk first, expiring the
  // shadow rather than migrating a duplicate.
  for (int i = 0; i < 64 && f.engine->metrics().forced_lazy_flushes == 0;
       ++i) {
    if (!f.engine->gc_step(5000, f.engine->free_segments() + 1)) break;
    f.engine->check_invariants();
  }
  EXPECT_GT(f.engine->metrics().forced_lazy_flushes, 0u);
  EXPECT_FALSE(f.engine->has_live_shadow(1));
  f.engine->check_invariants();
}

TEST(AdaptEngineTest, DeadlineMergeWhenHostFires) {
  AdaptEngine f;
  f.heat(1, 0);
  f.engine->advance_time(200);
  f.engine->write_block(500, 1000);  // first write -> cold pending
  f.engine->write_block(1, 1010);    // hot pending
  const std::uint64_t shadows = f.policy.shadow_decisions();
  f.engine->advance_time(1105);  // only the cold (host) deadline fires
  // The host pulled the hot pending block into its own flush; the hot
  // original stays pending without a deadline.
  EXPECT_TRUE(f.engine->has_live_shadow(1));
  EXPECT_TRUE(f.engine->is_pending(1));
  EXPECT_EQ(f.policy.shadow_decisions(), shadows + 1);
  f.engine->check_invariants();
}

// ---------------------------------------------------------------------------
// Aggregation rule (§3.3) through the "+agg" wrapper
// ---------------------------------------------------------------------------

/// Routes user write `lba` to group lba / 100, so a test decides which
/// groups hold pending blocks. Groups from `user_groups` on are non-user
/// groups; LBAs routed there stand in for ADAPT's demoted user blocks. GC
/// rewrites go to the last group.
class RangePolicy final : public lss::PlacementPolicy {
 public:
  RangePolicy(GroupId groups, GroupId user_groups)
      : groups_(groups), user_groups_(user_groups) {}

  std::string_view name() const override { return "range"; }
  GroupId group_count() const override { return groups_; }
  bool is_user_group(GroupId g) const override { return g < user_groups_; }
  GroupId place_user_write(Lba lba, VTime /*now*/) override {
    return static_cast<GroupId>(lba / 100);
  }
  GroupId place_gc_rewrite(Lba /*lba*/, GroupId /*victim_group*/,
                           VTime /*now*/) override {
    return groups_ - 1;
  }
  void check_invariants(audit::Level level) const override {
    if (audit_fails && level != audit::Level::kOff) {
      throw std::logic_error("RangePolicy: audit told to fail");
    }
  }

  bool audit_fails = false;

 private:
  GroupId groups_;
  GroupId user_groups_;
};

struct WrappedEngine {
  explicit WrappedEngine(std::unique_ptr<lss::PlacementPolicy> inner,
                         const lss::LssConfig& config = engine_config())
      : policy(std::move(inner), config.chunk_blocks),
        victim(lss::make_greedy()),
        engine(config, policy, *victim, nullptr, 1) {
    engine.set_aggregation_hook(&policy);
  }

  /// Range policy with user groups 0 (donor) and 1 (host) and a GC group 2.
  static std::unique_ptr<lss::PlacementPolicy> two_user_groups() {
    return std::make_unique<RangePolicy>(3, 2);
  }

  /// Writes `n` first-time blocks of `group` at `now`, from LBA group * 100
  /// + `first` on.
  void write_range(GroupId group, Lba first, Lba n, TimeUs now) {
    for (Lba i = 0; i < n; ++i) {
      engine.write_block(group * 100 + first + i, now);
    }
  }

  /// The group hosting lba's live shadow, or kInvalidGroup without one.
  GroupId group_of_shadow(Lba lba) const {
    const lss::BlockLocation loc = engine.shadow_location(lba);
    return loc == lss::kNowhere ? kInvalidGroup
                                : engine.segments()[loc.segment].group;
  }

  const AggregationRule& rule() const { return policy.aggregation(); }

  AggregatingPolicy policy;
  std::unique_ptr<lss::VictimPolicy> victim;
  lss::LssEngine engine;
};

TEST(AggregationRuleTest, PadsWhenMergedPayloadOverflowsAChunk) {
  // Donor and host pendings that fill exactly one chunk merge...
  WrappedEngine fits(WrappedEngine::two_user_groups());
  fits.write_range(0, 0, 2, 0);
  fits.write_range(1, 0, 2, 10);
  fits.engine.advance_time(105);  // the donor's deadline fires
  EXPECT_EQ(fits.rule().shadow_decisions(), 1u);
  EXPECT_TRUE(fits.engine.has_live_shadow(0));
  EXPECT_EQ(fits.group_of_shadow(0), 1u);

  // ...one block more would spill into a second host chunk: pad in place.
  WrappedEngine spills(WrappedEngine::two_user_groups());
  spills.write_range(0, 0, 2, 0);
  spills.write_range(1, 0, 3, 10);
  spills.engine.advance_time(105);
  EXPECT_EQ(spills.rule().shadow_decisions(), 0u);
  EXPECT_EQ(spills.rule().pad_decisions(), 1u);
  EXPECT_FALSE(spills.engine.has_live_shadow(0));
  EXPECT_EQ(spills.engine.group_traffic(0).padded_flushes, 1u);
  spills.engine.check_invariants();
}

TEST(AggregationRuleTest, PredictionGatePadsDonorsWhoseChunksFill) {
  // `full_chunks` full donor flushes, then one donor and one host block.
  const auto run = [](Lba full_chunks, bool host_fires_first) {
    auto f = std::make_unique<WrappedEngine>(
        WrappedEngine::two_user_groups());
    f->write_range(0, 0, 4 * full_chunks, 0);
    EXPECT_EQ(f->engine.group_traffic(0).full_flushes, full_chunks);
    if (host_fires_first) {
      f->write_range(1, 0, 1, 1000);
      f->write_range(0, 90, 1, 1010);
    } else {
      f->write_range(0, 90, 1, 1000);
      f->write_range(1, 0, 1, 1010);
    }
    f->engine.advance_time(1105);
    return f;
  };
  // 15 flushes are too little history: aggregate optimistically.
  EXPECT_EQ(run(15, false)->rule().shadow_decisions(), 1u);
  // 16 flushes, none padded (< 2%): the donor's chunks fill on their own.
  const auto gated = run(16, false);
  EXPECT_EQ(gated->rule().shadow_decisions(), 0u);
  EXPECT_EQ(gated->engine.group_traffic(0).padded_flushes, 1u);
  // The gate speaks only for a donor whose own deadline fired.
  EXPECT_EQ(run(16, true)->rule().shadow_decisions(), 1u);
}

TEST(AggregationRuleTest, StopRuleCapsSpendUntilDonorSeals) {
  // 32-block segments, so a donor segment can out-spend the 16-block floor.
  lss::LssConfig config = engine_config();
  config.segment_chunks = 8;
  WrappedEngine f(WrappedEngine::two_user_groups(), config);
  // Each round leaves one unshadowed donor block and one host block
  // pending, and the donor's deadline fires first.
  Lba donor_lba = 0;
  Lba host_lba = 0;
  const auto round = [&](Lba i) {
    const TimeUs now = 1000 * (i + 1);
    f.write_range(0, donor_lba++, 1, now);
    // That block may have completed the donor's chunk: start a new one.
    if (f.engine.pending_blocks(0) == 0) f.write_range(0, donor_lba++, 1, now);
    f.write_range(1, host_lba++, 1, now + 1);
    f.engine.advance_time(now + 150);
    f.policy.check_invariants(audit::Level::kCounters);
  };
  for (Lba i = 0; i < 16; ++i) round(i);
  EXPECT_EQ(f.rule().shadow_decisions(), 16u);
  ASSERT_EQ(f.engine.group_traffic(0).segments_sealed, 0u);
  // 16 blocks spent: the budget floor (4 chunks) is used up, so the donor
  // pads until its segment seals.
  round(16);
  EXPECT_EQ(f.rule().shadow_decisions(), 16u);
  EXPECT_EQ(f.engine.group_traffic(0).padded_flushes, 1u);
  Lba i = 17;
  while (f.engine.group_traffic(0).segments_sealed == 0) {
    round(i++);
    ASSERT_LT(i, 32u) << "donor segment never sealed";
  }
  EXPECT_EQ(f.rule().shadow_decisions(), 16u);
  // The seal restarts the spend.
  round(i);
  EXPECT_EQ(f.rule().shadow_decisions(), 17u);
  f.engine.check_invariants();
}

TEST(AggregationRuleTest, NonUserDeadlineShadowsIntoHost) {
  WrappedEngine f(WrappedEngine::two_user_groups());
  f.engine.write_block(200, 0);  // a user block in GC group 2
  f.engine.advance_time(150);
  EXPECT_EQ(f.rule().shadow_decisions(), 1u);
  ASSERT_TRUE(f.engine.has_live_shadow(200));
  EXPECT_EQ(f.group_of_shadow(200), 1u);
  EXPECT_TRUE(f.engine.is_pending(200));  // GC chunk keeps filling
  EXPECT_EQ(f.engine.group_traffic(2).padded_flushes, 0u);
  f.engine.check_invariants();
}

TEST(AggregationWrapperTest, HostPullsTheLowestPendingDonor) {
  // WARCIP: five user clusters (host = the coldest, 4) and a GC group.
  // First writes join cluster 4; a rewrite after 1 block joins cluster 0
  // and one after ~100 blocks joins cluster 1.
  const auto host_fires = [](bool cluster0_pending) {
    const lss::LssConfig config = engine_config();
    auto f = std::make_unique<WrappedEngine>(
        std::make_unique<placement::WarcipPolicy>(config.logical_blocks,
                                                  config.segment_blocks()),
        config);
    EXPECT_EQ(f->rule().host(), 4u);
    f->engine.write_block(10, 0);
    for (Lba lba = 100; lba < 199; ++lba) f->engine.write_block(lba, 0);
    f->engine.write_block(300, 5);  // host pending; fires at 105
    f->engine.write_block(10, 10);  // cluster 1
    if (cluster0_pending) {
      f->engine.write_block(20, 10);
      f->engine.write_block(20, 10);  // cluster 0
    }
    f->engine.advance_time(105);
    f->policy.check_invariants(audit::Level::kFull);
    f->engine.check_invariants();
    return f;
  };
  // Cluster 0 has nothing pending: the donor is cluster 1.
  const auto only1 = host_fires(false);
  ASSERT_TRUE(only1->engine.has_live_shadow(10));
  EXPECT_EQ(only1->group_of_shadow(10), 4u);
  // Both pending: the lowest-indexed cluster donates.
  const auto both = host_fires(true);
  ASSERT_TRUE(both->engine.has_live_shadow(20));
  EXPECT_EQ(both->group_of_shadow(20), 4u);
  EXPECT_FALSE(both->engine.has_live_shadow(10));
  EXPECT_EQ(both->rule().shadow_decisions(), 1u);
}

TEST(AggregationWrapperTest, DelegatesToInnerPolicy) {
  auto inner = std::make_unique<placement::SepBitPolicy>(4096, 64);
  AggregatingPolicy wrapped(std::move(inner), 16);
  EXPECT_EQ(wrapped.name(), "sepbit+agg");
  EXPECT_EQ(wrapped.group_count(), 6u);
  EXPECT_TRUE(wrapped.is_user_group(0));
  EXPECT_EQ(wrapped.aggregation().host(), 1u);  // SepBIT's cold user group
  EXPECT_EQ(wrapped.place_user_write(1, 0), 1u);  // first write: cold
  wrapped.check_invariants(audit::Level::kFull);
}

// DAC numbers its regions cold-to-hot, so the rule's host (the highest
// user group) is DAC's hottest region; E1x measured that to beat hosting
// in the coldest one.
TEST(AggregationWrapperTest, DacHostsInItsHottestRegion) {
  AggregatingPolicy wrapped(std::make_unique<placement::DacPolicy>(4096), 16);
  EXPECT_EQ(wrapped.aggregation().host(), 4u);
}

TEST(AggregationWrapperTest, RejectsSingleUserGroupPolicies) {
  EXPECT_THROW(
      AggregatingPolicy(std::make_unique<placement::SepGcPolicy>(), 16),
      std::invalid_argument);
  EXPECT_THROW(AggregationRule(RangePolicy(3, 1), 16), std::invalid_argument);
  EXPECT_NO_THROW(AggregationRule(RangePolicy(3, 2), 16));
}

TEST(AggregationWrapperTest, AuditsTheWrappedPolicy) {
  auto inner = std::make_unique<RangePolicy>(3, 2);
  RangePolicy& range = *inner;
  AggregatingPolicy wrapped(std::move(inner), 16);
  EXPECT_NO_THROW(wrapped.check_invariants(audit::Level::kFull));
  range.audit_fails = true;
  EXPECT_NO_THROW(wrapped.check_invariants(audit::Level::kOff));
  EXPECT_THROW(wrapped.check_invariants(audit::Level::kCounters),
               std::logic_error);
}

TEST(AggregationWrapperTest, RejectsNullInner) {
  EXPECT_THROW(AggregatingPolicy(nullptr, 16), std::invalid_argument);
}

TEST(AggregationWrapperTest, ShadowsThroughTheEngine) {
  const lss::LssConfig config = engine_config();
  WrappedEngine f(std::make_unique<placement::SepBitPolicy>(
                      config.logical_blocks, config.segment_blocks()),
                  config);
  // Heat lba 1 (overwrite), then create overlap between hot and cold
  // pendings and let the deadline fire.
  f.engine.write_block(1, 0);
  f.engine.write_block(1, 0);
  f.engine.advance_time(500);
  f.engine.write_block(1, 1000);     // hot pending
  f.engine.write_block(700, 1010);   // first write -> cold pending
  f.engine.advance_time(1200);
  EXPECT_GT(f.rule().shadow_decisions(), 0u);
  EXPECT_GT(f.engine.metrics().shadow_blocks, 0u);
  f.policy.check_invariants(audit::Level::kCounters);
  f.engine.check_invariants();
}

TEST(AdaptEngineTest, MemoryAccountingCoversComponents) {
  AdaptConfig ac;
  ac.enable_threshold_adaptation = true;
  AdaptEngine f(ac);
  const std::size_t base = f.policy.memory_usage_bytes();
  EXPECT_GE(base, engine_config().logical_blocks * sizeof(VTime));
}

}  // namespace
}  // namespace adapt::core
