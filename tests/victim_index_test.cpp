// Differential and regression tests for GC victim selection: a randomized
// churn of seal / invalidate / free notifications is applied to every
// policy while a scan-based reference (replicating the seed
// implementation, which rebuilt an ascending-id candidate list per call)
// checks each selection. Greedy's incremental bucket index and windowed's
// seal-order list must match the reference pick for pick, d-choice and
// random must consume the same draws and pick the same segments, and
// cost-benefit must reach the maximal score. A fixed-seed end-to-end run
// pins LssMetrics from the pre-index implementation.
#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pinned_replay.h"
#include "lss/victim_policy.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace adapt::lss {
namespace {

constexpr std::uint32_t kBlocks = 32;

std::vector<SegmentId> candidates_of(const std::vector<Segment>& segments) {
  std::vector<SegmentId> c;
  for (SegmentId id = 0; id < segments.size(); ++id) {
    if (!segments[id].free && segments[id].sealed) c.push_back(id);
  }
  return c;
}

SegmentId scan_greedy(const std::vector<SegmentId>& candidates,
                      const std::vector<Segment>& segments) {
  SegmentId best = kInvalidSegment;
  std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
  for (SegmentId id : candidates) {
    if (segments[id].valid_count < best_valid) {
      best_valid = segments[id].valid_count;
      best = id;
    }
  }
  return best;
}

double cb_score(const Segment& seg, VTime now) {
  const double u = seg.utilization();
  const double age =
      static_cast<double>(now >= seg.seal_vtime ? now - seg.seal_vtime : 0) +
      1.0;
  return (1.0 - u) * age / (1.0 + u);
}

SegmentId scan_random(const std::vector<SegmentId>& candidates, Rng& rng) {
  if (candidates.empty()) return kInvalidSegment;
  return candidates[rng.below(candidates.size())];
}

SegmentId scan_d_choice(const std::vector<SegmentId>& candidates,
                        const std::vector<Segment>& segments,
                        std::uint32_t d, Rng& rng) {
  if (candidates.empty()) return kInvalidSegment;
  SegmentId best = kInvalidSegment;
  std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t i = 0; i < d; ++i) {
    const SegmentId id = candidates[rng.below(candidates.size())];
    if (segments[id].valid_count < best_valid) {
      best_valid = segments[id].valid_count;
      best = id;
    }
  }
  return best;
}

/// Greedy over the `window` oldest candidates. Seal vtimes in the harness
/// are unique (monotonic counter), so sorting by them is unambiguous.
SegmentId scan_windowed(const std::vector<SegmentId>& candidates,
                        const std::vector<Segment>& segments,
                        std::uint32_t window) {
  if (candidates.empty()) return kInvalidSegment;
  std::vector<SegmentId> sorted(candidates);
  std::sort(sorted.begin(), sorted.end(), [&](SegmentId a, SegmentId b) {
    return segments[a].seal_vtime < segments[b].seal_vtime;
  });
  const std::size_t w = std::min<std::size_t>(window, sorted.size());
  SegmentId best = kInvalidSegment;
  std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < w; ++i) {
    if (segments[sorted[i]].valid_count < best_valid) {
      best_valid = segments[sorted[i]].valid_count;
      best = sorted[i];
    }
  }
  return best;
}

/// Random pool churn with a fixed seed: seals free segments with random
/// valid counts, invalidates live blocks of sealed segments, and frees
/// sealed segments, broadcasting every transition to the attached
/// policies — the same notification stream LssEngine would emit.
class ChurnHarness {
 public:
  ChurnHarness(std::uint32_t total_segments, std::uint64_t seed)
      : rng_(seed) {
    segments_.resize(total_segments);
    for (Segment& s : segments_) s.reset(kBlocks);
  }

  void attach(VictimPolicy& policy) {
    policy.bind_pool(static_cast<std::uint32_t>(segments_.size()), kBlocks);
    policies_.push_back(&policy);
  }

  const std::vector<Segment>& segments() const { return segments_; }

  void step() {
    const std::uint64_t r = rng_.below(100);
    if (r < 40) {
      seal_random_free();
    } else if (r < 90) {
      invalidate_random();
    } else {
      free_random_sealed();
    }
  }

 private:
  template <typename Pred>
  SegmentId pick(Pred pred) {
    std::vector<SegmentId> matching;
    for (SegmentId id = 0; id < segments_.size(); ++id) {
      if (pred(segments_[id])) matching.push_back(id);
    }
    if (matching.empty()) return kInvalidSegment;
    return matching[rng_.below(matching.size())];
  }

  void seal_random_free() {
    const SegmentId id = pick([](const Segment& s) { return s.free; });
    if (id == kInvalidSegment) return;
    Segment& seg = segments_[id];
    seg.free = false;
    seg.sealed = true;
    seg.write_ptr = kBlocks;
    seg.valid_count = static_cast<std::uint32_t>(rng_.below(kBlocks + 1));
    seg.seal_vtime = next_vtime_++;
    for (VictimPolicy* p : policies_) {
      p->on_seal(id, seg.valid_count, seg.seal_vtime);
    }
  }

  void invalidate_random() {
    const SegmentId id = pick([](const Segment& s) {
      return s.sealed && !s.free && s.valid_count > 0;
    });
    if (id == kInvalidSegment) return;
    Segment& seg = segments_[id];
    const std::uint32_t old_valid = seg.valid_count--;
    for (VictimPolicy* p : policies_) {
      p->on_valid_delta(id, old_valid, seg.valid_count);
    }
  }

  void free_random_sealed() {
    const SegmentId id = pick(
        [](const Segment& s) { return s.sealed && !s.free; });
    if (id == kInvalidSegment) return;
    segments_[id].reset(kBlocks);
    for (VictimPolicy* p : policies_) p->on_free(id);
  }

  std::vector<Segment> segments_;
  std::vector<VictimPolicy*> policies_;
  Rng rng_;
  VTime next_vtime_ = 1;
};

TEST(VictimIndexDifferentialTest, GreedyMatchesScanUnderChurn) {
  ChurnHarness harness(512, /*seed=*/0xfeedbeef);
  auto greedy = make_greedy();
  harness.attach(*greedy);
  Rng sel_rng(1);
  for (int i = 0; i < 6000; ++i) {
    harness.step();
    if (i % 5 != 0) continue;
    const auto candidates = candidates_of(harness.segments());
    const SegmentId expected = scan_greedy(candidates, harness.segments());
    const SegmentId got =
        greedy->select(harness.segments(), /*now=*/i, sel_rng);
    ASSERT_EQ(got, expected) << "step " << i;
    if (got != kInvalidSegment) {
      // The selection-equivalence guarantee: pool-wide minimal valid count.
      for (SegmentId id : candidates) {
        ASSERT_LE(harness.segments()[got].valid_count,
                  harness.segments()[id].valid_count);
      }
    }
  }
}

TEST(VictimIndexDifferentialTest, RandomAndDChoiceMatchScanExactly) {
  ChurnHarness harness(512, /*seed=*/0xabcdef01);
  auto random = make_random();
  auto d_choice = make_d_choice(8);
  harness.attach(*random);
  harness.attach(*d_choice);
  // Identically seeded selection streams: the policies' ascending-id pass
  // must consume the same draws as the seed's candidates[k].
  Rng rng_policy(77);
  Rng rng_scan(77);
  for (int i = 0; i < 4000; ++i) {
    harness.step();
    if (i % 7 != 0) continue;
    const auto candidates = candidates_of(harness.segments());
    ASSERT_EQ(random->select(harness.segments(), i, rng_policy),
              scan_random(candidates, rng_scan))
        << "step " << i;
    ASSERT_EQ(d_choice->select(harness.segments(), i, rng_policy),
              scan_d_choice(candidates, harness.segments(), 8, rng_scan))
        << "step " << i;
  }
}

TEST(VictimIndexDifferentialTest, CostBenefitAchievesMaximalScore) {
  ChurnHarness harness(512, /*seed=*/0x5eedc0de);
  auto cb = make_cost_benefit();
  harness.attach(*cb);
  Rng sel_rng(1);
  for (int i = 0; i < 4000; ++i) {
    harness.step();
    if (i % 7 != 0) continue;
    const auto candidates = candidates_of(harness.segments());
    const VTime now = 100000;
    const SegmentId got = cb->select(harness.segments(), now, sel_rng);
    if (candidates.empty()) {
      ASSERT_EQ(got, kInvalidSegment);
      continue;
    }
    double best = -1.0;
    for (SegmentId id : candidates) {
      best = std::max(best, cb_score(harness.segments()[id], now));
    }
    ASSERT_NE(got, kInvalidSegment);
    ASSERT_DOUBLE_EQ(cb_score(harness.segments()[got], now), best)
        << "step " << i;
  }
}

TEST(VictimIndexDifferentialTest, WindowedMatchesScanWithUniqueSealTimes) {
  ChurnHarness harness(512, /*seed=*/0x12345678);
  auto windowed = make_windowed_greedy(16);
  harness.attach(*windowed);
  Rng sel_rng(1);
  for (int i = 0; i < 4000; ++i) {
    harness.step();
    if (i % 7 != 0) continue;
    const auto candidates = candidates_of(harness.segments());
    ASSERT_EQ(windowed->select(harness.segments(), i, sel_rng),
              scan_windowed(candidates, harness.segments(), 16))
        << "step " << i;
  }
}

// Full fixed-seed volume replay with policy=adapt, victim=greedy
// (tests/pinned_replay.h). Greedy's incremental index must reproduce the
// scan-based selection's counters bit-identically, proving the index is
// WA-neutral end to end.
TEST(VictimIndexRegressionTest, AdaptGreedyFixedSeedMetricsUnchanged) {
  namespace pinned = testing::pinned_replay;
  const trace::Volume volume = pinned::volume();
  ASSERT_EQ(volume.records.size(), pinned::kRecords);
  sim::SimConfig config;
  config.victim_policy = "greedy";
  config.seed = 42;
  const sim::VolumeResult r = sim::run_volume(volume, "adapt", config);
  const LssMetrics& m = r.metrics;
  pinned::expect_write_counters(m);
  pinned::expect_read_counters(m);
  EXPECT_EQ(m.gc_migrated_blocks, pinned::kGcBlocks);
  EXPECT_EQ(m.rmw_flushes, 0u);
  std::uint64_t sealed = 0, reclaimed = 0, full = 0, padded = 0;
  for (const GroupTraffic& g : m.groups) {
    sealed += g.segments_sealed;
    reclaimed += g.segments_reclaimed;
    full += g.full_flushes;
    padded += g.padded_flushes;
  }
  EXPECT_EQ(sealed, pinned::kSegmentsSealed);
  EXPECT_EQ(reclaimed, pinned::kGcRuns);
  EXPECT_EQ(full, pinned::kFullFlushes);
  EXPECT_EQ(padded, pinned::kPaddedFlushes);
}

}  // namespace
}  // namespace adapt::lss
