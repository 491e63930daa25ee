// The fixed-seed ADAPT replay that several suites pin: alibaba volume 0 at
// fill 3 (generator seed 42), policy adapt, greedy GC, simulator seed 42.
// Each suite replays it under a different passive attachment (a victim
// index, the series sampler, trace sinks) and must reproduce these counters
// exactly. The values live here once, so an intended change to an ADAPT
// decision re-pins them in one place.
#pragma once

#include <cstdint>

#include <gtest/gtest.h>

#include "lss/metrics.h"
#include "trace/synthetic.h"

namespace adapt::testing::pinned_replay {

inline constexpr std::uint64_t kRecords = 66314;

inline constexpr std::uint64_t kUserBlocks = 173331;
inline constexpr std::uint64_t kGcBlocks = 89742;
inline constexpr std::uint64_t kShadowBlocks = 9783;
inline constexpr std::uint64_t kPaddingBlocks = 146536;
inline constexpr std::uint64_t kGcRuns = 1367;
inline constexpr std::uint64_t kForcedLazyFlushes = 16;

inline constexpr std::uint64_t kReadBlocks = 140561;
inline constexpr std::uint64_t kReadChunkFetches = 47185;
inline constexpr std::uint64_t kReadBufferHits = 465;
inline constexpr std::uint64_t kReadUnmapped = 34479;

/// Sums over the groups' GroupTraffic rows.
inline constexpr std::uint64_t kSegmentsSealed = 1634;
inline constexpr std::uint64_t kFullFlushes = 12841;
inline constexpr std::uint64_t kPaddedFlushes = 13371;

inline trace::Volume volume() {
  trace::CloudVolumeModel model(trace::alibaba_profile(), /*seed=*/42);
  return model.make_volume(/*volume_id=*/0, /*fill_factor=*/3.0);
}

/// The write-path counters every pinning suite checks.
inline void expect_write_counters(const lss::LssMetrics& m) {
  EXPECT_EQ(m.user_blocks, kUserBlocks);
  EXPECT_EQ(m.gc_blocks, kGcBlocks);
  EXPECT_EQ(m.shadow_blocks, kShadowBlocks);
  EXPECT_EQ(m.padding_blocks, kPaddingBlocks);
  EXPECT_EQ(m.gc_runs, kGcRuns);
  EXPECT_EQ(m.forced_lazy_flushes, kForcedLazyFlushes);
}

inline void expect_read_counters(const lss::LssMetrics& m) {
  EXPECT_EQ(m.read_blocks, kReadBlocks);
  EXPECT_EQ(m.read_chunk_fetches, kReadChunkFetches);
  EXPECT_EQ(m.read_buffer_hits, kReadBufferHits);
  EXPECT_EQ(m.read_unmapped, kReadUnmapped);
}

}  // namespace adapt::testing::pinned_replay
