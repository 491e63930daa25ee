// Tests for the live runtime snapshot (obs/runtime_stats.h): seqlock
// coherence under concurrent writers/readers (the TSan tier runs this too),
// the LiveStatsObserver stride adapter, and the format_live_line renderer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "lss/op_timeline.h"
#include "lss/victim_policy.h"
#include "obs/runtime_stats.h"
#include "test_support.h"

namespace adapt::obs {
namespace {

lss::BatchSample make_sample(std::uint64_t ops, std::uint64_t blocks,
                             TimeUs total_each) {
  lss::BatchSample s;
  s.shard = 0;
  s.ops = ops;
  s.blocks = blocks;
  for (std::uint64_t i = 0; i < ops; ++i) {
    // submit=0, joined=0, applied=0, durable=total_each, service=total_each:
    // the whole latency lands in device_service, total == durable.
    s.breakdown.add_op(0, 0, 0, total_each, total_each);
  }
  return s;
}

TEST(RuntimeStatsTest, SnapshotReflectsPublishedBatches) {
  RuntimeStats stats;
  stats.publish(make_sample(3, 12, 100));
  stats.publish(make_sample(1, 4, 200));

  const RuntimeSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_EQ(snap.ops, 4u);
  EXPECT_EQ(snap.blocks, 16u);
  EXPECT_EQ(snap.intake_wait_us, 0u);
  EXPECT_EQ(snap.batch_apply_us, 0u);
  EXPECT_EQ(snap.lane_queue_us, 0u);
  EXPECT_EQ(snap.device_service_us, 3u * 100 + 200);
  EXPECT_EQ(snap.total_us.count(), 4u);
  EXPECT_EQ(snap.total_us.sum(), 3u * 100 + 200);
  EXPECT_EQ(snap.total_us.max_value(), 200u);
  EXPECT_GT(snap.p99_us(), 0.0);
}

TEST(RuntimeStatsTest, ProgressPublishesOpsAndBlocksOnly) {
  RuntimeStats stats;
  stats.publish_progress(10, 10);
  const RuntimeSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.batches, 0u);  // bare progress is not a batch
  EXPECT_EQ(snap.ops, 10u);
  EXPECT_EQ(snap.blocks, 10u);
  EXPECT_TRUE(snap.total_us.empty());
  EXPECT_EQ(snap.p99_us(), 0.0);  // empty distribution must not throw
}

// Seqlock coherence: writers maintain blocks == 2 * ops at every publish,
// so ANY snapshot a reader accepts must satisfy the invariant exactly — a
// torn read (payload from two different publishes) would break it. This is
// the test the TSan tier runs to prove reader/writer race-freedom.
TEST(RuntimeStatsTest, ConcurrentReadersNeverObserveTornSnapshots) {
  RuntimeStats stats;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kPublishesPerWriter = 4000;

  // Readers start first, and writers publish only once every reader has
  // taken a snapshot, so reads overlap writes however the host schedules.
  std::vector<Thread> threads;
  threads.reserve(kReaders + kWriters);
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> readers_started{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&stats, &stop, &reads, &readers_started] {
      bool started = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const RuntimeSnapshot snap = stats.snapshot();
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
        ASSERT_EQ(snap.blocks, 2 * snap.ops)
            << "torn snapshot at batch " << snap.batches;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&stats, &readers_started] {
      while (readers_started.load(std::memory_order_acquire) < kReaders) {
        yield_now();
      }
      for (std::uint64_t i = 0; i < kPublishesPerWriter; ++i) {
        const std::uint64_t k = (i % 7) + 1;
        stats.publish_progress(k, 2 * k);
      }
    });
  }
  // Join the writers (the last kWriters threads), then stop the readers.
  for (int w = 0; w < kWriters; ++w) {
    threads[static_cast<size_t>(kReaders + w)].join();
  }
  stop.store(true, std::memory_order_relaxed);
  threads.clear();  // joins readers

  std::uint64_t per_writer_ops = 0;
  for (std::uint64_t i = 0; i < kPublishesPerWriter; ++i) {
    per_writer_ops += (i % 7) + 1;
  }
  const RuntimeSnapshot final_snap = stats.snapshot();
  EXPECT_EQ(final_snap.ops, kWriters * per_writer_ops);
  EXPECT_EQ(final_snap.blocks, 2 * final_snap.ops);
  EXPECT_GT(reads.load(), 0u);
}

TEST(LiveStatsObserverTest, StridePublishingAndFlushRemainder) {
  RuntimeStats stats;
  LiveStatsObserver obs(stats, nullptr, /*stride=*/4);
  testing::TwoGroupPolicy policy;
  const auto victim = lss::make_victim_policy("greedy");
  lss::LssEngine engine(testing::small_config(), policy, *victim, nullptr, 1);
  for (int i = 0; i < 10; ++i) obs.on_user_block(engine, 0);
  RuntimeSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.ops, 8u);  // two full strides published, remainder pending
  obs.flush();
  snap = stats.snapshot();
  EXPECT_EQ(snap.ops, 10u);
  obs.flush();  // idempotent on empty remainder
  EXPECT_EQ(stats.snapshot().ops, 10u);
}

TEST(FormatLiveLineTest, OmitsPhaseTailWithoutPhaseData) {
  RuntimeSnapshot prev;
  RuntimeSnapshot cur;
  cur.ops = 100;
  cur.blocks = 100;
  const std::string line = format_live_line(prev, cur, 1.0);
  EXPECT_NE(line.find("live: ops=100 (+100)"), std::string::npos) << line;
  EXPECT_NE(line.find("thpt=100"), std::string::npos) << line;
  EXPECT_EQ(line.find("phase%"), std::string::npos) << line;
}

TEST(FormatLiveLineTest, PhasePercentagesCoverTheBreakdown) {
  RuntimeStats stats;
  lss::BatchSample s;
  s.ops = 1;
  s.blocks = 4;
  // submit=0, joined=10, applied=30, durable=100, service=40:
  // intake=10 apply=20 queue=30 service=40, total=100.
  s.breakdown.add_op(0, 10, 30, 100, 40);
  stats.publish(s);
  const std::string line =
      format_live_line(RuntimeSnapshot{}, stats.snapshot(), 2.0);
  EXPECT_NE(line.find("phase%"), std::string::npos) << line;
  EXPECT_NE(line.find("intake=10"), std::string::npos) << line;
  EXPECT_NE(line.find("apply=20"), std::string::npos) << line;
  EXPECT_NE(line.find("queue=30"), std::string::npos) << line;
  EXPECT_NE(line.find("service=40"), std::string::npos) << line;
  EXPECT_NE(line.find("p99="), std::string::npos) << line;
}

}  // namespace
}  // namespace adapt::obs
