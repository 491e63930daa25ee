// Tests for the live runtime snapshot (obs/runtime_stats.h): snapshot
// coherence under concurrent writers/readers (the TSan tier runs this too),
// the LiveStatsObserver stride adapter, the format_live_line renderer and
// the LiveStatsPrinter thread.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
  EXPECT_EQ(snap.ops, 4u);
  EXPECT_EQ(snap.blocks, 16u);
  EXPECT_EQ(snap.intake_wait_us, 0u);
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
  EXPECT_EQ(snap.ops, 10u);
  EXPECT_EQ(snap.blocks, 10u);
  EXPECT_TRUE(snap.total_us.empty());
  EXPECT_EQ(snap.p99_us(), 0.0);  // empty distribution must not throw
}

// Snapshot coherence: writers maintain blocks == 2 * ops at every publish,
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
            << "torn snapshot at ops " << snap.ops;
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
  // submit=0, joined=applied=10 (each write commits alone, so the apply
  // phase is empty), durable=100, service=40: intake=10 queue=50
  // service=40, total=100.
  s.breakdown.add_op(0, 10, 10, 100, 40);
  stats.publish(s);
  const std::string line =
      format_live_line(RuntimeSnapshot{}, stats.snapshot(), 2.0);
  EXPECT_NE(line.find("phase%"), std::string::npos) << line;
  EXPECT_NE(line.find("intake=10.0 queue=50.0 service=40.0"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find("apply="), std::string::npos) << line;
  EXPECT_NE(line.find("p99="), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// LiveStatsPrinter
// ---------------------------------------------------------------------------

struct LiveLine {
  unsigned long long ops = 0;
  unsigned long long delta = 0;
  double thpt = -1.0;
};

/// Anonymous temp file a printer writes to; read back once it stopped.
class PrinterOutput {
 public:
  PrinterOutput() : file_(std::tmpfile()), fd_(fileno(file_)) {}
  ~PrinterOutput() { std::fclose(file_); }
  PrinterOutput(const PrinterOutput&) = delete;
  PrinterOutput& operator=(const PrinterOutput&) = delete;

  std::FILE* file() const { return file_; }

  /// Bytes the printer has flushed so far; safe while it runs (fstat on
  /// the descriptor, never the shared FILE).
  long long flushed_bytes() const {
    struct stat st {};
    return fstat(fd_, &st) == 0 ? static_cast<long long>(st.st_size) : 0;
  }

  std::vector<LiveLine> lines() const {
    std::rewind(file_);
    std::vector<LiveLine> out;
    char buf[512];
    while (std::fgets(buf, sizeof buf, file_) != nullptr) {
      LiveLine l;
      EXPECT_EQ(std::sscanf(buf, "live: ops=%llu (+%llu)", &l.ops, &l.delta),
                2)
          << buf;
      if (const char* t = std::strstr(buf, "thpt="); t != nullptr) {
        l.thpt = std::strtod(t + 5, nullptr);
      }
      out.push_back(l);
    }
    return out;
  }

 private:
  std::FILE* file_;
  int fd_;
};

// A run shorter than the interval prints exactly one line, on stop, and
// at once: its delta is everything published and its rate divides by the
// time that passed, not by the interval (1000 ops / 10 s would read 100).
TEST(LiveStatsPrinterTest, ShortRunPrintsOneLineOverTheElapsedTime) {
  RuntimeStats stats;
  PrinterOutput out;
  const auto start = std::chrono::steady_clock::now();
  {
    LiveStatsPrinter printer(stats, /*interval_s=*/10.0, out.file());
    stats.publish_progress(1000, 1000);
    sleep_for_us(10'000);
  }
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(waited_s, 5.0) << "stop must not wait out the interval";
  const std::vector<LiveLine> lines = out.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].ops, 1000u);
  EXPECT_EQ(lines[0].delta, 1000u);
  EXPECT_GT(lines[0].thpt, 1000.0);
}

// Every line spans from the previous line's snapshot: the deltas sum to
// the total, and the last line carries only what came after the line
// before it.
TEST(LiveStatsPrinterTest, LastLineCoversOnlyTheRestOfTheRun) {
  RuntimeStats stats;
  PrinterOutput out;
  LiveStatsPrinter printer(stats, /*interval_s=*/0.01, out.file());
  stats.publish_progress(100, 100);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (out.flushed_bytes() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    sleep_for_us(1000);
  }
  stats.publish_progress(50, 50);
  printer.stop();

  const std::vector<LiveLine> lines = out.lines();
  ASSERT_GE(lines.size(), 2u);
  unsigned long long sum = 0;
  for (const LiveLine& l : lines) sum += l.delta;
  EXPECT_EQ(sum, 150u);
  EXPECT_EQ(lines.back().ops, 150u);
  EXPECT_EQ(lines.back().delta, lines.back().ops - lines[lines.size() - 2].ops);
}

}  // namespace
}  // namespace adapt::obs
