// Tests for the submission/completion-queue device model
// (lss/device_lanes.h): virtual-time semantics (admission, backpressure,
// serial service), the deterministic global completion order, bit-identical
// stats no matter how many worker threads drive disjoint lanes, a
// randomized differential against an independent naive reference model,
// and the adapt-manifest-v1 "lanes" block round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "lss/device_lanes.h"
#include "obs/export.h"

namespace adapt::lss {
namespace {

/// Payload of one chunk-sized submission.
constexpr std::uint64_t kChunkBytes = std::uint64_t{1} << 20;

DeviceLanesConfig small_config() {
  DeviceLanesConfig cfg;
  cfg.lanes = 1;
  cfg.queue_depth = 2;
  cfg.lane_bandwidth_mb_per_s = 100.0;
  return cfg;
}

TEST(DeviceLanesConfigTest, ValidateRejectsDegenerateDimensions) {
  DeviceLanesConfig cfg = small_config();
  cfg.lanes = 0;
  EXPECT_THROW(DeviceLanes{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.queue_depth = 0;
  EXPECT_THROW(DeviceLanes{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.lane_bandwidth_mb_per_s = 0.0;
  EXPECT_THROW(DeviceLanes{cfg}, std::invalid_argument);
}

TEST(DeviceLanesTest, ServiceTimeMatchesTheDeviceFormula) {
  // The bandwidth law: 100 MB/s -> 1 MB takes 10,000 us, and a lane
  // submission at that bandwidth is served in exactly that time.
  EXPECT_EQ(DeviceLanes::service_time_us(100.0, 1'000'000), 10'000u);
  DeviceLanesConfig cfg = small_config();
  cfg.lane_bandwidth_mb_per_s = 100.0;
  DeviceLanes lanes(cfg);
  const LaneCompletion c = lanes.submit(0, 1'000'000, 0);
  EXPECT_EQ(c.complete_us - c.admit_us, 10'000u);
  EXPECT_EQ(c.service_us, 10'000u);
}

TEST(DeviceLanesTest, BoundedQueueDelaysAdmissionToOldestCompletion) {
  const DeviceLanesConfig cfg = small_config();  // depth 2
  DeviceLanes lanes(cfg);
  const TimeUs service = DeviceLanes::service_time_us(
      cfg.lane_bandwidth_mb_per_s, kChunkBytes);
  ASSERT_GT(service, 0u);

  // Two fit the queue at t=0; the third finds it full and is admitted (in
  // virtual time) when the oldest outstanding submission completes.
  const LaneCompletion c1 = lanes.submit(0, kChunkBytes, 0);
  const LaneCompletion c2 = lanes.submit(0, kChunkBytes, 0);
  const LaneCompletion c3 = lanes.submit(0, kChunkBytes, 0);
  EXPECT_EQ(c1.admit_us, 0u);
  EXPECT_EQ(c1.complete_us, service);
  EXPECT_EQ(c2.admit_us, 0u);
  EXPECT_EQ(c2.complete_us, 2 * service);
  EXPECT_EQ(c3.admit_us, c1.complete_us);
  EXPECT_EQ(c3.complete_us, 3 * service);

  const DeviceLanesStats stats = lanes.stats();
  ASSERT_EQ(stats.per_lane.size(), 1u);
  EXPECT_EQ(stats.per_lane[0].submits, 3u);
  EXPECT_EQ(stats.per_lane[0].stalled_submits, 1u);
  EXPECT_EQ(stats.per_lane[0].inflight_high_water, 2u);
  EXPECT_EQ(stats.per_lane[0].busy_us, 3 * service);
  EXPECT_EQ(stats.per_lane[0].busy_until_us, 3 * service);

  // A submission after everything drained retires the ring: admitted at
  // its own wall time, alone in the queue.
  const TimeUs later = c3.complete_us + 1;
  const LaneCompletion c4 = lanes.submit(0, kChunkBytes, later);
  EXPECT_EQ(c4.admit_us, later);
  EXPECT_EQ(c4.complete_us, later + service);
  EXPECT_EQ(lanes.stats().per_lane[0].stalled_submits, 1u);
}

TEST(DeviceLanesTest, CompletionBeforeIsATotalOrder) {
  const LaneCompletion a{/*lane=*/0, /*seq=*/0, 0, 0, /*complete_us=*/100};
  const LaneCompletion b{/*lane=*/1, /*seq=*/0, 0, 0, /*complete_us=*/100};
  const LaneCompletion c{/*lane=*/0, /*seq=*/1, 0, 0, /*complete_us=*/100};
  const LaneCompletion d{/*lane=*/2, /*seq=*/0, 0, 0, /*complete_us=*/50};
  EXPECT_TRUE(completion_before(d, a));   // earlier time first
  EXPECT_TRUE(completion_before(a, b));   // tie -> lane
  EXPECT_TRUE(completion_before(a, c));   // tie -> seq
  EXPECT_FALSE(completion_before(a, a));  // irreflexive
}

TEST(DeviceLanesTest, LaneTraceSinkSeesSubmitAndComplete) {
  struct VectorSink final : TraceSink {
    std::vector<TraceEvent> events;
    void record(const TraceEvent& event) override { events.push_back(event); }
  } sink;
  const DeviceLanesConfig cfg = small_config();
  DeviceLanes lanes(cfg);
  lanes.set_trace_sink(0, &sink);
  const LaneCompletion c = lanes.submit(0, kChunkBytes, 7);
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].kind, TraceEventKind::kLaneSubmit);
  EXPECT_EQ(sink.events[0].a, c.seq);
  EXPECT_EQ(sink.events[0].c, c.admit_us);
  EXPECT_EQ(sink.events[1].kind, TraceEventKind::kLaneComplete);
  EXPECT_EQ(sink.events[1].c, c.complete_us);
  lanes.set_trace_sink(0, nullptr);
  lanes.submit(0, kChunkBytes, 8);
  EXPECT_EQ(sink.events.size(), 2u);
}

// ---------------------------------------------------------------------------
// Determinism: per-lane stats and the global completion order are a pure
// function of the per-lane submission schedules, no matter how many worker
// threads drive them.

struct ScheduledSubmit {
  std::uint32_t lane = 0;
  std::uint64_t bytes = 0;
  TimeUs now_us = 0;
};

/// Fixed randomized schedule: per-lane submission streams with a
/// nondecreasing per-lane clock and mixed payload sizes.
std::vector<std::vector<ScheduledSubmit>> make_schedule(std::uint32_t lanes,
                                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ScheduledSubmit>> per_lane(lanes);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    TimeUs now = 0;
    for (int i = 0; i < 400; ++i) {
      now += rng.below(150);
      per_lane[lane].push_back(ScheduledSubmit{
          lane, (1 + rng.below(64)) * 4096, now});
    }
  }
  return per_lane;
}

void expect_histograms_equal(const Log2Histogram& a, const Log2Histogram& b,
                             const char* name) {
  EXPECT_EQ(a.count(), b.count()) << name;
  EXPECT_EQ(a.sum(), b.sum()) << name;
  EXPECT_EQ(a.max_value(), b.max_value()) << name;
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << name << " bucket " << i;
  }
}

void expect_stats_equal(const DeviceLanesStats& a, const DeviceLanesStats& b) {
  ASSERT_EQ(a.per_lane.size(), b.per_lane.size());
  for (std::size_t i = 0; i < a.per_lane.size(); ++i) {
    EXPECT_EQ(a.per_lane[i].submits, b.per_lane[i].submits) << "lane " << i;
    EXPECT_EQ(a.per_lane[i].stalled_submits, b.per_lane[i].stalled_submits)
        << "lane " << i;
    EXPECT_EQ(a.per_lane[i].busy_us, b.per_lane[i].busy_us) << "lane " << i;
    EXPECT_EQ(a.per_lane[i].inflight_high_water,
              b.per_lane[i].inflight_high_water)
        << "lane " << i;
    EXPECT_EQ(a.per_lane[i].busy_until_us, b.per_lane[i].busy_until_us)
        << "lane " << i;
  }
  expect_histograms_equal(a.queue_depth_hist, b.queue_depth_hist,
                          "queue_depth_hist");
  expect_histograms_equal(a.submit_complete_us, b.submit_complete_us,
                          "submit_complete_us");
}

/// Drives `schedule` with `workers` threads (worker w owns the lanes with
/// lane % workers == w — disjoint ownership, concurrent wall-clock
/// interleaving) and returns the stats plus ALL completions sorted by the
/// deterministic global order.
std::pair<DeviceLanesStats, std::vector<LaneCompletion>> drive(
    const DeviceLanesConfig& cfg,
    const std::vector<std::vector<ScheduledSubmit>>& schedule,
    std::uint32_t workers) {
  DeviceLanes lanes(cfg);
  std::vector<std::vector<LaneCompletion>> done(schedule.size());
  {
    std::vector<Thread> threads;
    threads.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (std::uint32_t lane = w; lane < schedule.size();
             lane += workers) {
          for (const ScheduledSubmit& s : schedule[lane]) {
            done[lane].push_back(lanes.submit(s.lane, s.bytes, s.now_us));
          }
        }
      });
    }
  }  // joins
  std::vector<LaneCompletion> all;
  for (const auto& lane_done : done) {
    all.insert(all.end(), lane_done.begin(), lane_done.end());
  }
  std::sort(all.begin(), all.end(),
            [](const LaneCompletion& a, const LaneCompletion& b) {
              return completion_before(a, b);
            });
  return {lanes.stats(), all};
}

TEST(DeviceLanesDeterminismTest, WorkerCountNeverChangesStatsOrOrder) {
  DeviceLanesConfig cfg;
  cfg.lanes = 4;
  cfg.queue_depth = 8;
  cfg.lane_bandwidth_mb_per_s = 150.0;
  const auto schedule = make_schedule(cfg.lanes, /*seed=*/42);

  const auto [base_stats, base_order] = drive(cfg, schedule, 1);
  ASSERT_FALSE(base_order.empty());
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    for (int repeat = 0; repeat < 2; ++repeat) {
      const auto [stats, order] = drive(cfg, schedule, workers);
      expect_stats_equal(stats, base_stats);
      ASSERT_EQ(order.size(), base_order.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i].lane, base_order[i].lane) << "completion " << i;
        EXPECT_EQ(order[i].seq, base_order[i].seq) << "completion " << i;
        EXPECT_EQ(order[i].admit_us, base_order[i].admit_us)
            << "completion " << i;
        EXPECT_EQ(order[i].complete_us, base_order[i].complete_us)
            << "completion " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: DeviceLanes (monotone ring) vs an independent
// naive reference that keeps every outstanding completion in a flat vector
// and scans for the oldest — same semantics, different data structure.

struct NaiveLane {
  std::vector<TimeUs> outstanding;
  TimeUs busy_until = 0;
};

LaneCompletion naive_submit(NaiveLane& lane, std::uint32_t depth,
                            double bandwidth_mb_per_s, std::uint64_t bytes,
                            TimeUs now_us) {
  std::erase_if(lane.outstanding,
                [now_us](TimeUs t) { return t <= now_us; });
  TimeUs admit = now_us;
  if (lane.outstanding.size() == depth) {
    const auto oldest =
        std::min_element(lane.outstanding.begin(), lane.outstanding.end());
    admit = *oldest;
    lane.outstanding.erase(oldest);
  }
  const TimeUs service =
      DeviceLanes::service_time_us(bandwidth_mb_per_s, bytes);
  LaneCompletion c;
  c.submit_us = now_us;
  c.admit_us = admit;
  c.complete_us = std::max(admit, lane.busy_until) + service;
  lane.busy_until = c.complete_us;
  lane.outstanding.push_back(c.complete_us);
  return c;
}

TEST(DeviceLanesDifferentialTest, MatchesNaiveModelOnRandomSchedules) {
  for (const std::uint64_t seed : {1ull, 7ull, 12345ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DeviceLanesConfig cfg;
    cfg.lanes = 3;
    cfg.queue_depth = 4;
    cfg.lane_bandwidth_mb_per_s = 80.0;
    DeviceLanes lanes(cfg);
    std::vector<NaiveLane> naive(cfg.lanes);

    Rng rng(seed);
    TimeUs now = 0;
    for (int i = 0; i < 3000; ++i) {
      now += rng.below(100);
      const auto lane = static_cast<std::uint32_t>(rng.below(cfg.lanes));
      const std::uint64_t bytes = (1 + rng.below(128)) * 4096;
      const LaneCompletion got = lanes.submit(lane, bytes, now);
      const LaneCompletion want = naive_submit(
          naive[lane], cfg.queue_depth, cfg.lane_bandwidth_mb_per_s, bytes,
          now);
      ASSERT_EQ(got.admit_us, want.admit_us) << "submission " << i;
      ASSERT_EQ(got.complete_us, want.complete_us) << "submission " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// adapt-manifest-v1 "lanes" block round trip.

TEST(DeviceLanesManifestTest, LanesBlockRoundTripsThroughValidator) {
  DeviceLanesConfig cfg;
  cfg.lanes = 2;
  cfg.queue_depth = 2;
  cfg.lane_bandwidth_mb_per_s = 100.0;
  DeviceLanes lanes(cfg);
  for (std::uint32_t i = 0; i < 16; ++i) {
    lanes.submit(i % cfg.lanes, kChunkBytes, 0);
  }

  obs::RunManifest m;
  m.tool = "prototype";
  m.policy = "adapt";
  m.victim = "greedy";
  m.workload = "ycsb";
  m.lanes = lanes.stats();
  ASSERT_FALSE(m.lanes.empty());
  EXPECT_GT(m.lanes.total_submits(), 0u);
  const std::string json = manifest_json(m);
  EXPECT_NE(json.find("\"lanes\""), std::string::npos);
  EXPECT_NE(json.find("\"stalled_submits\""), std::string::npos);
  obs::validate_manifest_json(json);

  // Truncating the per_lane array breaks the count cross-check.
  const std::string good = "\"count\":2";
  const std::size_t at = json.find(good);
  ASSERT_NE(at, std::string::npos);
  std::string tampered = json;
  tampered.replace(at, good.size(), "\"count\":3");
  EXPECT_THROW(obs::validate_manifest_json(tampered), std::invalid_argument);

  // A manifest without lane stats omits the block entirely.
  obs::RunManifest plain;
  const std::string plain_json = manifest_json(plain);
  EXPECT_EQ(plain_json.find("\"lanes\""), std::string::npos);
  obs::validate_manifest_json(plain_json);
}

}  // namespace
}  // namespace adapt::lss
