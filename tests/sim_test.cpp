// End-to-end tests for the trace-driven simulator and the experiment
// runner.
#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "obs/runtime_stats.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace adapt::sim {
namespace {

trace::Volume small_cloud_volume(std::uint64_t seed = 3) {
  trace::CloudVolumeModel model(trace::alibaba_profile(), seed);
  return model.make_volume(0, 3.0);
}

trace::Volume small_ycsb_volume() {
  trace::YcsbConfig c;
  c.working_set_blocks = 1u << 14;
  c.mean_interarrival_us = 50;
  c.seed = 17;
  return trace::make_ycsb_volume(c, 3u << 14);
}

/// A dense volume: 90%-write, 1-8-block requests, scrambled zipf 0.99
/// over 128Ki blocks, written to fill 3.
trace::Volume dense_volume() {
  constexpr std::uint64_t kCapacity = std::uint64_t{1} << 17;
  trace::Volume volume;
  volume.capacity_blocks = kCapacity;
  ScrambledZipfianGenerator zipf(kCapacity, 0.99);
  Rng rng(4242);
  std::uint64_t written = 0;
  TimeUs ts = 0;
  while (written < 3 * kCapacity) {
    trace::Record r;
    ts += rng.below(50);
    r.ts_us = ts;
    r.lba = std::min<Lba>(zipf.next(rng), kCapacity - 8);
    r.blocks = static_cast<std::uint32_t>(1 + rng.below(8));
    r.op = rng.below(100) < 90 ? trace::OpType::kWrite : trace::OpType::kRead;
    if (r.op == trace::OpType::kWrite) written += r.blocks;
    volume.records.push_back(r);
  }
  return volume;
}

class PolicyRunTest : public ::testing::TestWithParam<std::string_view> {};

TEST_P(PolicyRunTest, RunsEveryPolicyEndToEnd) {
  const trace::Volume volume = small_ycsb_volume();
  SimConfig config;
  const VolumeResult r = run_volume(volume, GetParam(), config);
  EXPECT_EQ(r.policy, GetParam());
  EXPECT_GT(r.metrics.user_blocks, 0u);
  EXPECT_GE(r.wa(), 1.0);
  EXPECT_GE(r.padding_ratio(), 0.0);
  EXPECT_LT(r.padding_ratio(), 1.0);
  EXPECT_FALSE(r.segments_per_group.empty());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyRunTest,
                         ::testing::ValuesIn(all_policy_names()),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(SimulatorTest, AggregationWrapperPolicyNames) {
  const trace::Volume volume = small_cloud_volume();
  SimConfig config;
  const VolumeResult base = run_volume(volume, "sepbit", config);
  const VolumeResult agg = run_volume(volume, "sepbit+agg", config);
  EXPECT_EQ(agg.policy, "sepbit+agg");
  EXPECT_GT(agg.metrics.shadow_blocks, 0u);
  EXPECT_EQ(base.metrics.shadow_blocks, 0u);
  EXPECT_LE(agg.metrics.padding_blocks, base.metrics.padding_blocks);
}

TEST(SimulatorTest, WrapperOnSingleUserGroupThrows) {
  SimConfig config;
  EXPECT_THROW(run_volume(small_cloud_volume(), "sepgc+agg", config),
               std::invalid_argument);
}

TEST(SimulatorTest, RmwModeEliminatesPadding) {
  const trace::Volume volume = small_cloud_volume();
  SimConfig config;
  config.lss.partial_write_mode = lss::PartialWriteMode::kReadModifyWrite;
  const VolumeResult r = run_volume(volume, "sepbit", config);
  EXPECT_EQ(r.metrics.padding_blocks, 0u);
  EXPECT_GT(r.metrics.rmw_flushes, 0u);
  EXPECT_GT(r.metrics.rmw_read_blocks, 0u);
}

TEST(SimulatorTest, UnknownPolicyThrows) {
  SimConfig config;
  EXPECT_THROW(run_volume(small_ycsb_volume(), "nope", config),
               std::invalid_argument);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const trace::Volume volume = small_cloud_volume();
  SimConfig config;
  const VolumeResult a = run_volume(volume, "adapt", config);
  const VolumeResult b = run_volume(volume, "adapt", config);
  EXPECT_EQ(a.metrics.user_blocks, b.metrics.user_blocks);
  EXPECT_EQ(a.metrics.gc_blocks, b.metrics.gc_blocks);
  EXPECT_EQ(a.metrics.padding_blocks, b.metrics.padding_blocks);
  EXPECT_EQ(a.metrics.shadow_blocks, b.metrics.shadow_blocks);
}

TEST(SimulatorTest, ArrayTrafficConsistentWithMetrics) {
  const trace::Volume volume = small_cloud_volume();
  SimConfig config;
  config.with_array = true;
  const VolumeResult r = run_volume(volume, "sepbit", config);
  const auto block_bytes = config.lss.block_bytes;
  EXPECT_EQ(r.array_totals.padding_bytes,
            r.metrics.padding_blocks * block_bytes);
  EXPECT_EQ(r.array_totals.data_bytes,
            (r.metrics.user_blocks + r.metrics.gc_blocks +
             r.metrics.shadow_blocks) *
                block_bytes);
  // Zero-pad mode: every data chunk rewrites its stripe's parity chunk.
  ASSERT_EQ(config.lss.partial_write_mode, lss::PartialWriteMode::kZeroPad);
  EXPECT_GT(r.array_totals.chunks_written, 0u);
  EXPECT_EQ(r.array_totals.parity_bytes,
            r.array_totals.chunks_written * config.lss.chunk_blocks *
                block_bytes);
}

TEST(SimulatorTest, ReadsDoNotTouchTheLog) {
  trace::Volume volume;
  volume.capacity_blocks = 4096;
  volume.records = {{0, trace::OpType::kRead, 0, 4},
                    {10, trace::OpType::kRead, 100, 1}};
  SimConfig config;
  const VolumeResult r = run_volume(volume, "sepgc", config);
  EXPECT_EQ(r.metrics.user_blocks, 0u);
  EXPECT_EQ(r.metrics.total_blocks(), 0u);
}

TEST(SimulatorTest, WritesBeyondCapacityAreClamped) {
  trace::Volume volume;
  volume.capacity_blocks = 2048;
  volume.records = {{0, trace::OpType::kWrite, 2040, 32}};
  SimConfig config;
  const VolumeResult r = run_volume(volume, "sepgc", config);
  EXPECT_EQ(r.metrics.user_blocks, 8u);
}

TEST(SimulatorTest, VictimPolicySelectable) {
  const trace::Volume volume = small_ycsb_volume();
  SimConfig config;
  config.victim_policy = "cost-benefit";
  const VolumeResult r = run_volume(volume, "sepgc", config);
  EXPECT_EQ(r.victim, "cost-benefit");
  EXPECT_GE(r.wa(), 1.0);
}

TEST(SimulatorTest, AblationSwitchesChangeBehaviour) {
  const trace::Volume volume = small_cloud_volume();
  SimConfig all_on;
  SimConfig no_aggregation;
  no_aggregation.adapt_cross_group_aggregation = false;
  const VolumeResult on = run_volume(volume, "adapt", all_on);
  const VolumeResult off = run_volume(volume, "adapt", no_aggregation);
  EXPECT_GT(on.metrics.shadow_blocks, 0u);
  EXPECT_EQ(off.metrics.shadow_blocks, 0u);
}

TEST(SimulatorTest, AdaptAblationsReduceToSepBitCore) {
  // With every mechanism off, ADAPT's routing is SepBIT's: same WA.
  const trace::Volume volume = small_cloud_volume();
  SimConfig config;
  config.adapt_threshold_adaptation = false;
  config.adapt_cross_group_aggregation = false;
  config.adapt_proactive_demotion = false;
  const VolumeResult stripped = run_volume(volume, "adapt", config);
  const VolumeResult sepbit = run_volume(volume, "sepbit", SimConfig{});
  EXPECT_DOUBLE_EQ(stripped.wa(), sepbit.wa());
  EXPECT_EQ(stripped.metrics.gc_blocks, sepbit.metrics.gc_blocks);
}

TEST(SimulatorTest, PolicyMemoryReported) {
  const trace::Volume volume = small_cloud_volume();
  SimConfig config;
  const VolumeResult adapt = run_volume(volume, "adapt", config);
  const VolumeResult sepbit = run_volume(volume, "sepbit", config);
  EXPECT_GT(adapt.policy_memory_bytes, 0u);
  EXPECT_GT(sepbit.policy_memory_bytes, 0u);
  EXPECT_GT(adapt.policy_memory_bytes, sepbit.policy_memory_bytes);
}

// Live stats count every replayed user block.
TEST(SimulatorTest, LiveStatsCountEveryUserBlock) {
  const trace::Volume volume = dense_volume();
  obs::RuntimeStats live;
  SimConfig config;
  config.seed = 42;
  config.live_stats = &live;
  const VolumeResult r = run_volume(volume, "adapt", config);
  const obs::RuntimeSnapshot snap = live.snapshot();
  EXPECT_GT(snap.blocks, 0u);
  EXPECT_EQ(snap.blocks, r.metrics.user_blocks);
}

// ---------------------------------------------------------------------------
// Experiment runner
// ---------------------------------------------------------------------------

TEST(ExperimentTest, RunsFullMatrix) {
  trace::CloudVolumeModel model(trace::alibaba_profile(), 5);
  std::vector<trace::Volume> volumes;
  for (int i = 0; i < 3; ++i) volumes.push_back(model.make_volume(i, 2.0));

  ExperimentSpec spec;
  spec.policies = {"sepgc", "adapt"};
  spec.victims = {"greedy", "cost-benefit"};
  spec.threads = 4;
  const auto results = run_experiment(spec, volumes);
  EXPECT_EQ(results.size(), 4u);
  for (const auto& [key, cell] : results) {
    EXPECT_EQ(cell.volumes.size(), 3u);
    EXPECT_GE(cell.overall_wa(), 1.0);
    EXPECT_EQ(cell.per_volume_wa().count(), 3u);
  }
}

TEST(ExperimentTest, ParallelMatchesSerial) {
  trace::CloudVolumeModel model(trace::tencent_profile(), 6);
  std::vector<trace::Volume> volumes;
  for (int i = 0; i < 3; ++i) volumes.push_back(model.make_volume(i, 2.0));

  ExperimentSpec parallel;
  parallel.policies = {"sepbit"};
  parallel.threads = 4;
  ExperimentSpec serial = parallel;
  serial.threads = 1;

  const auto a = run_experiment(parallel, volumes);
  const auto b = run_experiment(serial, volumes);
  const CellKey key{"sepbit", "greedy"};
  EXPECT_DOUBLE_EQ(a.at(key).overall_wa(), b.at(key).overall_wa());
}

TEST(ExperimentTest, OverallWaIsTrafficWeighted) {
  CellResult cell;
  VolumeResult v1;
  v1.metrics.user_blocks = 100;
  v1.metrics.gc_blocks = 100;  // WA 2
  VolumeResult v2;
  v2.metrics.user_blocks = 300;
  v2.metrics.gc_blocks = 0;  // WA 1
  cell.volumes = {v1, v2};
  // Weighted: (200 + 300) / (100 + 300) = 1.25, not the mean of {2, 1}.
  EXPECT_DOUBLE_EQ(cell.overall_wa(), 1.25);
}

TEST(ExperimentTest, EmptyCellIsZero) {
  CellResult cell;
  EXPECT_DOUBLE_EQ(cell.overall_wa(), 0.0);
  EXPECT_DOUBLE_EQ(cell.overall_padding_ratio(), 0.0);
}

}  // namespace
}  // namespace adapt::sim
