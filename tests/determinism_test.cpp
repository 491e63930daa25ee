// Replay-determinism regression: the same volume replayed twice with the
// same seed must produce byte-identical adapt-series-v1 JSONL and identical
// LssMetrics — with sampling on or off. Guards against hidden
// nondeterminism creeping into the engine (iteration order over hash maps,
// uninitialised state).
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace adapt {
namespace {

trace::Volume test_volume() {
  trace::CloudVolumeModel model(trace::alibaba_profile(), /*seed=*/42);
  return model.make_volume(/*index=*/0, /*fill_factor=*/1.5);
}

sim::SimConfig sampled_config() {
  sim::SimConfig config;
  config.seed = 42;
  config.sampling_enabled = true;
  config.sampling.window_blocks = 512;
  config.sampling.max_rows = 64;
  return config;
}

std::string series_bytes(const sim::VolumeResult& result) {
  std::ostringstream out;
  obs::write_series_jsonl(out, *result.series);
  return out.str();
}

void expect_same_metrics(const lss::LssMetrics& a, const lss::LssMetrics& b) {
  EXPECT_EQ(a.user_blocks, b.user_blocks);
  EXPECT_EQ(a.gc_blocks, b.gc_blocks);
  EXPECT_EQ(a.shadow_blocks, b.shadow_blocks);
  EXPECT_EQ(a.padding_blocks, b.padding_blocks);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.gc_migrated_blocks, b.gc_migrated_blocks);
  EXPECT_EQ(a.forced_lazy_flushes, b.forced_lazy_flushes);
  EXPECT_EQ(a.rmw_flushes, b.rmw_flushes);
  EXPECT_EQ(a.rmw_blocks, b.rmw_blocks);
  EXPECT_EQ(a.rmw_read_blocks, b.rmw_read_blocks);
  EXPECT_EQ(a.read_blocks, b.read_blocks);
  EXPECT_EQ(a.read_chunk_fetches, b.read_chunk_fetches);
  EXPECT_EQ(a.read_buffer_hits, b.read_buffer_hits);
  EXPECT_EQ(a.read_unmapped, b.read_unmapped);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].total_blocks(), b.groups[g].total_blocks())
        << "group " << g;
    EXPECT_EQ(a.groups[g].segments_sealed, b.groups[g].segments_sealed)
        << "group " << g;
  }
}

TEST(DeterminismTest, RepeatedReplayIsByteIdentical) {
  const trace::Volume volume = test_volume();
  const sim::SimConfig config = sampled_config();
  const sim::VolumeResult first = sim::run_volume(volume, "adapt", config);
  const sim::VolumeResult second = sim::run_volume(volume, "adapt", config);

  ASSERT_NE(first.series, nullptr);
  ASSERT_FALSE(first.series->rows.empty());
  EXPECT_EQ(series_bytes(first), series_bytes(second));
  expect_same_metrics(first.metrics, second.metrics);
  EXPECT_EQ(first.segments_per_group, second.segments_per_group);
  // The emitted series must also pass its own schema validator.
  EXPECT_EQ(obs::validate_series_jsonl(series_bytes(first)),
            first.series->rows.size());
}

TEST(DeterminismTest, SamplingIsPassive) {
  const trace::Volume volume = test_volume();
  sim::SimConfig sampled = sampled_config();
  sim::SimConfig unsampled = sampled;
  unsampled.sampling_enabled = false;

  const sim::VolumeResult with = sim::run_volume(volume, "adapt", sampled);
  const sim::VolumeResult without =
      sim::run_volume(volume, "adapt", unsampled);
  EXPECT_EQ(without.series, nullptr);
  expect_same_metrics(with.metrics, without.metrics);
  EXPECT_EQ(with.segments_per_group, without.segments_per_group);
}

}  // namespace
}  // namespace adapt
