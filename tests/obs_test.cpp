// Observability layer: registry semantics, the JSON mini-parser, windowed
// sampling with fixed-memory downsampling, exporter/validator round-trips,
// and the bit-identity guarantee — attaching the sampler must not perturb
// the engine (the PR-1 pinned fixed-seed metrics reproduce exactly with
// sampling on).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/series.h"
#include "pinned_replay.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace adapt {
namespace {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, SlotPointersAreStableAcrossInserts) {
  obs::Registry r;
  std::uint64_t* a = r.slot("alpha");
  *a = 7;
  // Node-based storage: growing the registry must not move existing slots.
  for (int i = 0; i < 256; ++i) {
    std::string name = "k";
    name += std::to_string(i);
    r.slot(name);
  }
  *a += 1;
  EXPECT_EQ(r.value("alpha"), 8u);
  EXPECT_EQ(r.slot("alpha"), a);
  EXPECT_EQ(r.size(), 257u);
}

TEST(RegistryTest, UnknownNameReadsZero) {
  obs::Registry r;
  EXPECT_FALSE(r.contains("nope"));
  EXPECT_EQ(r.value("nope"), 0u);
  EXPECT_TRUE(r.empty());
}

TEST(RegistryTest, MergeFromSumsPerName) {
  obs::Registry a;
  obs::Registry b;
  *a.slot("shared") = 10;
  *a.slot("only_a") = 1;
  *b.slot("shared") = 32;
  *b.slot("only_b") = 5;
  a.merge_from(b);
  EXPECT_EQ(a.value("shared"), 42u);
  EXPECT_EQ(a.value("only_a"), 1u);
  EXPECT_EQ(a.value("only_b"), 5u);
  // Entries iterate in sorted name order (stable export layout).
  std::string prev;
  for (const auto& [name, value] : a.entries()) {
    EXPECT_LT(prev, name);
    prev = name;
  }
}

// ---------------------------------------------------------------------------
// JSON mini-parser
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocument) {
  const obs::json::Value v = obs::json::parse(
      R"({"a": [1, -2.5e1, true, null], "b": {"s": "x\ny"}})");
  ASSERT_TRUE(v.is_object());
  const obs::json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 4u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), -25.0);
  EXPECT_TRUE(a->items()[2].as_bool());
  EXPECT_TRUE(a->items()[3].is_null());
  EXPECT_EQ(v.find("b")->find("s")->as_string(), "x\ny");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(obs::json::parse("{"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse(R"({"a":1,"a":2})"), std::invalid_argument);
  EXPECT_THROW(obs::json::parse("01"), std::invalid_argument);
}

TEST(JsonTest, QuoteEscapesAndNumbersRoundTrip) {
  EXPECT_EQ(obs::json::quote("a\"b\\c\n"), R"("a\"b\\c\n")");
  std::string out;
  obs::json::append_number(out, 0.25);
  out += ' ';
  obs::json::append_number(out, std::nan(""));
  EXPECT_EQ(out, "0.25 null");
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

sim::VolumeResult run_sampled(const trace::Volume& volume,
                              std::uint64_t window, std::size_t max_rows) {
  sim::SimConfig config;
  config.seed = 42;
  config.sampling_enabled = true;
  config.sampling.window_blocks = window;
  config.sampling.max_rows = max_rows;
  return sim::run_volume(volume, "adapt", config);
}

trace::Volume small_volume() {
  trace::CloudVolumeModel model(trace::alibaba_profile(), /*seed=*/42);
  return model.make_volume(/*volume_id=*/0, /*fill_factor=*/1.5);
}

TEST(SamplerTest, RowsAreCumulativeAndOrdered) {
  const sim::VolumeResult r = run_sampled(small_volume(), 1024, 512);
  ASSERT_NE(r.series, nullptr);
  ASSERT_FALSE(r.series->rows.empty());
  const obs::SeriesRow* prev = nullptr;
  for (const obs::SeriesRow& row : r.series->rows) {
    if (prev != nullptr) {
      EXPECT_GT(row.vtime, prev->vtime);
      EXPECT_GE(row.user_blocks, prev->user_blocks);
      EXPECT_GE(row.gc_blocks, prev->gc_blocks);
      EXPECT_GE(row.padding_blocks, prev->padding_blocks);
      EXPECT_GE(row.gc_runs, prev->gc_runs);
    }
    // The "adapt" policy probe reports a live threshold on every sample.
    EXPECT_FALSE(std::isnan(row.threshold));
    EXPECT_FALSE(row.groups.empty());
    prev = &row;
  }
  // The final row covers the whole replay.
  EXPECT_EQ(r.series->rows.back().user_blocks, r.metrics.user_blocks);
}

TEST(SamplerTest, DownsamplingKeepsMemoryBounded) {
  const std::size_t max_rows = 16;
  const sim::VolumeResult r = run_sampled(small_volume(), 64, max_rows);
  ASSERT_NE(r.series, nullptr);
  EXPECT_LE(r.series->rows.size(), max_rows);
  EXPECT_GT(r.series->downsamples, 0u);
  // Each downsample doubles the stride exactly.
  EXPECT_EQ(r.series->window_blocks, 64u << r.series->downsamples);
}

TEST(SamplerTest, RejectsZeroWindow) {
  obs::SamplerConfig config;
  config.window_blocks = 0;
  EXPECT_THROW(obs::EngineSampler sampler(config), std::invalid_argument);
}

TEST(SamplerTest, ZeroUserBlocksProducesOneFinalRow) {
  // A volume with no writes at all: finalize still captures one snapshot,
  // and every derived/windowed quantity downstream must cope with
  // user_blocks == 0.
  trace::Volume volume;
  volume.id = 7;
  volume.capacity_blocks = 4096;
  const sim::VolumeResult r = run_sampled(volume, 512, 64);
  EXPECT_EQ(r.metrics.user_blocks, 0u);
  ASSERT_NE(r.series, nullptr);
  ASSERT_EQ(r.series->rows.size(), 1u);
  EXPECT_EQ(r.series->rows[0].user_blocks, 0u);
  std::ostringstream jsonl;
  obs::write_series_jsonl(jsonl, *r.series);
  EXPECT_EQ(obs::validate_series_jsonl(jsonl.str()), 1u);
  EXPECT_NO_THROW(obs::validate_manifest_json(obs::manifest_json(r.manifest)));
}

// ---------------------------------------------------------------------------
// Exporters and validators
// ---------------------------------------------------------------------------

TEST(ExportTest, SeriesJsonlRoundTripsThroughValidator) {
  const sim::VolumeResult r = run_sampled(small_volume(), 1024, 64);
  std::ostringstream jsonl;
  obs::write_series_jsonl(jsonl, *r.series);
  const std::size_t samples = obs::validate_series_jsonl(jsonl.str());
  EXPECT_EQ(samples, r.series->rows.size());
  EXPECT_GT(samples, 0u);
}

TEST(ExportTest, SeriesCsvHasHeaderPlusOneLinePerRow) {
  const sim::VolumeResult r = run_sampled(small_volume(), 1024, 64);
  std::ostringstream csv;
  obs::write_series_csv(csv, *r.series);
  const std::string text = csv.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, r.series->rows.size() + 1);
  EXPECT_EQ(text.rfind("vtime,wall_us,", 0), 0u);
}

TEST(ExportTest, SeriesValidatorRejectsTampering) {
  const sim::VolumeResult r = run_sampled(small_volume(), 1024, 64);
  std::ostringstream jsonl;
  obs::write_series_jsonl(jsonl, *r.series);
  const std::string good = jsonl.str();
  // Drop the last sample line: row count no longer matches the header.
  const std::size_t cut = good.rfind('{');
  EXPECT_THROW(obs::validate_series_jsonl(good.substr(0, cut)),
               std::invalid_argument);
  // A stream without a header is rejected outright.
  EXPECT_THROW(obs::validate_series_jsonl(good.substr(cut)),
               std::invalid_argument);
}

TEST(ExportTest, ManifestRoundTripsThroughValidator) {
  const sim::VolumeResult r = run_sampled(small_volume(), 1024, 64);
  const std::string json = obs::manifest_json(r.manifest);
  EXPECT_NO_THROW(obs::validate_manifest_json(json));
  // The counters block mirrors the engine totals.
  EXPECT_EQ(r.manifest.counters.value("lss.user_blocks"),
            r.metrics.user_blocks);
  EXPECT_EQ(r.manifest.counters.value("lss.gc_runs"), r.metrics.gc_runs);
  EXPECT_GT(r.manifest.records, 0u);
  EXPECT_GT(r.manifest.peak_rss_bytes, 0u);
}

TEST(ExportTest, ManifestValidatorRejectsMissingKey) {
  obs::RunManifest m;
  m.policy = "adapt";
  m.victim = "greedy";
  std::string json = obs::manifest_json(m);
  const std::size_t pos = json.find("\"seed\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 6, "\"sead\"");
  EXPECT_THROW(obs::validate_manifest_json(json), std::invalid_argument);
}

// latency_breakdown teeth: a manifest whose phase histograms don't
// telescope to the total must be rejected, exactly like an unbalanced
// provenance matrix. The tamper flips one digit of one phase sum, so the
// additivity identity is off by one.
TEST(ExportTest, ManifestValidatorEnforcesLatencyBreakdownIdentity) {
  obs::RunManifest m;
  m.policy = "adapt";
  m.victim = "greedy";
  // Two ops through the clamped milestone math: phases telescope exactly.
  m.latency_breakdown.add_op(0, 10, 30, 100, 40);
  m.latency_breakdown.add_op(5, 5, 30, 90, 20);
  const std::string good = obs::manifest_json(m);
  ASSERT_NE(good.find("\"latency_breakdown\""), std::string::npos);
  EXPECT_NO_THROW(obs::validate_manifest_json(good));

  // Tamper 1: bump intake_wait's sum (10 + 0 = 10 -> 11).
  std::string bad = good;
  std::size_t pos = bad.find("\"intake_wait_us\"");
  ASSERT_NE(pos, std::string::npos);
  pos = bad.find("\"sum\":10", pos);
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 8, "\"sum\":11");
  EXPECT_THROW(obs::validate_manifest_json(bad), std::invalid_argument);

  // Tamper 2: a phase counting fewer ops than the total is rejected even
  // when the sums happen to balance.
  std::string short_count = good;
  pos = short_count.find("\"batch_apply_us\"");
  ASSERT_NE(pos, std::string::npos);
  pos = short_count.find("\"count\":2", pos);
  ASSERT_NE(pos, std::string::npos);
  short_count.replace(pos, 9, "\"count\":1");
  EXPECT_THROW(obs::validate_manifest_json(short_count),
               std::invalid_argument);

  // A manifest without the optional block still validates (sim manifests
  // from the serial path never carry one).
  obs::RunManifest plain;
  plain.policy = "adapt";
  plain.victim = "greedy";
  const std::string plain_json = obs::manifest_json(plain);
  EXPECT_EQ(plain_json.find("\"latency_breakdown\""), std::string::npos);
  EXPECT_NO_THROW(obs::validate_manifest_json(plain_json));
}

TEST(ExportTest, ManifestValidatorEnforcesTraceDropAccounting) {
  obs::RunManifest m;
  m.policy = "adapt";
  m.victim = "greedy";
  m.trace_present = true;
  m.trace_recorded = 12;
  m.trace_dropped = 5;
  m.trace_per_shard_dropped = {2, 3};
  const std::string good = obs::manifest_json(m);
  ASSERT_NE(good.find("\"trace\""), std::string::npos);
  EXPECT_NO_THROW(obs::validate_manifest_json(good));
  // Per-shard drops that no longer sum to the total are rejected.
  std::string bad = good;
  const std::size_t pos = bad.find("[2,3]");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 5, "[2,2]");
  EXPECT_THROW(obs::validate_manifest_json(bad), std::invalid_argument);
}

TEST(ExportTest, BenchReportRoundTripsThroughValidator) {
  obs::BenchReport report("unit");
  report.add("wa", {{"policy", "adapt"}}, 1.25, "ratio");
  report.add("nan_ok", {}, std::nan(""), "ratio");  // exported as null
  EXPECT_NO_THROW(obs::validate_bench_json(report.json()));
  EXPECT_EQ(report.row_count(), 2u);
}

TEST(ExportTest, BenchValidatorRejectsBadShapes) {
  EXPECT_THROW(obs::validate_bench_json("{}"), std::invalid_argument);
  EXPECT_THROW(obs::validate_bench_json(
                   R"({"schema":"adapt-bench-v1","bench":"x","rows":[]})"),
               std::invalid_argument);
  EXPECT_THROW(
      obs::validate_bench_json(
          R"({"schema":"adapt-bench-v1","bench":"x","rows":)"
          R"([{"metric":"m","params":{"p":1},"value":1,"unit":"u"}]})"),
      std::invalid_argument);
  EXPECT_THROW(obs::BenchReport(""), std::invalid_argument);
}

TEST(ExportTest, CellAggregateManifestMergesVolumes) {
  const trace::Volume volume = small_volume();
  sim::ExperimentSpec spec;
  spec.policies = {"adapt"};
  spec.threads = 2;
  const auto results = sim::run_experiment(spec, {volume, volume});
  const sim::CellResult& cell = results.at(sim::CellKey{"adapt", "greedy"});
  const obs::RunManifest m = cell.aggregate_manifest();
  EXPECT_EQ(m.tool, "experiment");
  EXPECT_EQ(m.records, cell.volumes[0].manifest.records +
                           cell.volumes[1].manifest.records);
  EXPECT_EQ(m.counters.value("lss.user_blocks"),
            cell.volumes[0].metrics.user_blocks +
                cell.volumes[1].metrics.user_blocks);
  EXPECT_NO_THROW(obs::validate_manifest_json(obs::manifest_json(m)));
}

// ---------------------------------------------------------------------------
// Bit-identity: sampling must not perturb the engine
// ---------------------------------------------------------------------------

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
    EXPECT_EQ(a.groups[g].user_blocks, b.groups[g].user_blocks) << g;
    EXPECT_EQ(a.groups[g].gc_blocks, b.groups[g].gc_blocks) << g;
    EXPECT_EQ(a.groups[g].shadow_blocks, b.groups[g].shadow_blocks) << g;
    EXPECT_EQ(a.groups[g].padding_blocks, b.groups[g].padding_blocks) << g;
    EXPECT_EQ(a.groups[g].segments_sealed, b.groups[g].segments_sealed) << g;
    EXPECT_EQ(a.groups[g].segments_reclaimed, b.groups[g].segments_reclaimed)
        << g;
  }
}

TEST(ObsDeterminismTest, SamplingEnabledVsDisabledIsBitIdentical) {
  const trace::Volume volume = small_volume();
  sim::SimConfig off;
  off.seed = 42;
  const sim::VolumeResult plain = sim::run_volume(volume, "adapt", off);
  const sim::VolumeResult sampled = run_sampled(volume, 512, 64);
  expect_same_metrics(plain.metrics, sampled.metrics);
  EXPECT_EQ(plain.segments_per_group, sampled.segments_per_group);
}

// The pinned fixed-seed replay (tests/pinned_replay.h) must reproduce
// bit-identically with the sampler attached: the observer is passive.
TEST(ObsDeterminismTest, PinnedFixedSeedMetricsUnchangedWithSamplerAttached) {
  namespace pinned = testing::pinned_replay;
  const trace::Volume volume = pinned::volume();
  ASSERT_EQ(volume.records.size(), pinned::kRecords);
  const sim::VolumeResult r = run_sampled(volume, 4096, 128);
  pinned::expect_write_counters(r.metrics);
  pinned::expect_read_counters(r.metrics);
  // And the series the run produced is non-empty and schema-valid.
  ASSERT_NE(r.series, nullptr);
  std::ostringstream jsonl;
  obs::write_series_jsonl(jsonl, *r.series);
  EXPECT_EQ(obs::validate_series_jsonl(jsonl.str()), r.series->rows.size());
  EXPECT_GT(r.series->rows.size(), 0u);
}

}  // namespace
}  // namespace adapt
