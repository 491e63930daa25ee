// Observability layer: registry semantics, the JSON parser, writer and
// schema checks, windowed sampling with fixed-memory downsampling,
// exporter/validator round-trips, every emitter's pinned bytes, and the
// bit-identity guarantee — attaching the sampler must not perturb the
// engine (the PR-1 pinned fixed-seed metrics reproduce exactly with
// sampling on).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/series.h"
#include "obs/trace_log.h"
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
// JSON parser, writer and schema checks
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

TEST(JsonTest, WriterPlacesEverySeparatorAndQuote) {
  std::string out;
  obs::json::Writer w(out);
  const std::vector<std::uint64_t> ids = {1, 2};
  w.begin_object()
      .field("n", std::uint32_t{7})
      .field("x", 0.5)
      .field("bad", std::nan(""))
      .field("s", "a\"b")
      .field("ids", ids)
      .begin_array("list")
      .value(3u)
      .value(-1.5)
      .value("t")
      .begin_object()
      .end_object()
      .end_array()
      .begin_object("empty")
      .end_object();
  // A second writer on the same string continues the open object.
  obs::json::Writer(out).field("more", 0u).end_object();
  EXPECT_EQ(out,
            R"({"n":7,"x":0.5,"bad":null,"s":"a\"b","ids":[1,2],)"
            R"("list":[3,-1.5,"t",{}],"empty":{},"more":0})");
  EXPECT_NO_THROW(obs::json::parse(out));
}

TEST(JsonTest, SchemaChecksNameTheOffendingKey) {
  const obs::json::Value doc = obs::json::parse(
      R"({"schema":"s-v1","n":1,"o":{"total":3,"parts":[1,2],"bad":[1,1]}})");
  const auto message = [&](auto&& check) -> std::string {
    try {
      check();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_NO_THROW(obs::json::require_schema(doc, "s-v1"));
  EXPECT_NO_THROW(obs::json::require_sum(doc.members().at("o"), "parts",
                                         "total", "o"));
  EXPECT_EQ(message([&] { obs::json::require_schema(doc, "s-v2"); }),
            "schema: expected \"s-v2\"");
  EXPECT_EQ(message([&] { obs::json::require_number(doc, "m"); }),
            "schema: m is missing");
  EXPECT_EQ(message([&] { obs::json::require_string(doc, "n"); }),
            "schema: n must be a string");
  EXPECT_EQ(message([&] { obs::json::require_array(doc, "o"); }),
            "schema: o must be an array");
  const obs::json::Value& o = obs::json::require_object(doc, "o");
  EXPECT_EQ(message([&] { obs::json::require_object(o, "total", "o"); }),
            "schema: o.total must be an object");
  EXPECT_EQ(message([&] { obs::json::require_sum(o, "bad", "total", "o"); }),
            "schema: o.bad must sum to o.total");
  EXPECT_EQ(
      message([&] { obs::json::require_number(o.members().at("parts"), "x",
                                              "o.parts"); }),
      "schema: o.parts must be an object");
  EXPECT_EQ(message([&] { obs::json::require_number_or_null(doc, "schema"); }),
            "schema: schema must be a number or null");
  EXPECT_EQ(obs::json::require_count(doc, "n"), 1u);
  const obs::json::Value counts =
      obs::json::parse(R"({"neg":-1,"frac":1.5,"huge":1e300})");
  for (const char* key : {"neg", "frac", "huge"}) {
    EXPECT_EQ(message([&] { obs::json::require_count(counts, key); }),
              "schema: " + std::string(key) + " must be a count");
  }
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
// Pinned artifact bytes: each emitter renders a fixed input and must match
// a literal byte for byte, so a change to any artifact's key order,
// separators, escaping or number rendering fails here. Every pinned
// document must also pass its own validator.
// ---------------------------------------------------------------------------

/// Every optional manifest block present; the provenance matrix satisfies
/// the write-accounting identity (14 appended = 4 x 3 flushed + 1 RMW +
/// 1 pending).
obs::RunManifest pinned_manifest() {
  obs::RunManifest m;
  m.tool = "prototype";
  m.policy = "adapt";
  m.victim = "greedy";
  m.workload = "ycsb \"a\"";
  m.volume_id = 3;
  m.seed = 42;
  m.records = 100;
  m.user_blocks = 9;
  m.wall_seconds = 0.5;
  m.records_per_sec = 1.0 / 3.0;
  m.peak_rss_bytes = 1u << 20;
  m.chunk_blocks = 4;
  m.segment_chunks = 2;
  m.logical_blocks = 64;
  m.over_provision = 0.25;
  *m.counters.slot("lss.user_blocks") = 9;
  *m.counters.slot("lss.gc_runs") = 2;
  obs::ProvenanceRow hot;
  hot.user_blocks = 6;
  hot.gc_blocks = 2;
  hot.shadow_blocks = 1;
  hot.padding_blocks = 1;
  hot.full_flushes = 2;
  hot.gc_from = {1, 1};
  obs::ProvenanceRow cold;
  cold.user_blocks = 3;
  cold.gc_blocks = 1;
  cold.rmw_blocks = 1;
  cold.padded_flushes = 1;
  cold.rmw_flushes = 1;
  cold.gc_from = {0, 1};
  m.provenance.groups = {hot, cold};
  m.provenance.pending_blocks = 1;
  for (const std::uint64_t v : {0, 5, 5, 1000}) m.block_lifetime.add(v);
  m.gc_pause_us.add(70);
  m.latency_ns.add(100);
  m.latency_ns.add(2000);
  m.lanes.queue_depth = 8;
  m.lanes.per_lane = {{3, 1, 120, 2, 400}, {1, 0, 40, 1, 90}};
  for (const std::uint64_t v : {1, 2, 1, 1}) m.lanes.queue_depth_hist.add(v);
  for (const std::uint64_t v : {50, 60, 45, 40}) {
    m.lanes.submit_complete_us.add(v);
  }
  m.latency_breakdown.add_op(0, 10, 30, 100, 40);
  m.latency_breakdown.add_op(5, 5, 30, 90, 20);
  m.trace_present = true;
  m.trace_recorded = 12;
  m.trace_dropped = 5;
  m.trace_per_shard_dropped = {2, 3};
  return m;
}

constexpr std::string_view kPinnedManifest =
    R"({"schema":"adapt-manifest-v1","tool":"prototype","policy":"adapt",)"
    R"("victim":"greedy","workload":"ycsb \"a\"","volume_id":3,"seed":42,)"
    R"("records":100,"user_blocks":9,"wall_seconds":0.5,)"
    R"("records_per_sec":0.3333333333,"peak_rss_bytes":1048576,)"
    R"("geometry":{"chunk_blocks":4,"segment_chunks":2,"logical_blocks":64,)"
    R"("over_provision":0.25},"counters":{"lss.gc_runs":2,)"
    R"("lss.user_blocks":9},"provenance":{"pending_blocks":1,)"
    R"("groups":[{"group":0,"user":6,"gc":2,"shadow":1,"padding":1,"rmw":0,)"
    R"("full_flushes":2,"padded_flushes":0,"rmw_flushes":0,"gc_from":[1,1]},)"
    R"({"group":1,"user":3,"gc":1,"shadow":0,"padding":0,"rmw":1,)"
    R"("full_flushes":0,"padded_flushes":1,"rmw_flushes":1,"gc_from":[0,)"
    R"(1]}]},"block_lifetime":{"count":4,"sum":1010,"max":1000,)"
    R"("buckets":[{"b":0,"floor":0,"count":1},{"b":3,"floor":4,"count":2},)"
    R"({"b":10,"floor":512,"count":1}]},"gc_pause_us":{"count":1,"sum":70,)"
    R"("max":70,"buckets":[{"b":7,"floor":64,"count":1}]},)"
    R"("latency_ns":{"count":2,"sum":2100,"max":2000,"buckets":[{"b":7,)"
    R"("floor":64,"count":1},{"b":11,"floor":1024,"count":1}]},)"
    R"("lanes":{"count":2,"queue_depth":8,"per_lane":[{"submits":3,)"
    R"("stalled_submits":1,"busy_us":120,"inflight_high_water":2,)"
    R"("busy_until_us":400},{"submits":1,"stalled_submits":0,"busy_us":40,)"
    R"("inflight_high_water":1,"busy_until_us":90}],)"
    R"("queue_depth_hist":{"count":4,"sum":5,"max":2,"buckets":[{"b":1,)"
    R"("floor":1,"count":3},{"b":2,"floor":2,"count":1}]},)"
    R"("submit_complete_us":{"count":4,"sum":195,"max":60,"buckets":[{"b":6,)"
    R"("floor":32,"count":4}]}},)"
    R"("latency_breakdown":{"intake_wait_us":{"count":2,"sum":10,"max":10,)"
    R"("buckets":[{"b":0,"floor":0,"count":1},{"b":4,"floor":8,"count":1}]},)"
    R"("batch_apply_us":{"count":2,"sum":45,"max":25,"buckets":[{"b":5,)"
    R"("floor":16,"count":2}]},"lane_queue_us":{"count":2,"sum":70,"max":40,)"
    R"("buckets":[{"b":5,"floor":16,"count":1},{"b":6,"floor":32,)"
    R"("count":1}]},"device_service_us":{"count":2,"sum":60,"max":40,)"
    R"("buckets":[{"b":5,"floor":16,"count":1},{"b":6,"floor":32,)"
    R"("count":1}]},"total_us":{"count":2,"sum":185,"max":100,)"
    R"("buckets":[{"b":7,"floor":64,"count":2}]}},"trace":{"recorded":12,)"
    R"("dropped":5,"per_shard_dropped":[2,3]}})";

TEST(PinnedBytesTest, ManifestWithEveryOptionalBlock) {
  const std::string json = obs::manifest_json(pinned_manifest());
  EXPECT_EQ(json, kPinnedManifest);
  EXPECT_NO_THROW(obs::validate_manifest_json(json));
}

/// Two rows with per-group columns; the first has no threshold (NaN,
/// exported as null).
obs::TimeSeries pinned_series() {
  obs::TimeSeries s;
  s.window_blocks = 8;
  s.downsamples = 1;
  obs::SeriesRow first;
  first.vtime = 8;
  first.wall_us = 120;
  first.user_blocks = 8;
  first.shadow_blocks = 1;
  first.padding_blocks = 3;
  first.chunks_flushed = 3;
  first.free_segments = 14;
  first.live_shadows = 1;
  first.groups = {{5, 0, 0, 2, 5, 1}, {3, 0, 1, 1, 4, 1}};
  obs::SeriesRow second;
  second.vtime = 16;
  second.wall_us = 300;
  second.user_blocks = 16;
  second.gc_blocks = 5;
  second.shadow_blocks = 1;
  second.padding_blocks = 4;
  second.rmw_blocks = 1;
  second.chunks_flushed = 6;
  second.gc_runs = 1;
  second.free_segments = 12;
  second.threshold = 12.5;
  second.groups = {{10, 3, 0, 2, 6, 2}, {6, 2, 1, 2, 5, 2}};
  s.rows = {first, second};
  return s;
}

constexpr std::string_view kPinnedSeries =
    R"({"type":"header","schema":"adapt-series-v1","window_blocks":8,)"
    R"("downsamples":1,"rows":2})"
    "\n"
    R"({"type":"sample","vtime":8,"wall_us":120,"user_blocks":8,)"
    R"("gc_blocks":0,"shadow_blocks":1,"padding_blocks":3,"rmw_blocks":0,)"
    R"("chunks_flushed":3,"gc_runs":0,"free_segments":14,"live_shadows":1,)"
    R"("threshold":null,"wa":1.5,"padding_ratio":0.25,"windowed":{"wa":1.5,)"
    R"("padding_ratio":0.25,"gc_rate":0,"shadow_rate":0.125},)"
    R"("groups":[{"group":0,"user_blocks":5,"gc_blocks":0,"shadow_blocks":0,)"
    R"("padding_blocks":2,"valid_blocks":5,"segments":1},{"group":1,)"
    R"("user_blocks":3,"gc_blocks":0,"shadow_blocks":1,"padding_blocks":1,)"
    R"("valid_blocks":4,"segments":1}]})"
    "\n"
    R"({"type":"sample","vtime":16,"wall_us":300,"user_blocks":16,)"
    R"("gc_blocks":5,"shadow_blocks":1,"padding_blocks":4,"rmw_blocks":1,)"
    R"("chunks_flushed":6,"gc_runs":1,"free_segments":12,"live_shadows":0,)"
    R"("threshold":12.5,"wa":1.625,"padding_ratio":0.1538461538,)"
    R"("windowed":{"wa":1.75,"padding_ratio":0.07142857143,"gc_rate":0.125,)"
    R"("shadow_rate":0},"groups":[{"group":0,"user_blocks":10,"gc_blocks":3,)"
    R"("shadow_blocks":0,"padding_blocks":2,"valid_blocks":6,"segments":2},)"
    R"({"group":1,"user_blocks":6,"gc_blocks":2,"shadow_blocks":1,)"
    R"("padding_blocks":2,"valid_blocks":5,"segments":2}]})"
    "\n";

TEST(PinnedBytesTest, SeriesJsonlWithGroupsAndNanThreshold) {
  std::ostringstream jsonl;
  obs::write_series_jsonl(jsonl, pinned_series());
  EXPECT_EQ(jsonl.str(), kPinnedSeries);
  EXPECT_EQ(obs::validate_series_jsonl(jsonl.str()), 2u);
}

constexpr std::string_view kPinnedBench =
    R"({"schema":"adapt-bench-v1","bench":"pinned","rows":[{"metric":"wa",)"
    R"("params":{"policy":"adapt","fill":"2"},"value":0.3333333333,)"
    R"("unit":"ratio"},{"metric":"throughput","params":{"note":"tab\there"},)"
    R"("value":1e+20,"unit":"1/s"},{"metric":"nan_row","params":{},)"
    R"("value":null,"unit":"ratio"}]})";

TEST(PinnedBytesTest, BenchReportWithParams) {
  obs::BenchReport report("pinned");
  report.add("wa", {{"policy", "adapt"}, {"fill", "2"}}, 1.0 / 3.0, "ratio");
  report.add("throughput", {{"note", "tab\there"}}, 1e20, "1/s");
  report.add("nan_row", {}, std::nan(""), "ratio");
  EXPECT_EQ(report.json(), kPinnedBench);
  EXPECT_NO_THROW(obs::validate_bench_json(report.json()));
}

/// One event of every kind (plus a GC run that migrated nothing, which
/// renders with the nominal width 1), then one flow (id 7) over both
/// shards: start, step, finish.
obs::TraceData pinned_trace() {
  using K = lss::TraceEventKind;
  const auto entry = [](K kind, GroupId group, std::uint64_t ts,
                        std::uint64_t a, std::uint64_t b, std::uint64_t c,
                        std::uint32_t shard, std::uint64_t seq,
                        std::uint64_t id = 0) {
    lss::TraceEvent e;
    e.kind = kind;
    e.group = group;
    e.ts = ts;
    e.wall_us = ts * 10;
    e.a = a;
    e.b = b;
    e.c = c;
    e.id = id;
    return obs::TraceData::Entry{e, shard, seq};
  };
  obs::TraceData d;
  d.shard_count = 2;
  d.recorded = 21;
  d.dropped = 3;
  d.per_shard_dropped = {1, 2};
  d.entries = {
      entry(K::kUserWrite, kInvalidGroup, 1, 17, 0, 0, 0, 0),
      entry(K::kChunkFlush, 0, 2, 4, 1, 9, 0, 1),
      entry(K::kRmwFlush, 1, 3, 2, 0, 10, 0, 2),
      entry(K::kShadowAppend, 1, 4, 0, 2, 0, 0, 3),
      entry(K::kShadowExpire, 0, 5, 2, 0, 0, 0, 4),
      entry(K::kSegmentAlloc, 1, 6, 7, 0, 0, 1, 0),
      entry(K::kSegmentSeal, 1, 7, 7, 3, 0, 1, 1),
      entry(K::kGcRun, 0, 8, 7, 5, 1, 1, 2),
      entry(K::kGcRun, 0, 9, 8, 0, 0, 1, 3),
      entry(K::kThresholdAdapt, kInvalidGroup, 10, 64, 2, 0, 0, 5),
      entry(K::kGroupCommit, 0, 11, 3, 6, 1, 0, 6),
      entry(K::kLaneSubmit, 1, 12, 1, 2, 130, 1, 4),
      entry(K::kLaneComplete, 1, 13, 1, 40, 170, 1, 5),
      entry(K::kOpSubmit, 0, 14, 17, 2, 0, 0, 7),
      entry(K::kOpDurable, 0, 15, 17, 2, 180, 0, 8),
      entry(K::kOpSubmit, 0, 16, 20, 1, 0, 0, 9, 7),
      entry(K::kChunkFlush, 1, 17, 4, 0, 11, 1, 6, 7),
      entry(K::kOpDurable, 0, 18, 20, 1, 210, 0, 10, 7),
  };
  return d;
}

constexpr std::string_view kPinnedTrace =
    R"({"schema":"adapt-trace-v1","displayTimeUnit":"ms",)"
    R"("otherData":{"tool":"simulator","policy":"adapt","workload":"alibaba",)"
    R"("seed":42,"shards":2,"recorded":21,"dropped":3,"per_shard_dropped":[1,)"
    R"(2]},"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,)"
    R"("args":{"name":"adapt-lss"}},{"name":"thread_name","ph":"M","pid":0,)"
    R"("tid":0,"args":{"name":"shard 0"}},{"name":"thread_name","ph":"M",)"
    R"("pid":0,"tid":1,"args":{"name":"shard 1"}},{"name":"user_write",)"
    R"("cat":"user","ph":"i","pid":0,"tid":0,"ts":1,"s":"t",)"
    R"("args":{"wall_us":10,"lba":17}},{"name":"chunk_flush","cat":"flush",)"
    R"("ph":"i","pid":0,"tid":0,"ts":2,"s":"t","args":{"wall_us":20,)"
    R"("group":0,"fill_blocks":4,"padded":1,"chunk":9}},{"name":"rmw_flush",)"
    R"("cat":"flush","ph":"i","pid":0,"tid":0,"ts":3,"s":"t",)"
    R"("args":{"wall_us":30,"group":1,"blocks":2,"chunk":10}},)"
    R"({"name":"shadow_append","cat":"aggregation","ph":"i","pid":0,"tid":0,)"
    R"("ts":4,"s":"t","args":{"wall_us":40,"group":1,"donor":0,"blocks":2}},)"
    R"({"name":"shadow_expire","cat":"aggregation","ph":"i","pid":0,"tid":0,)"
    R"("ts":5,"s":"t","args":{"wall_us":50,"group":0,"count":2}},)"
    R"({"name":"segment_alloc","cat":"segment","ph":"i","pid":0,"tid":1,)"
    R"("ts":6,"s":"t","args":{"wall_us":60,"group":1,"segment":7}},)"
    R"({"name":"segment_seal","cat":"segment","ph":"i","pid":0,"tid":1,)"
    R"("ts":7,"s":"t","args":{"wall_us":70,"group":1,"segment":7,)"
    R"("valid_blocks":3}},{"name":"gc_run","cat":"gc","ph":"X","pid":0,)"
    R"("tid":1,"ts":8,"dur":5,"args":{"wall_us":80,"group":0,"victim":7,)"
    R"("migrated":5,"forced_flushes":1}},{"name":"gc_run","cat":"gc",)"
    R"("ph":"X","pid":0,"tid":1,"ts":9,"dur":1,"args":{"wall_us":90,)"
    R"("group":0,"victim":8,"migrated":0,"forced_flushes":0}},)"
    R"({"name":"threshold_adapt","cat":"adapt","ph":"i","pid":0,"tid":0,)"
    R"("ts":10,"s":"t","args":{"wall_us":100,"threshold":64,"adoptions":2}},)"
    R"({"name":"group_commit","cat":"commit","ph":"i","pid":0,"tid":0,)"
    R"("ts":11,"s":"t","args":{"wall_us":110,"group":0,"batch_ops":3,)"
    R"("batch_blocks":6,"chunks_flushed":1}},{"name":"lane_submit",)"
    R"("cat":"device","ph":"i","pid":0,"tid":1,"ts":12,"s":"t",)"
    R"("args":{"wall_us":120,"group":1,"seq":1,"inflight":2,"admit_us":130}},)"
    R"({"name":"lane_complete","cat":"device","ph":"i","pid":0,"tid":1,)"
    R"("ts":13,"s":"t","args":{"wall_us":130,"group":1,"seq":1,)"
    R"("service_us":40,"complete_us":170}},{"name":"op_submit","cat":"op",)"
    R"("ph":"X","pid":0,"tid":0,"ts":14,"dur":1,"args":{"wall_us":140,)"
    R"("group":0,"lba":17,"blocks":2}},{"name":"op_durable","cat":"op",)"
    R"("ph":"X","pid":0,"tid":0,"ts":15,"dur":1,"args":{"wall_us":150,)"
    R"("group":0,"lba":17,"blocks":2,"durable_us":180}},{"name":"op_submit",)"
    R"("cat":"op","ph":"X","pid":0,"tid":0,"ts":16,"dur":1,)"
    R"("args":{"wall_us":160,"group":0,"lba":20,"blocks":1,"flow_id":7}},)"
    R"({"name":"op_flow","cat":"flow","ph":"s","pid":0,"tid":0,"ts":16,)"
    R"("id":7,"args":{}},{"name":"chunk_flush","cat":"flush","ph":"X",)"
    R"("pid":0,"tid":1,"ts":17,"dur":1,"args":{"wall_us":170,"group":1,)"
    R"("fill_blocks":4,"padded":0,"chunk":11,"flow_id":7}},{"name":"op_flow",)"
    R"("cat":"flow","ph":"t","pid":0,"tid":1,"ts":17,"id":7,"args":{}},)"
    R"({"name":"op_durable","cat":"op","ph":"X","pid":0,"tid":0,"ts":18,)"
    R"("dur":1,"args":{"wall_us":180,"group":0,"lba":20,"blocks":1,)"
    R"("durable_us":210,"flow_id":7}},{"name":"op_flow","cat":"flow",)"
    R"("ph":"f","pid":0,"tid":0,"ts":18,"id":7,"args":{}}]})";

TEST(PinnedBytesTest, ChromeTraceWithEveryKindAndAFlow) {
  obs::TraceMeta meta;
  meta.policy = "adapt";
  meta.workload = "alibaba";
  meta.seed = 42;
  const std::string json = obs::chrome_trace_json(pinned_trace(), meta);
  EXPECT_EQ(json, kPinnedTrace);
  EXPECT_NO_THROW(obs::validate_trace_json(json));
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
