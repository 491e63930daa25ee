// Event tracing + write-provenance attribution: the Log2Histogram, the
// TraceLog ring and its Chrome-trace export (deterministic and
// byte-identical across repeat runs), provenance matrices satisfying the
// PR-2 write-accounting identity from the manifest alone, the
// adapt_compare regression gate, and the passivity guarantee — attaching
// trace sinks must not perturb the pinned fixed-seed metrics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/histogram.h"
#include "lss/trace_sink.h"
#include "obs/compare.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "obs/trace_log.h"
#include "pinned_replay.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace adapt {
namespace {

// ---------------------------------------------------------------------------
// Log2Histogram
// ---------------------------------------------------------------------------

TEST(Log2HistogramTest, BucketsByBitWidth) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.max_value(), 1024u);
  EXPECT_EQ(h.bucket(0), 1u);  // zeros
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 4)
  EXPECT_EQ(h.bucket(11), 1u);  // [1024, 2048)
  EXPECT_EQ(Log2Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_floor(11), 1024u);
}

TEST(Log2HistogramTest, MergeSumsBucketsAndKeepsMax) {
  Log2Histogram a;
  Log2Histogram b;
  a.add(7);
  b.add(7);
  b.add(1u << 20);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket(3), 2u);
  EXPECT_EQ(a.max_value(), 1u << 20);
  EXPECT_EQ(a.sum(), 14u + (1u << 20));
}

TEST(Log2HistogramTest, JsonRoundTripsThroughValidator) {
  Log2Histogram h;
  h.add(0);
  h.add(5);
  h.add(5);
  std::string out = "{";
  obs::append_histogram_json(out, "lifetime", h);
  out += '}';
  const obs::json::Value doc = obs::json::parse(out);
  EXPECT_NO_THROW(
      obs::validate_histogram_json(*doc.find("lifetime"), "lifetime"));
  // A bucket count that no longer sums to the total is rejected.
  std::string bad = out;
  const std::size_t pos = bad.find("\"count\":3");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 9, "\"count\":4");
  const obs::json::Value tampered = obs::json::parse(bad);
  EXPECT_THROW(
      obs::validate_histogram_json(*tampered.find("lifetime"), "lifetime"),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TraceLog ring + merge
// ---------------------------------------------------------------------------

lss::TraceEvent user_write(std::uint64_t ts, std::uint64_t lba) {
  lss::TraceEvent e;
  e.kind = lss::TraceEventKind::kUserWrite;
  e.ts = ts;
  e.a = lba;
  return e;
}

TEST(TraceLogTest, RejectsZeroCapacity) {
  obs::TraceLogConfig config;
  config.capacity = 0;
  EXPECT_THROW(obs::TraceLog log(config), std::invalid_argument);
}

TEST(TraceLogTest, RingOverwritesOldestAndCountsDropped) {
  obs::TraceLogConfig config;
  config.capacity = 4;
  obs::TraceLog log(config);
  for (std::uint64_t i = 0; i < 10; ++i) log.record(user_write(i, i));
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: 6, 7, 8, 9.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].ts, 6 + i);
}

TEST(TraceLogTest, MergeOrdersByTsThenShardAndSkipsNulls) {
  obs::TraceLogConfig config;
  config.capacity = 8;
  obs::TraceLog shard0(config);
  obs::TraceLog shard1(config);
  shard0.record(user_write(5, 0));
  shard0.record(user_write(5, 1));  // same ts: per-shard order preserved
  shard1.record(user_write(3, 2));
  const obs::TraceData data =
      obs::merge_trace_logs({&shard0, nullptr, &shard1});
  EXPECT_EQ(data.shard_count, 3u);
  EXPECT_EQ(data.recorded, 3u);
  ASSERT_EQ(data.entries.size(), 3u);
  EXPECT_EQ(data.entries[0].event.ts, 3u);
  EXPECT_EQ(data.entries[0].shard, 2u);
  EXPECT_EQ(data.entries[1].event.a, 0u);
  EXPECT_EQ(data.entries[2].event.a, 1u);
}

// A wrapped ring merges only its retained suffix, but the drop accounting
// must survive the merge per shard — the manifest/export split relies on
// per_shard_dropped attributing losses to the shard that overflowed, not
// smearing them across the volume.
TEST(TraceLogTest, MergeAfterRingWrapKeepsPerShardDropCounts) {
  obs::TraceLogConfig small;
  small.capacity = 4;
  obs::TraceLogConfig large;
  large.capacity = 64;
  obs::TraceLog wrapped(small);
  obs::TraceLog intact(large);
  for (std::uint64_t i = 0; i < 10; ++i) wrapped.record(user_write(i, i));
  intact.record(user_write(100, 7));
  const obs::TraceData data = obs::merge_trace_logs({&wrapped, &intact});
  EXPECT_EQ(data.recorded, 11u);
  EXPECT_EQ(data.dropped, 6u);
  ASSERT_EQ(data.per_shard_dropped.size(), 2u);
  EXPECT_EQ(data.per_shard_dropped[0], 6u);
  EXPECT_EQ(data.per_shard_dropped[1], 0u);
  // Only the retained suffix (ts 6..9) plus the intact shard's event merge,
  // oldest first.
  ASSERT_EQ(data.entries.size(), 5u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(data.entries[i].event.ts, 6 + i);
    EXPECT_EQ(data.entries[i].shard, 0u);
  }
  EXPECT_EQ(data.entries[4].event.ts, 100u);
}

// An attached-but-empty shard ring among non-empty ones must neither skew
// the ordering nor lose its per_shard_dropped slot (unlike a nullptr
// shard, it was present — it just recorded nothing).
TEST(TraceLogTest, MergeWithEmptyShardAmongNonEmpty) {
  obs::TraceLogConfig config;
  config.capacity = 8;
  obs::TraceLog a(config);
  obs::TraceLog empty(config);
  obs::TraceLog b(config);
  a.record(user_write(2, 0));
  b.record(user_write(1, 1));
  const obs::TraceData data = obs::merge_trace_logs({&a, &empty, &b});
  EXPECT_EQ(data.shard_count, 3u);
  EXPECT_EQ(data.recorded, 2u);
  EXPECT_EQ(data.dropped, 0u);
  ASSERT_EQ(data.per_shard_dropped.size(), 3u);
  EXPECT_EQ(data.per_shard_dropped[1], 0u);
  ASSERT_EQ(data.entries.size(), 2u);
  EXPECT_EQ(data.entries[0].shard, 2u);  // ts 1 first
  EXPECT_EQ(data.entries[1].shard, 0u);
}

// The merge order is EXACTLY (ts, shard, seq): equal timestamps order by
// shard index, and within one shard by recording sequence — deterministic
// regardless of the vector the shards arrive in.
TEST(TraceLogTest, MergeTieBreaksByTsShardSeq) {
  obs::TraceLogConfig config;
  config.capacity = 8;
  obs::TraceLog shard0(config);
  obs::TraceLog shard1(config);
  // All four events share ts=5. lba encodes the expected final order.
  shard1.record(user_write(5, 2));
  shard1.record(user_write(5, 3));
  shard0.record(user_write(5, 0));
  shard0.record(user_write(5, 1));
  const obs::TraceData data = obs::merge_trace_logs({&shard0, &shard1});
  ASSERT_EQ(data.entries.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(data.entries[i].event.a, i) << "position " << i;
  }
  EXPECT_EQ(data.entries[0].shard, 0u);
  EXPECT_EQ(data.entries[1].seq, 1u);
  EXPECT_EQ(data.entries[2].shard, 1u);
  EXPECT_EQ(data.entries[3].seq, 1u);
}

// ---------------------------------------------------------------------------
// Traced simulation runs
// ---------------------------------------------------------------------------

trace::Volume small_volume() {
  trace::CloudVolumeModel model(trace::alibaba_profile(), /*seed=*/42);
  return model.make_volume(/*volume_id=*/0, /*fill_factor=*/1.5);
}

sim::VolumeResult run_traced(const trace::Volume& volume, bool tracing) {
  sim::SimConfig config;
  config.seed = 42;
  config.tracing_enabled = tracing;
  return sim::run_volume(volume, "adapt", config);
}

TEST(TraceExportTest, TracedRunProducesValidChromeTraceJson) {
  const trace::Volume volume = small_volume();
  const sim::VolumeResult r = run_traced(volume, true);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->recorded, 0u);
  EXPECT_FALSE(r.trace->entries.empty());

  obs::TraceMeta meta;
  meta.policy = r.policy;
  meta.workload = "alibaba";
  meta.seed = 42;
  const std::string json = obs::chrome_trace_json(*r.trace, meta);
  EXPECT_NO_THROW(obs::validate_trace_json(json));
  // The exporter only uses the deterministic clocks, so two runs of the
  // same seed export byte-identical documents.
  const sim::VolumeResult again = run_traced(volume, true);
  EXPECT_EQ(json, obs::chrome_trace_json(*again.trace, meta));
}

TEST(TraceExportTest, ValidatorRejectsMalformedTraces) {
  EXPECT_THROW(obs::validate_trace_json("[]"), std::invalid_argument);
  EXPECT_THROW(obs::validate_trace_json(R"({"schema":"nope"})"),
               std::invalid_argument);
  const std::string head =
      R"({"schema":"adapt-trace-v1","otherData":{"tool":"t","policy":"p",)"
      R"("workload":"w","seed":1,"shards":1,"recorded":1,"dropped":0,)"
      R"("per_shard_dropped":[0]},)";
  // A complete minimal document passes...
  EXPECT_NO_THROW(obs::validate_trace_json(
      head +
      R"("traceEvents":[{"name":"user_write","ph":"i","pid":0,"tid":0,)"
      R"("ts":1,"s":"t","args":{"lba":9}}]})"));
  // ...but an instant without its scope, an unknown phase, or a complete
  // event without a duration is rejected.
  EXPECT_THROW(obs::validate_trace_json(
                   head +
                   R"("traceEvents":[{"name":"user_write","ph":"i","pid":0,)"
                   R"("tid":0,"ts":1,"args":{}}]})"),
               std::invalid_argument);
  EXPECT_THROW(obs::validate_trace_json(
                   head +
                   R"("traceEvents":[{"name":"x","ph":"Z","pid":0,"tid":0,)"
                   R"("ts":1,"args":{}}]})"),
               std::invalid_argument);
  EXPECT_THROW(obs::validate_trace_json(
                   head +
                   R"("traceEvents":[{"name":"gc_run","ph":"X","pid":0,)"
                   R"("tid":0,"ts":1,"args":{}}]})"),
               std::invalid_argument);
  // Flow events (Perfetto s/t/f) are accepted, but only with a numeric id.
  EXPECT_NO_THROW(obs::validate_trace_json(
      head +
      R"("traceEvents":[{"name":"op_flow","cat":"flow","ph":"s","pid":0,)"
      R"("tid":0,"ts":1,"id":7,"args":{}}]})"));
  EXPECT_THROW(obs::validate_trace_json(
                   head +
                   R"("traceEvents":[{"name":"op_flow","cat":"flow","ph":"t",)"
                   R"("pid":0,"tid":0,"ts":1,"args":{}}]})"),
               std::invalid_argument);
}

TEST(TraceExportTest, ValidatorEnforcesPerShardDroppedAccounting) {
  const auto doc = [](std::string_view other_tail) {
    return std::string(
               R"({"schema":"adapt-trace-v1","otherData":{"tool":"t",)"
               R"("policy":"p","workload":"w","seed":1,"shards":2,)"
               R"("recorded":9,)") +
           std::string(other_tail) + R"(},"traceEvents":[]})";
  };
  // per_shard_dropped must be present, numeric, and sum to dropped.
  EXPECT_NO_THROW(obs::validate_trace_json(
      doc(R"("dropped":5,"per_shard_dropped":[2,3])")));
  EXPECT_THROW(obs::validate_trace_json(doc(R"("dropped":5)")),
               std::invalid_argument);
  EXPECT_THROW(obs::validate_trace_json(
                   doc(R"("dropped":5,"per_shard_dropped":[2,2])")),
               std::invalid_argument);
  EXPECT_THROW(obs::validate_trace_json(
                   doc(R"("dropped":5,"per_shard_dropped":[2,"x"])")),
               std::invalid_argument);
}

// Tracing is passive: enabling it must not change any engine metric.
TEST(TraceDeterminismTest, TracingOnVsOffIsBitIdentical) {
  const trace::Volume volume = small_volume();
  const sim::VolumeResult off = run_traced(volume, false);
  const sim::VolumeResult on = run_traced(volume, true);
  EXPECT_EQ(off.trace, nullptr);
  EXPECT_EQ(off.metrics.user_blocks, on.metrics.user_blocks);
  EXPECT_EQ(off.metrics.gc_blocks, on.metrics.gc_blocks);
  EXPECT_EQ(off.metrics.shadow_blocks, on.metrics.shadow_blocks);
  EXPECT_EQ(off.metrics.padding_blocks, on.metrics.padding_blocks);
  EXPECT_EQ(off.metrics.gc_runs, on.metrics.gc_runs);
  EXPECT_EQ(off.metrics.gc_migrated_blocks, on.metrics.gc_migrated_blocks);
  EXPECT_EQ(off.segments_per_group, on.segments_per_group);
}

// The pinned fixed-seed replay (tests/pinned_replay.h) must reproduce
// bit-identically with trace sinks attached: tracing leaves the metrics
// untouched.
TEST(TraceDeterminismTest, PinnedFixedSeedMetricsUnchangedWithTracing) {
  namespace pinned = testing::pinned_replay;
  const trace::Volume volume = pinned::volume();
  ASSERT_EQ(volume.records.size(), pinned::kRecords);
  const sim::VolumeResult r = run_traced(volume, true);
  pinned::expect_write_counters(r.metrics);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->recorded, 0u);
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

TEST(ProvenanceTest, MatrixTilesGcTrafficAndClosesIdentity) {
  const sim::VolumeResult r = run_traced(small_volume(), false);
  const obs::ManifestProvenance& p = r.manifest.provenance;
  ASSERT_EQ(p.groups.size(), r.metrics.groups.size());
  EXPECT_EQ(p.pending_blocks, 0u);  // run_volume drains before measuring

  std::uint64_t appended = 0;
  std::uint64_t persisted = 0;
  bool any_gc = false;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const obs::ProvenanceRow& row = p.groups[g];
    const lss::GroupTraffic& gt = r.metrics.groups[g];
    EXPECT_EQ(row.user_blocks, gt.user_blocks) << g;
    EXPECT_EQ(row.gc_blocks, gt.gc_blocks) << g;
    EXPECT_EQ(row.shadow_blocks, gt.shadow_blocks) << g;
    EXPECT_EQ(row.padding_blocks, gt.padding_blocks) << g;
    // Per-group tiling: the gc_from attribution covers exactly the GC
    // traffic that landed in this group.
    std::uint64_t from = 0;
    for (const std::uint64_t v : row.gc_from) from += v;
    EXPECT_EQ(from, row.gc_blocks) << g;
    any_gc = any_gc || row.gc_blocks > 0;
    appended += row.user_blocks + row.gc_blocks + row.shadow_blocks +
                row.padding_blocks;
    persisted += std::uint64_t{r.manifest.chunk_blocks} *
                     (row.full_flushes + row.padded_flushes) +
                 row.rmw_blocks;
  }
  EXPECT_TRUE(any_gc);
  // The PR-2 write-accounting identity, from the manifest alone.
  EXPECT_EQ(appended, persisted + p.pending_blocks);
  // And the totals agree with the headline counters.
  EXPECT_EQ(appended, r.metrics.total_blocks());
}

TEST(ProvenanceTest, ManifestValidatorEnforcesIdentity) {
  const sim::VolumeResult r = run_traced(small_volume(), false);
  const std::string good = obs::manifest_json(r.manifest);
  EXPECT_NO_THROW(obs::validate_manifest_json(good));
  // Bumping pending_blocks by one breaks the identity by exactly one
  // block; the validator must notice.
  std::string bad = good;
  const std::size_t pos = bad.find("\"pending_blocks\":0");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 18, "\"pending_blocks\":1");
  EXPECT_THROW(obs::validate_manifest_json(bad), std::invalid_argument);
}

TEST(ProvenanceTest, MergeGrowsToLargerGroupCount) {
  obs::ManifestProvenance a;
  a.groups.resize(1);
  a.groups[0].user_blocks = 5;
  a.pending_blocks = 1;
  obs::ManifestProvenance b;
  b.groups.resize(3);
  b.groups[0].user_blocks = 7;
  b.groups[2].gc_blocks = 2;
  b.groups[2].gc_from = {0, 0, 2};
  a.merge_from(b);
  ASSERT_EQ(a.groups.size(), 3u);
  EXPECT_EQ(a.groups[0].user_blocks, 12u);
  EXPECT_EQ(a.groups[2].gc_from[2], 2u);
  EXPECT_EQ(a.pending_blocks, 1u);
}

// ---------------------------------------------------------------------------
// adapt_compare gate
// ---------------------------------------------------------------------------

TEST(CompareTest, IdenticalManifestsPass) {
  const sim::VolumeResult r = run_traced(small_volume(), false);
  const std::string json = obs::manifest_json(r.manifest);
  const obs::CompareReport report = obs::compare_artifacts(json, json);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.violations(), 0u);
  EXPECT_FALSE(report.rows.empty());
}

TEST(CompareTest, InjectedWaDeltaExceedsTolerance) {
  const trace::Volume volume = small_volume();
  const sim::VolumeResult r = run_traced(volume, false);
  const std::string baseline = obs::manifest_json(r.manifest);
  // Candidate with ~10% more GC traffic: the gated lss.gc_blocks counter
  // (and the derived WA) moves far beyond the 1% default tolerance.
  obs::RunManifest tampered = r.manifest;
  lss::LssMetrics bumped = r.metrics;
  bumped.gc_blocks += bumped.gc_blocks / 10 + 1;
  tampered.counters = obs::Registry();
  obs::register_lss_metrics(tampered.counters, bumped);
  const std::string candidate = obs::manifest_json(tampered);
  const obs::CompareReport report =
      obs::compare_artifacts(baseline, candidate);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.violations(), 0u);
  const std::string rendered = obs::format_report(report, {});
  EXPECT_NE(rendered.find("EXCEEDS"), std::string::npos);
  // A looser gate accepts the same delta.
  obs::CompareOptions loose;
  loose.tolerance = 0.5;
  EXPECT_TRUE(obs::compare_artifacts(baseline, candidate, loose).ok());
}

TEST(CompareTest, IdentityFieldMismatchIsAnError) {
  const sim::VolumeResult r = run_traced(small_volume(), false);
  const std::string baseline = obs::manifest_json(r.manifest);
  obs::RunManifest other = r.manifest;
  other.seed = 43;
  const obs::CompareReport report =
      obs::compare_artifacts(baseline, obs::manifest_json(other));
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
}

TEST(CompareTest, BenchHostDependentRowsArePresenceCheckedOnly) {
  // Wall-clock rates and latencies differ across hosts: a 10x throughput
  // delta must not trip the gate, but the row vanishing entirely must.
  obs::BenchReport a("gate");
  a.add("replay.records_per_sec", {}, 5.0e6, "1/s");
  a.add("replay.ns_per_op", {}, 200.0, "ns");
  a.add("replay.user_blocks", {}, 4096.0, "blocks");
  obs::BenchReport b("gate");
  b.add("replay.records_per_sec", {}, 5.0e7, "1/s");
  b.add("replay.ns_per_op", {}, 20.0, "ns");
  b.add("replay.user_blocks", {}, 4096.0, "blocks");
  EXPECT_TRUE(obs::compare_artifacts(a.json(), b.json()).ok());

  obs::BenchReport missing("gate");
  missing.add("replay.records_per_sec", {}, 5.0e6, "1/s");
  missing.add("replay.user_blocks", {}, 4096.0, "blocks");
  EXPECT_FALSE(obs::compare_artifacts(a.json(), missing.json()).ok());

  // Deterministic counter rows still gate on value.
  obs::BenchReport drifted("gate");
  drifted.add("replay.records_per_sec", {}, 5.0e6, "1/s");
  drifted.add("replay.ns_per_op", {}, 200.0, "ns");
  drifted.add("replay.user_blocks", {}, 5000.0, "blocks");
  EXPECT_FALSE(obs::compare_artifacts(a.json(), drifted.json()).ok());
}

TEST(CompareTest, BenchRowsCompareByKeyAndMissingRowsError) {
  obs::BenchReport a("gate");
  a.add("wa", {{"policy", "adapt"}}, 1.25, "ratio");
  a.add("wa", {{"policy", "sepgc"}}, 1.80, "ratio");
  obs::BenchReport b("gate");
  b.add("wa", {{"policy", "adapt"}}, 1.25, "ratio");
  const obs::CompareReport report =
      obs::compare_artifacts(a.json(), b.json());
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.errors.empty());
  // Schema kinds must agree.
  const sim::VolumeResult r = run_traced(small_volume(), false);
  EXPECT_THROW(
      obs::compare_artifacts(a.json(), obs::manifest_json(r.manifest)),
      std::invalid_argument);
}

}  // namespace
}  // namespace adapt
