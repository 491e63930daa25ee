// Tests for the multithreaded prototype engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "obs/export.h"
#include "obs/runtime_stats.h"
#include "proto/prototype.h"

namespace adapt::proto {
namespace {

PrototypeConfig tiny_proto() {
  PrototypeConfig c;
  c.workload.working_set_blocks = 1u << 15;
  c.workload.mean_interarrival_us = 1;  // effectively open-loop
  c.writes_per_client = 4000;
  c.num_clients = 2;
  c.array_bandwidth_mb_per_s = 5000;  // keep the test fast
  c.policy = "sepgc";
  return c;
}

TEST(PrototypeTest, CompletesAndReportsThroughput) {
  const PrototypeConfig c = tiny_proto();
  const PrototypeResult r = run_prototype(c);
  EXPECT_EQ(r.policy, "sepgc");
  EXPECT_EQ(r.num_clients, 2u);
  // Each client replays its own seeded stream of single-block writes, so
  // the volume is exact whatever the interleave.
  EXPECT_EQ(r.user_blocks, c.num_clients * c.writes_per_client);
  EXPECT_GT(r.elapsed_seconds, 0.0);
  EXPECT_GT(r.throughput_mib_per_s, 0.0);
  EXPECT_GT(r.throughput_kops, 0.0);
}

TEST(PrototypeTest, SingleClientWorks) {
  PrototypeConfig c = tiny_proto();
  c.num_clients = 1;
  c.writes_per_client = 2000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_GE(r.user_blocks, 2000u);
}

TEST(PrototypeTest, RunsWithAdaptPolicy) {
  PrototypeConfig c = tiny_proto();
  c.policy = "adapt";
  c.writes_per_client = 2000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_GE(r.metrics.wa(), 1.0);
  EXPECT_GT(r.policy_memory_bytes, 0u);
}

TEST(PrototypeTest, LatencyPercentilesReported) {
  PrototypeConfig c = tiny_proto();
  c.writes_per_client = 2000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_GE(r.latency_p99_us, r.latency_p50_us);
  EXPECT_GT(r.latency_p99_us, 0.0);
}

TEST(PrototypeTest, MemoryAccountingPopulated) {
  PrototypeConfig c = tiny_proto();
  c.writes_per_client = 1000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_GT(r.engine_memory_bytes, 0u);
}

TEST(PrototypeTest, MoreBandwidthMoreThroughput) {
  PrototypeConfig slow = tiny_proto();
  slow.array_bandwidth_mb_per_s = 50;
  slow.writes_per_client = 2000;
  PrototypeConfig fast = slow;
  fast.array_bandwidth_mb_per_s = 5000;
  const PrototypeResult a = run_prototype(slow);
  const PrototypeResult b = run_prototype(fast);
  EXPECT_GT(b.throughput_mib_per_s, a.throughput_mib_per_s);
}

TEST(PrototypeTest, WaConsistentWithSimSemantics) {
  PrototypeConfig c = tiny_proto();
  c.writes_per_client = 3000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_GE(r.metrics.wa(), 1.0);
  EXPECT_EQ(r.metrics.user_blocks, r.user_blocks);
}

// ---------------------------------------------------------------------------
// Timing regressions: dividing blocks by a single TimeUs-truncated wall
// clock made a run faster than the clock tick report inf (or, with an
// unlucky truncation, wildly inflated) throughput.

TEST(PrototypeTimingTest, SpansEnvelopeCoversAllClients) {
  const std::vector<ClientSpan> spans = {
      {2'000'000'000, 3'000'000'000},
      {1'000'000'000, 2'500'000'000},
      {1'500'000'000, 3'500'000'000},
  };
  // max(end) - min(start) = 3.5s - 1.0s, not any single thread's window.
  EXPECT_DOUBLE_EQ(spans_elapsed_seconds(spans), 2.5);
}

TEST(PrototypeTimingTest, SpansDegenerateCasesReportZero) {
  EXPECT_DOUBLE_EQ(spans_elapsed_seconds({}), 0.0);
  // A run shorter than the clock resolution collapses to start == end;
  // pre-fix this became the throughput denominator.
  EXPECT_DOUBLE_EQ(spans_elapsed_seconds({{5, 5}}), 0.0);
  EXPECT_DOUBLE_EQ(spans_elapsed_seconds({{9, 4}}), 0.0);
}

TEST(PrototypeTimingTest, SafeRateNeverDividesByZero) {
  EXPECT_DOUBLE_EQ(safe_rate(4096.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_rate(4096.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_rate(4096.0, std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(safe_rate(4096.0, 2.0), 2048.0);
  EXPECT_FALSE(std::isinf(safe_rate(1e18, 1e-300)));
}

// ---------------------------------------------------------------------------
// Concurrent front-end surface.

TEST(PrototypeTest, LatencyHistogramAndTailOrdering) {
  PrototypeConfig c = tiny_proto();
  c.writes_per_client = 2000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_FALSE(r.latency_ns.empty());
  EXPECT_GT(r.latency_p50_us, 0.0);
  EXPECT_GE(r.latency_p99_us, r.latency_p50_us);
  EXPECT_GE(r.latency_p999_us, r.latency_p99_us);
}

// "<baseline>+agg" names a policy for the prototype as it does for the
// simulator: the baseline wrapped with ADAPT's aggregation rule.
TEST(PrototypeTest, RunsAggregatingBaseline) {
  PrototypeConfig c = tiny_proto();
  c.policy = "sepbit+agg";
  c.writes_per_client = 2000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_EQ(r.policy, "sepbit+agg");
  EXPECT_EQ(r.user_blocks, c.num_clients * c.writes_per_client);
  EXPECT_EQ(r.metrics.groups.size(), 6u);  // SepBIT's groups
}

TEST(PrototypeTest, GroupCommitStatsPopulated) {
  PrototypeConfig c = tiny_proto();
  c.writes_per_client = 2000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_GT(r.group_commit.groups, 0u);
  EXPECT_GE(r.group_commit.ops, r.group_commit.groups);
  EXPECT_GE(r.group_commit.max_batch, 1u);
  EXPECT_EQ(r.shards, 1u);
}

// Fig. 12's geometry: 4 clients over 2^16 blocks at 15% over-provision,
// under MiDA's 8 groups. One store over the whole working set covers the
// GC watermark; two stores of 2^15 blocks each did not, and the run threw
// "over-provisioned segments cannot cover the GC watermark".
TEST(PrototypeTest, RunsFig12GeometryOnOneEngine) {
  PrototypeConfig c;
  c.policy = "mida";
  c.num_clients = 4;
  c.writes_per_client = 1000;
  c.workload.working_set_blocks = 1u << 16;
  c.workload.zipf_alpha = 0.99;
  c.workload.mean_interarrival_us = 0.0;
  c.lss.coalesce_window_us = 300;
  c.lss.over_provision = 0.15;
  c.array_bandwidth_mb_per_s = 5000;  // keep the test fast
  const PrototypeResult r = run_prototype(c);
  EXPECT_EQ(r.user_blocks, c.num_clients * c.writes_per_client);
  EXPECT_EQ(r.metrics.groups.size(), 8u);  // MiDA's groups
  EXPECT_GE(r.metrics.wa(), 1.0);
}

// Every batch leader publishes its BatchSample into the live stats, so at
// the end they hold exactly what the run committed.
TEST(PrototypeTest, LiveStatsSeeEveryCommittedOp) {
  PrototypeConfig c = tiny_proto();
  c.writes_per_client = 2000;
  obs::RuntimeStats live;
  c.live_stats = &live;
  const PrototypeResult r = run_prototype(c);
  const obs::RuntimeSnapshot snap = live.snapshot();
  EXPECT_GT(snap.batches, 0u);
  EXPECT_EQ(snap.batches, r.group_commit.groups);
  EXPECT_EQ(snap.ops, r.group_commit.ops);
  EXPECT_EQ(snap.blocks, r.user_blocks);
  EXPECT_EQ(snap.total_us.count(), r.breakdown.total_us.count());
}

TEST(PrototypeTest, ManifestValidatesAgainstSchema) {
  PrototypeConfig c = tiny_proto();
  c.writes_per_client = 2000;
  const PrototypeResult r = run_prototype(c);
  EXPECT_NO_THROW(obs::validate_manifest_json(obs::manifest_json(r.manifest)));
  EXPECT_EQ(r.manifest.tool, "prototype");
  EXPECT_FALSE(r.manifest.latency_ns.empty());
}

}  // namespace
}  // namespace adapt::proto
