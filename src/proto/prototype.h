// Log-structured storage prototype (paper §4.4).
//
// The paper's prototype runs on a real mdraid RAID-5 of four NVMe SSDs; we
// substitute lss::DeviceLanes: one submission/completion queue per modeled
// device, each serving at its share of the aggregate bandwidth with an
// io_depth-bounded queue. Flushes are SUBMITTED to a lane (virtual-time
// accounting, outside every engine lock) and the thread that owes the
// durability sleeps until the modeled completion. GC chunk traffic
// therefore steals real wall-clock bandwidth from clients exactly as on
// hardware, which is the effect behind Figure 12a: once the device
// saturates, the scheme with the lowest WA sustains the highest client
// throughput.
//
// Client threads replay independent YCSB-A streams against the concurrent
// front-end (lss::ConcurrentEngine): a per-shard writer queue whose head
// applies every write queued behind it in a single engine pass. Background
// GC runs on a ThreadPool, one task per shard.
//
// Per-op latency (submit -> durable) is captured in nanoseconds into
// fixed-memory Log2Histograms (one per client thread, merged at the end)
// and reported as p50/p99/p999 plus an adapt-manifest-v1 run manifest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "lss/config.h"
#include "lss/device_lanes.h"
#include "lss/group_commit.h"
#include "lss/metrics.h"
#include "obs/export.h"
#include "obs/runtime_stats.h"
#include "trace/synthetic.h"

namespace adapt::proto {

struct PrototypeConfig {
  lss::LssConfig lss;
  std::string policy = "adapt";
  std::string victim_policy = "greedy";
  std::uint32_t num_clients = 4;
  /// Per-lane submission queue depth (the paper's io_depth=8 setting):
  /// DeviceLanesConfig::queue_depth. The old model amortised this into the
  /// bandwidth figure; now it bounds each lane's outstanding submissions.
  std::uint32_t io_depth = 8;
  /// Modeled devices (lanes), matching the paper's 4-SSD array. The
  /// aggregate bandwidth below is split evenly across them.
  std::uint32_t device_lanes = 4;
  std::uint64_t writes_per_client = 50'000;  ///< blocks written per client
  trace::YcsbConfig workload;          ///< per-client generator (seed+i)
  /// Aggregate array bandwidth to model. Scaled down from real hardware so
  /// that service times dominate simulation compute and the saturation
  /// effect is visible in short runs.
  double array_bandwidth_mb_per_s = 600.0;
  /// Per-request client-side cost (request handling, network). Keeps a
  /// single client below device saturation, as in the paper's Fig. 12a.
  double client_think_us = 20.0;
  bool background_gc = true;
  /// Spatial sampling rate handed to ADAPT (0 = auto). The paper's
  /// production setting is 0.001.
  double adapt_sample_rate = 0.0;
  std::uint64_t seed = 1;
  /// LBA shard count for the group-commit front-end. 0 = auto:
  /// min(num_clients, 8), capped so each shard keeps at least
  /// lss::kMinShardBlocks logical blocks (the floor the simulator applies
  /// to its one engine). An explicit
  /// value is used as-is and may throw from LssConfig::validate when the
  /// per-shard geometry gets too small.
  std::uint32_t shards = 0;
  /// Live runtime stats: when set, every batch leader publishes its
  /// BatchSample into this sink, so an obs::LiveStatsPrinter can report
  /// the run while it goes (mirrors sim::SimConfig::live_stats). Not owned;
  /// must outlive run_prototype. Null (off) by default.
  obs::RuntimeStats* live_stats = nullptr;
};

struct PrototypeResult {
  std::string policy;
  std::uint32_t num_clients = 0;
  std::uint32_t shards = 1;
  double elapsed_seconds = 0.0;  ///< client-span envelope (see ClientSpan)
  std::uint64_t user_blocks = 0;
  /// Client-visible write throughput; 0 when the run was too short for the
  /// host clock to resolve (never inf/NaN — see safe_rate).
  double throughput_mib_per_s = 0.0;
  double throughput_kops = 0.0;
  /// Client-visible request latency (submit -> durable or buffered), us.
  /// Estimated from latency_ns (factor-2 accurate, fixed memory).
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  /// Per-op submit->durable latency distribution, nanoseconds.
  Log2Histogram latency_ns;
  /// Group-commit batching counters.
  lss::GroupCommitStats group_commit;
  /// Phase-attributed virtual-time latency from the group-commit path:
  /// intake wait, batch apply, lane queue, device service — exported into
  /// the manifest's latency_breakdown block with its additivity identity.
  lss::LatencyBreakdown breakdown;
  /// Device-lane snapshot: per-lane submit/stall/busy counters plus the
  /// merged queue-depth and submit→complete distributions.
  lss::DeviceLanesStats lanes;
  lss::LssMetrics metrics;
  std::size_t policy_memory_bytes = 0;
  /// LssEngine::memory_usage_bytes() over every shard: block map, shadow
  /// table, segment headers and bitmaps, slot-LBA arena.
  std::size_t engine_memory_bytes = 0;
  /// adapt-manifest-v1 provenance record (tool = "prototype"), carrying
  /// the merged lss.* counters, proto.* front-end counters, and the
  /// latency_ns histogram.
  obs::RunManifest manifest;
};

/// One client thread's host-clock activity window. The run's elapsed time
/// is the envelope over all clients, not one thread's wall clock.
struct ClientSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Envelope duration in seconds: max(end) - min(start) over the spans.
/// Returns 0 for an empty set or a degenerate (end <= start) envelope —
/// callers must treat 0 as "unmeasurable", never divide by it.
double spans_elapsed_seconds(const std::vector<ClientSpan>& spans);

/// Guarded rate: amount / elapsed, or 0 when elapsed <= 0 (or the rate is
/// not finite), so a run shorter than the clock tick never reports
/// inf/garbage throughput; the regression tests in proto_test.cpp pin it.
double safe_rate(double amount, double elapsed_seconds);

/// Resolved shard count for `config` (applies the auto rule above).
std::uint32_t resolve_shards(const PrototypeConfig& config);

/// Runs the prototype to completion and reports measured throughput.
PrototypeResult run_prototype(const PrototypeConfig& config);

}  // namespace adapt::proto
