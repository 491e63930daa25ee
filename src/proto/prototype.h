// Log-structured storage prototype (paper §4.4).
//
// The paper's prototype runs one log-structured store on a real mdraid
// RAID-5 of four NVMe SSDs; we substitute lss::DeviceLanes: one
// submission/completion queue per modeled device (DeviceLanesConfig's 4
// lanes, each with a queue depth of 8, the paper's io_depth), each serving
// at its share of the aggregate bandwidth. Flushes are SUBMITTED to a lane
// (virtual-time accounting, outside every engine lock) and the thread that
// owes the durability sleeps until the modeled completion. GC chunk
// traffic therefore steals real wall-clock bandwidth from clients exactly
// as on hardware, which is the effect behind Figure 12a: once the device
// saturates, the scheme with the lowest WA sustains the highest client
// throughput.
//
// Client threads replay independent YCSB-A streams against the concurrent
// front-end (lss::ConcurrentEngine) over one engine: each write commits on
// its own thread under the engine mutex. Background GC runs on one thread
// of its own.
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
  std::uint64_t writes_per_client = 50'000;  ///< blocks written per client
  trace::YcsbConfig workload;          ///< per-client generator (seed+i)
  /// Aggregate array bandwidth to model, split evenly across the lanes.
  /// Scaled down from real hardware so that service times dominate
  /// simulation compute and the saturation effect is visible in short
  /// runs.
  double array_bandwidth_mb_per_s = 600.0;
  /// Spatial sampling rate handed to ADAPT (0 = auto). The paper's
  /// production setting is 0.001.
  double adapt_sample_rate = 0.0;
  std::uint64_t seed = 1;
  /// Live runtime stats: when set, every committed write publishes its
  /// BatchSample into this sink, so an obs::LiveStatsPrinter can report
  /// the run while it goes (mirrors sim::SimConfig::live_stats). Not owned;
  /// must outlive run_prototype. Null (off) by default.
  obs::RuntimeStats* live_stats = nullptr;
};

struct PrototypeResult {
  std::string policy;
  std::uint32_t num_clients = 0;
  std::uint32_t shards = 1;  ///< always 1: one engine per run
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
  /// Commit counters (one write per commit).
  lss::GroupCommitStats group_commit;
  /// Phase-attributed virtual-time latency from the concurrent write path:
  /// intake wait, batch apply (0: each write is applied alone), lane
  /// queue, device service — exported into the manifest's
  /// latency_breakdown block with its additivity identity.
  lss::LatencyBreakdown breakdown;
  /// Device-lane snapshot: per-lane submit/stall/busy counters plus the
  /// merged queue-depth and submit→complete distributions.
  lss::DeviceLanesStats lanes;
  lss::LssMetrics metrics;
  std::size_t policy_memory_bytes = 0;
  /// LssEngine::memory_usage_bytes(): block map, shadow table, segment
  /// headers and bitmaps, slot-LBA arena.
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

/// Runs the prototype to completion and reports measured throughput.
PrototypeResult run_prototype(const PrototypeConfig& config);

}  // namespace adapt::proto
