// Trace-driven simulator: replays one volume's record stream through a
// placement policy + LSS engine + SSD-array model and reports the metrics
// the paper's evaluation is built on (WA, padding-traffic ratio, per-group
// traffic, policy memory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "array/ssd_array.h"
#include "lss/config.h"
#include "lss/engine.h"
#include "lss/metrics.h"
#include "obs/export.h"
#include "obs/runtime_stats.h"
#include "obs/trace_log.h"
#include "trace/record.h"

namespace adapt::sim {

struct SimConfig {
  lss::LssConfig lss;  ///< logical_blocks is overridden per volume
  std::string victim_policy = "greedy";
  bool with_array = true;
  std::uint64_t seed = 1;
  /// ADAPT ablation switches (ignored by baselines).
  bool adapt_threshold_adaptation = true;
  bool adapt_cross_group_aggregation = true;
  bool adapt_proactive_demotion = true;
  /// Observability: when enabled, run_volume attaches an obs::EngineSampler
  /// (plus a live-threshold probe for the "adapt" policy) and returns the
  /// time series in VolumeResult::series. Off by default — the replay loop
  /// then pays exactly one null check per user block.
  bool sampling_enabled = false;
  obs::SamplerConfig sampling;
  /// Event tracing: when enabled, run_volume attaches an obs::TraceLog and
  /// returns the deterministic timeline in VolumeResult::trace. Off by
  /// default — tracing is passive (pinned fixed-seed metrics stay
  /// bit-identical either way), but the ring writes are not free, so it
  /// stays opt-in.
  bool tracing_enabled = false;
  obs::TraceLogConfig tracing;
  /// Live runtime stats: when set, the replay publishes its user blocks
  /// into this sink (one publish per 256 blocks, the remainder after the
  /// drain), so an obs::LiveStatsPrinter can report the replay while it
  /// runs. Not owned; must outlive run_volume. Null (off) by default.
  obs::RuntimeStats* live_stats = nullptr;
};

struct VolumeResult {
  std::uint64_t volume_id = 0;
  std::string policy;
  std::string victim;
  lss::LssMetrics metrics;
  array::StreamStats array_totals;
  std::vector<std::uint32_t> segments_per_group;
  std::size_t policy_memory_bytes = 0;
  /// Provenance + cost summary (always filled; counters hold the lss.*
  /// registry snapshot of this volume's metrics).
  obs::RunManifest manifest;
  /// Sampled time series; null unless SimConfig::sampling_enabled.
  std::shared_ptr<const obs::TimeSeries> series;
  /// Event trace; null unless SimConfig::tracing_enabled.
  std::shared_ptr<const obs::TraceData> trace;

  double wa() const noexcept { return metrics.wa(); }
  double padding_ratio() const noexcept { return metrics.padding_ratio(); }
};

/// Known policy names: the baselines plus "adapt".
const std::vector<std::string_view>& all_policy_names();

/// Replays `volume` under `policy_name` on one engine, on the calling
/// thread, and returns the metrics. Throws std::invalid_argument for
/// unknown policies.
VolumeResult run_volume(const trace::Volume& volume,
                        std::string_view policy_name, const SimConfig& config);

}  // namespace adapt::sim
