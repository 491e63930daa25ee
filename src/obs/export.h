// Machine-readable exporters for the observability layer:
//
//   * JSONL series dump — one header line plus one JSON object per sample,
//     with windowed WA / padding ratio / GC rate / shadow-append rate
//     derived from consecutive cumulative rows;
//   * CSV series dump — flat scalar columns for gnuplot;
//   * run manifest — config, seed, wall clock, records/s, peak RSS and the
//     merged counter registry, attached to every VolumeResult/CellResult;
//   * BenchReport — the schema-stable `BENCH_<name>.json` emitter every
//     figure bench feeds the perf trajectory through.
//
// Each artifact has a validator that throws std::invalid_argument with a
// reason on schema violations; `tools/check_bench_json` wraps them as a CLI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "lss/device_lanes.h"
#include "lss/op_timeline.h"
#include "obs/provenance.h"
#include "obs/registry.h"
#include "obs/series.h"

namespace adapt::obs {

inline constexpr std::string_view kSeriesSchema = "adapt-series-v1";
inline constexpr std::string_view kManifestSchema = "adapt-manifest-v1";
inline constexpr std::string_view kBenchSchema = "adapt-bench-v1";

/// Provenance + cost summary of one simulation run (or an aggregate over a
/// cell's runs).
struct RunManifest {
  std::string tool = "simulator";
  std::string policy;
  std::string victim;
  std::string workload;  ///< profile / trace name; set by the driver
  std::uint64_t volume_id = 0;
  std::uint64_t seed = 0;
  std::uint64_t records = 0;
  std::uint64_t user_blocks = 0;
  double wall_seconds = 0.0;  ///< worker wall clock (summed for aggregates)
  double records_per_sec = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  // Geometry.
  std::uint32_t chunk_blocks = 0;
  std::uint32_t segment_chunks = 0;
  std::uint64_t logical_blocks = 0;
  double over_provision = 0.0;
  /// Merged counter registry (per-engine instances summed at collection).
  Registry counters;
  /// Per-group write-provenance matrix; validate_manifest_json checks it
  /// against the write-accounting identity.
  ManifestProvenance provenance;
  /// Deterministic block-lifetime distribution (vtime units).
  Log2Histogram block_lifetime;
  /// Host-clock GC pause distribution (microseconds). Nondeterministic:
  /// reported, but skipped by the adapt_compare gate.
  Log2Histogram gc_pause_us;
  /// Host-clock per-op submit→durable latency (nanoseconds), filled by the
  /// prototype's concurrent front-end. Optional in the schema: emitted only
  /// when non-empty (simulator manifests have no op latency), validated when
  /// present, and — being host timing — skipped by the adapt_compare gate.
  Log2Histogram latency_ns;
  /// Device-lane submission/completion stats (lss::DeviceLanes), filled by
  /// the prototype. Optional in the schema like latency_ns: emitted only
  /// when non-empty, validated when present. Queue occupancy depends on
  /// thread interleaving, so the block is informational — adapt_compare
  /// compares only the fields it names and never this one.
  lss::DeviceLanesStats lanes;
  /// Phase-attributed op latency (virtual-time microseconds) from the
  /// concurrent write path (ConcurrentEngine::latency_breakdown). Optional
  /// like lanes: emitted only when non-empty. When present the validator
  /// enforces the additivity identity — every phase histogram has the same
  /// count as total, and the four phase sums add up to total's sum exactly
  /// (see lss/op_timeline.h).
  lss::LatencyBreakdown latency_breakdown;
  /// Trace capture summary: recorded/dropped event counts per run plus the
  /// per-shard drop split. Optional: emitted when a trace was captured
  /// (trace_present), even if it dropped nothing. The validator requires
  /// per_shard_dropped to sum to dropped.
  bool trace_present = false;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<std::uint64_t> trace_per_shard_dropped;
};

/// Peak resident set of this process in bytes (getrusage; 0 if unknown).
std::uint64_t current_peak_rss_bytes();

/// Registers the engine's global counters into `r` (names `lss.*`).
void register_lss_metrics(Registry& r, const lss::LssMetrics& m);

std::string manifest_json(const RunManifest& manifest);

void write_series_jsonl(std::ostream& out, const TimeSeries& series);
void write_series_csv(std::ostream& out, const TimeSeries& series);

/// Validators: throw std::invalid_argument on malformed or schema-violating
/// input. validate_series_jsonl returns the number of sample rows.
void validate_manifest_json(std::string_view text);
std::size_t validate_series_jsonl(std::string_view text);
void validate_bench_json(std::string_view text);

/// Checked artifact write: replaces `path` with `text`. Throws
/// std::runtime_error when the file cannot be opened or the write or its
/// flush fails, so a bad output path never yields a truncated or empty
/// artifact behind a zero exit code.
void write_artifact(const std::filesystem::path& path, std::string_view text);

/// Schema-stable bench result emitter. Every figure bench creates one,
/// `add()`s its headline series as (metric, params, value, unit) rows and
/// `write_file()`s a `BENCH_<name>.json` into the working directory, seeding
/// the cross-PR perf trajectory.
class BenchReport {
 public:
  using Params = std::vector<std::pair<std::string, std::string>>;

  explicit BenchReport(std::string name);

  void add(std::string_view metric, Params params, double value,
           std::string_view unit);

  std::string json() const;

  /// Writes `<dir>/BENCH_<name>.json` through write_artifact (so it throws
  /// on a failed write); returns the path.
  std::string write_file(const std::string& dir = ".") const;

  const std::string& name() const noexcept { return name_; }
  std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  struct Row {
    std::string metric;
    Params params;
    double value;
    std::string unit;
  };

  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace adapt::obs
