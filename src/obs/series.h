// Windowed time-series sampling for the LSS engine.
//
// The paper's evaluation argues from *trajectories* — threshold adaptation
// reacting to workload drift (§3.2, Fig. 7), WA/padding correlation over
// time (Fig. 10), per-group traffic breakdowns (Fig. 8–9) — so the sampler
// snapshots cumulative engine counters every `window_blocks` user blocks.
// Rows store cumulative values, never deltas: windowed series (windowed WA,
// padding ratio, GC rate, shadow-append rate) are derived at export time
// from consecutive rows, which makes downsampling trivially correct.
//
// Fixed memory: when the row buffer reaches `max_rows`, every second row is
// dropped and the sampling stride doubles (HdrHistogram-recorder style), so
// a run of any length costs at most `max_rows` rows while keeping uniform
// spacing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "lss/engine.h"

namespace adapt::obs {

/// Per-group cumulative traffic at one sample point.
struct GroupSample {
  std::uint64_t user_blocks = 0;
  std::uint64_t gc_blocks = 0;
  std::uint64_t shadow_blocks = 0;
  std::uint64_t padding_blocks = 0;
  std::uint64_t valid_blocks = 0;  ///< live blocks resident in the group
  std::uint32_t segments = 0;      ///< in-use segments owned by the group
};

/// One snapshot of cumulative engine counters (see file comment: windowed
/// series are derived from consecutive rows at export time).
struct SeriesRow {
  std::uint64_t vtime = 0;
  TimeUs wall_us = 0;
  std::uint64_t user_blocks = 0;
  std::uint64_t gc_blocks = 0;
  std::uint64_t shadow_blocks = 0;
  std::uint64_t padding_blocks = 0;
  std::uint64_t rmw_blocks = 0;
  std::uint64_t chunks_flushed = 0;
  std::uint64_t gc_runs = 0;
  std::uint32_t free_segments = 0;
  std::uint64_t live_shadows = 0;
  /// Live ADAPT hot/cold threshold; NaN when the policy has none.
  double threshold = std::numeric_limits<double>::quiet_NaN();
  std::vector<GroupSample> groups;  ///< empty when per-group sampling is off
};

struct TimeSeries {
  std::uint64_t window_blocks = 0;  ///< final stride (doubles on downsample)
  std::uint32_t downsamples = 0;    ///< resolution-halving events
  std::vector<SeriesRow> rows;
};

struct SamplerConfig {
  /// Initial sampling stride in user blocks.
  std::uint64_t window_blocks = 4096;
  /// Fixed memory bound on retained rows (minimum 8).
  std::size_t max_rows = 512;
  /// Capture per-group traffic / fill / valid columns. The valid-block
  /// recount walks the segment pool (O(total segments) per sample).
  bool per_group = true;
};

/// Engine observer that materialises a TimeSeries. Purely passive: the
/// engine's behaviour and metrics are bit-identical with the sampler
/// attached or not.
class EngineSampler final : public lss::EngineObserver {
 public:
  /// `threshold_probe` (optional) reports the live ADAPT threshold; leave
  /// empty for policies without one.
  explicit EngineSampler(const SamplerConfig& config,
                         std::function<double()> threshold_probe = {});

  void on_user_block(const lss::LssEngine& engine, TimeUs now_us) override;

  /// Takes a final snapshot unless the last row already covers the current
  /// vtime (call after the end-of-trace drain).
  void finalize(const lss::LssEngine& engine, TimeUs now_us);

  const TimeSeries& series() const noexcept { return series_; }
  TimeSeries take() { return std::move(series_); }

 private:
  void snapshot(const lss::LssEngine& engine, TimeUs now_us);
  void maybe_downsample();

  SamplerConfig config_;
  std::function<double()> threshold_probe_;
  TimeSeries series_;
  std::uint64_t next_vtime_;
  /// Reused across snapshots so the per-sample segments_per_group query
  /// allocates only when the group count grows (observer hot path).
  std::vector<std::uint32_t> segments_scratch_;
};

}  // namespace adapt::obs
