#include "obs/series.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adapt::obs {

EngineSampler::EngineSampler(const SamplerConfig& config,
                             std::function<double()> threshold_probe)
    : config_(config), threshold_probe_(std::move(threshold_probe)) {
  if (config_.window_blocks == 0) {
    throw std::invalid_argument("EngineSampler: window_blocks must be > 0");
  }
  config_.max_rows = std::max<std::size_t>(config_.max_rows, 8);
  series_.window_blocks = config_.window_blocks;
  series_.rows.reserve(config_.max_rows);
  next_vtime_ = config_.window_blocks;
}

void EngineSampler::on_user_block(const lss::LssEngine& engine,
                                  TimeUs now_us) {
  if (engine.vtime() < next_vtime_) return;
  snapshot(engine, now_us);
  next_vtime_ += series_.window_blocks;
  maybe_downsample();
}

void EngineSampler::finalize(const lss::LssEngine& engine, TimeUs now_us) {
  if (!series_.rows.empty() && series_.rows.back().vtime == engine.vtime()) {
    return;
  }
  snapshot(engine, now_us);
  maybe_downsample();
}

void EngineSampler::snapshot(const lss::LssEngine& engine, TimeUs now_us) {
  const lss::LssMetrics& m = engine.metrics();
  SeriesRow row;
  row.vtime = engine.vtime();
  row.wall_us = now_us;
  row.user_blocks = m.user_blocks;
  row.gc_blocks = m.gc_blocks;
  row.shadow_blocks = m.shadow_blocks;
  row.padding_blocks = m.padding_blocks;
  row.rmw_blocks = m.rmw_blocks;
  row.chunks_flushed = engine.chunks_flushed();
  row.gc_runs = m.gc_runs;
  row.free_segments = engine.free_segments();
  row.live_shadows = engine.live_shadow_count();
  if (threshold_probe_) row.threshold = threshold_probe_();
  if (config_.per_group) {
    row.groups.resize(engine.group_count());
    for (GroupId g = 0; g < engine.group_count(); ++g) {
      const lss::GroupTraffic& gt = engine.group_traffic(g);
      GroupSample& gs = row.groups[g];
      gs.user_blocks = gt.user_blocks;
      gs.gc_blocks = gt.gc_blocks;
      gs.shadow_blocks = gt.shadow_blocks;
      gs.padding_blocks = gt.padding_blocks;
    }
    engine.segments_per_group(segments_scratch_);
    for (GroupId g = 0; g < engine.group_count(); ++g) {
      row.groups[g].segments = segments_scratch_[g];
    }
    for (const lss::Segment& seg : engine.segments()) {
      if (seg.free || seg.group >= row.groups.size()) continue;
      row.groups[seg.group].valid_blocks += seg.valid_count;
    }
  }
  series_.rows.push_back(std::move(row));
}

void EngineSampler::maybe_downsample() {
  if (series_.rows.size() < config_.max_rows) return;
  // Keep rows 0, 2, 4, ...: cumulative counters stay exact, spacing stays
  // uniform at twice the stride.
  std::vector<SeriesRow>& rows = series_.rows;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows.size(); i += 2) {
    rows[kept++] = std::move(rows[i]);
  }
  rows.resize(kept);
  series_.window_blocks *= 2;
  ++series_.downsamples;
  next_vtime_ = rows.back().vtime + series_.window_blocks;
}

TimeSeries merge_series(std::vector<TimeSeries> parts) {
  if (parts.empty()) {
    throw std::invalid_argument("merge_series: no series to merge");
  }
  if (parts.size() == 1) return std::move(parts.front());

  // All parts must descend from the same initial stride: stride =
  // W << downsamples. Align everything to the coarsest stride by keeping
  // every 2^(d_max - d_i)-th row — exactly what further sampler
  // downsampling would have kept, so cumulative rows stay exact.
  std::uint32_t d_max = 0;
  for (const TimeSeries& part : parts) {
    if (part.window_blocks == 0 ||
        (part.window_blocks >> part.downsamples) == 0 ||
        (part.window_blocks >> part.downsamples) << part.downsamples !=
            part.window_blocks) {
      throw std::invalid_argument("merge_series: corrupt series header");
    }
    d_max = std::max(d_max, part.downsamples);
  }
  const std::uint64_t base_window = parts.front().window_blocks >>
                                    parts.front().downsamples;
  for (const TimeSeries& part : parts) {
    if ((part.window_blocks >> part.downsamples) != base_window) {
      throw std::invalid_argument(
          "merge_series: parts sampled with different windows");
    }
  }

  std::size_t max_rows = 0;
  for (TimeSeries& part : parts) {
    const std::uint32_t factor_log2 = d_max - part.downsamples;
    if (factor_log2 > 0) {
      const std::size_t step = std::size_t{1} << factor_log2;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < part.rows.size(); i += step) {
        part.rows[kept++] = std::move(part.rows[i]);
      }
      part.rows.resize(kept);
    }
    max_rows = std::max(max_rows, part.rows.size());
  }

  TimeSeries merged;
  merged.window_blocks =
      (base_window << d_max) * static_cast<std::uint64_t>(parts.size());
  merged.downsamples = d_max;
  merged.rows.resize(max_rows);
  for (std::size_t i = 0; i < max_rows; ++i) {
    SeriesRow& out = merged.rows[i];
    std::uint32_t thresholds = 0;
    double threshold_sum = 0.0;
    for (const TimeSeries& part : parts) {
      if (part.rows.empty()) continue;
      // A part that has run out (a shard that saw less traffic) keeps
      // contributing its last row: rows are cumulative, so that row is the
      // shard's final state.
      const SeriesRow& in = part.rows[std::min(i, part.rows.size() - 1)];
      out.vtime += in.vtime;
      out.wall_us = std::max(out.wall_us, in.wall_us);
      out.user_blocks += in.user_blocks;
      out.gc_blocks += in.gc_blocks;
      out.shadow_blocks += in.shadow_blocks;
      out.padding_blocks += in.padding_blocks;
      out.rmw_blocks += in.rmw_blocks;
      out.chunks_flushed += in.chunks_flushed;
      out.gc_runs += in.gc_runs;
      out.free_segments += in.free_segments;
      out.live_shadows += in.live_shadows;
      if (!std::isnan(in.threshold)) {
        threshold_sum += in.threshold;
        ++thresholds;
      }
      if (out.groups.size() < in.groups.size()) {
        out.groups.resize(in.groups.size());
      }
      for (std::size_t g = 0; g < in.groups.size(); ++g) {
        GroupSample& og = out.groups[g];
        const GroupSample& ig = in.groups[g];
        og.user_blocks += ig.user_blocks;
        og.gc_blocks += ig.gc_blocks;
        og.shadow_blocks += ig.shadow_blocks;
        og.padding_blocks += ig.padding_blocks;
        og.valid_blocks += ig.valid_blocks;
        og.segments += ig.segments;
      }
    }
    if (thresholds > 0) {
      out.threshold = threshold_sum / static_cast<double>(thresholds);
    }
  }
  return merged;
}

}  // namespace adapt::obs
