#include "obs/series.h"

#include <algorithm>
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

}  // namespace adapt::obs
