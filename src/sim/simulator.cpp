#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "adapt/adapt_policy.h"
#include "adapt/shard_stack.h"
#include "common/types.h"
#include "lss/sharded_engine.h"
#include "placement/factory.h"

namespace adapt::sim {

const std::vector<std::string_view>& all_policy_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> all = placement::baseline_names();
    all.emplace_back("adapt");
    return all;
  }();
  return names;
}

VolumeResult run_volume(const trace::Volume& volume,
                        std::string_view policy_name,
                        const SimConfig& config) {
  lss::LssConfig lss_config = config.lss;
  // Floor the logical space so that even an 8-group policy has enough
  // over-provisioned segments for its GC watermark (see
  // LssConfig::validate).
  lss_config.logical_blocks = std::max<std::uint64_t>(
      volume.capacity_blocks, lss::kMinShardBlocks);

  core::StackSpec spec;
  spec.policy = policy_name;
  spec.victim = config.victim_policy;
  spec.with_array = config.with_array;
  spec.adapt.enable_threshold_adaptation = config.adapt_threshold_adaptation;
  spec.adapt.enable_cross_group_aggregation =
      config.adapt_cross_group_aggregation;
  spec.adapt.enable_proactive_demotion = config.adapt_proactive_demotion;
  // The adapt policy, when it is one, also feeds the trace ring and the
  // sampler's threshold column.
  core::AdaptPolicy* adapt_policy = nullptr;
  lss::ShardedEngine engine(
      lss_config, 1, config.seed,
      [&](std::uint32_t /*shard_index*/, const lss::LssConfig& shard_lss) {
        lss::ShardParts parts = core::make_shard_parts(spec, shard_lss);
        adapt_policy = dynamic_cast<core::AdaptPolicy*>(parts.policy.get());
        return parts;
      });
  lss::LssEngine& shard = engine.shard(0);

  const auto wall_start = std::chrono::steady_clock::now();
  std::optional<obs::TraceLog> trace_log;
  if (config.tracing_enabled) {
    trace_log.emplace(config.tracing);
    engine.set_trace_sink(0, &*trace_log);
    // The policy's re-adaptation events land in the engine's ring, keeping
    // the timeline's order deterministic.
    if (adapt_policy != nullptr) adapt_policy->set_trace_sink(&*trace_log);
  }
  std::optional<obs::EngineSampler> sampler;
  if (config.sampling_enabled) {
    std::function<double()> probe;
    if (adapt_policy != nullptr) {
      probe = [adapt_policy] { return adapt_policy->threshold(); };
    }
    sampler.emplace(config.sampling, std::move(probe));
    shard.set_observer(&*sampler);
  }
  // Live runtime stats stack ON TOP of sampling: the observer slot gets a
  // LiveStatsObserver that forwards to the sampler (if any) and publishes
  // block progress into the sink.
  std::optional<obs::LiveStatsObserver> live;
  if (config.live_stats != nullptr) {
    live.emplace(*config.live_stats, sampler ? &*sampler : nullptr);
    shard.set_observer(&*live);
  }

  // Requests past the volume's declared capacity are trace noise: clamp;
  // one wholly past it becomes a zero-block op, which replay skips.
  const Lba addressable =
      std::min<Lba>(std::max<Lba>(volume.capacity_blocks, 1),
                    lss_config.logical_blocks);
  const std::vector<trace::Record>& records = volume.records;
  const auto total_records = static_cast<std::uint64_t>(records.size());
  const TimeUs last_ts = records.empty() ? 0 : records.back().ts_us;
  engine.replay(records.size(), [&records, addressable](std::size_t i) {
    const trace::Record& r = records[i];
    const Lba room = r.lba < addressable ? addressable - r.lba : 0;
    return lss::ReplayOp{
        r.lba, static_cast<std::uint32_t>(std::min<Lba>(r.blocks, room)),
        r.ts_us, r.op == trace::OpType::kWrite};
  });
  engine.flush_all();
  if (sampler) sampler->finalize(shard, last_ts);
  if (live) live->flush();

  VolumeResult result;
  result.volume_id = volume.id;
  result.policy = std::string(policy_name);
  result.victim = config.victim_policy;
  result.metrics = engine.merged_metrics();
  result.segments_per_group = engine.merged_segments_per_group();
  result.policy_memory_bytes = engine.policy_memory_bytes();
  if (config.with_array) result.array_totals = engine.merged_array_totals();

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  obs::RunManifest& man = result.manifest;
  man.policy = result.policy;
  man.victim = result.victim;
  man.volume_id = volume.id;
  man.seed = config.seed;
  man.records = total_records;
  man.user_blocks = result.metrics.user_blocks;
  man.wall_seconds = wall_seconds;
  man.records_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(total_records) / wall_seconds
                         : 0.0;
  man.peak_rss_bytes = obs::current_peak_rss_bytes();
  man.chunk_blocks = lss_config.chunk_blocks;
  man.segment_chunks = lss_config.segment_chunks;
  man.logical_blocks = lss_config.logical_blocks;
  man.over_provision = lss_config.over_provision;
  // Pending (appended-but-unflushed) blocks close the write-accounting
  // identity from the manifest alone; after flush_all this is normally 0.
  man.provenance =
      obs::provenance_of(result.metrics, engine.merged_pending_blocks());
  man.block_lifetime = result.metrics.block_lifetime;
  man.gc_pause_us = result.metrics.gc_pause_us;
  obs::register_lss_metrics(man.counters, result.metrics);
  if (trace_log) {
    obs::TraceData data = obs::merge_trace_logs({&*trace_log});
    // Trace capture summary rides in the manifest, so drop accounting
    // survives even when the trace JSON itself is discarded.
    man.trace_present = true;
    man.trace_recorded = data.recorded;
    man.trace_dropped = data.dropped;
    man.trace_per_shard_dropped = data.per_shard_dropped;
    result.trace =
        std::make_shared<const obs::TraceData>(std::move(data));
  }
  if (sampler) {
    result.series = std::make_shared<const obs::TimeSeries>(sampler->take());
  }
  return result;
}

}  // namespace adapt::sim
