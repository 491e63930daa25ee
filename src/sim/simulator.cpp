#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>

#include "adapt/adapt_policy.h"
#include "adapt/aggregation.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "lss/sharded_engine.h"
#include "placement/factory.h"

namespace adapt::sim {
namespace {

/// Per-shard policy pointers recorded by the shard factory: the
/// aggregation hook is wired at engine construction, and the adapt pointer
/// feeds the sampler's live-threshold probe.
struct ShardPolicyRefs {
  core::AdaptPolicy* adapt = nullptr;
};

/// Builds one shard's placement policy (plus hook) for `policy_name`. A
/// "+agg" suffix wraps a baseline with ADAPT's cross-group aggregation rule
/// (see adapt/aggregation.h).
lss::ShardParts make_shard_parts(std::string_view policy_name,
                                 const SimConfig& config,
                                 const lss::LssConfig& shard_lss,
                                 std::uint64_t shard_seed,
                                 ShardPolicyRefs& refs) {
  lss::ShardParts parts;
  constexpr std::string_view kAggSuffix = "+agg";
  if (policy_name.size() > kAggSuffix.size() &&
      policy_name.ends_with(kAggSuffix)) {
    placement::PolicyConfig pc;
    pc.logical_blocks = shard_lss.logical_blocks;
    pc.segment_blocks = shard_lss.segment_blocks();
    pc.seed = shard_seed;
    auto inner = placement::make_baseline_policy(
        policy_name.substr(0, policy_name.size() - kAggSuffix.size()), pc);
    auto wrapped = std::make_unique<core::AggregatingPolicy>(
        std::move(inner), shard_lss.chunk_blocks);
    parts.hook = wrapped.get();
    parts.policy = std::move(wrapped);
  } else if (policy_name == "adapt") {
    core::AdaptConfig ac;
    ac.logical_blocks = shard_lss.logical_blocks;
    ac.segment_blocks = shard_lss.segment_blocks();
    ac.chunk_blocks = shard_lss.chunk_blocks;
    ac.over_provision = shard_lss.over_provision;
    ac.enable_threshold_adaptation = config.adapt_threshold_adaptation;
    ac.enable_cross_group_aggregation =
        config.adapt_cross_group_aggregation;
    ac.enable_proactive_demotion = config.adapt_proactive_demotion;
    auto p = core::make_adapt_policy(ac);
    refs.adapt = p.get();
    parts.hook = p.get();
    parts.policy = std::move(p);
  } else {
    placement::PolicyConfig pc;
    pc.logical_blocks = shard_lss.logical_blocks;
    pc.segment_blocks = shard_lss.segment_blocks();
    pc.seed = shard_seed;
    parts.policy = placement::make_baseline_policy(policy_name, pc);
  }

  parts.victim = lss::make_victim_policy(config.victim_policy);

  if (config.with_array) {
    array::SsdArrayConfig arr;
    arr.chunk_bytes = shard_lss.chunk_blocks * shard_lss.block_bytes;
    arr.num_streams = parts.policy->group_count();
    parts.array = std::make_unique<array::SsdArray>(arr);
  }
  return parts;
}

}  // namespace

const std::vector<std::string_view>& all_policy_names() {
  static const std::vector<std::string_view> names = {
      "sepgc", "mida", "dac", "warcip", "sepbit", "adapt"};
  return names;
}

VolumeResult run_volume(const trace::Volume& volume,
                        std::string_view policy_name,
                        const SimConfig& config) {
  if (config.shards == 0 || config.shards > lss::kMaxShards) {
    throw std::invalid_argument("SimConfig: shards out of range");
  }
  const std::uint32_t shards = config.shards;

  lss::LssConfig lss_config = config.lss;
  // Floor the logical space so that even an 8-group policy has enough
  // over-provisioned segments for its GC watermark (see
  // LssConfig::validate); with sharding the floor applies per shard.
  lss_config.logical_blocks = std::max<std::uint64_t>(
      volume.capacity_blocks, lss::kMinShardBlocks * shards);

  std::vector<ShardPolicyRefs> policy_refs(shards);
  const auto factory = [&](std::uint32_t shard_index,
                           const lss::LssConfig& shard_lss) {
    return make_shard_parts(policy_name, config, shard_lss,
                            config.seed + shard_index,
                            policy_refs[shard_index]);
  };
  lss::ShardedEngine engine(lss_config, shards, config.seed, factory);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<obs::TraceLog>> trace_logs;
  if (config.tracing_enabled) {
    trace_logs.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      trace_logs.push_back(std::make_unique<obs::TraceLog>(config.tracing));
      engine.set_trace_sink(i, trace_logs[i].get());
      // The policy's re-adaptation events land in the same shard ring as
      // its engine's, keeping the merged order deterministic.
      if (core::AdaptPolicy* adapt_policy = policy_refs[i].adapt;
          adapt_policy != nullptr) {
        adapt_policy->set_trace_sink(trace_logs[i].get());
      }
    }
  }
  std::vector<std::unique_ptr<obs::EngineSampler>> samplers;
  if (config.sampling_enabled) {
    samplers.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      std::function<double()> probe;
      if (core::AdaptPolicy* adapt_policy = policy_refs[i].adapt;
          adapt_policy != nullptr) {
        probe = [adapt_policy] { return adapt_policy->threshold(); };
      }
      samplers.push_back(std::make_unique<obs::EngineSampler>(
          config.sampling, std::move(probe)));
      engine.shard(i).set_observer(samplers[i].get());
    }
  }
  // Live runtime stats stack ON TOP of sampling: each shard's observer
  // slot gets a LiveStatsObserver that forwards to the sampler (if any)
  // and publishes block progress into the shared sink.
  std::vector<std::unique_ptr<obs::LiveStatsObserver>> live_observers;
  if (config.live_stats != nullptr) {
    live_observers.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      lss::EngineObserver* inner =
          i < samplers.size() ? samplers[i].get() : nullptr;
      live_observers.push_back(std::make_unique<obs::LiveStatsObserver>(
          *config.live_stats, inner));
      engine.shard(i).set_observer(live_observers[i].get());
    }
  }

  // Requests past the volume's declared capacity are trace noise: clamp;
  // one wholly past it becomes a zero-block op, which replay skips.
  const Lba addressable =
      std::min<Lba>(std::max<Lba>(volume.capacity_blocks, 1),
                    lss_config.logical_blocks);
  const std::vector<trace::Record>& records = volume.records;
  const auto total_records = static_cast<std::uint64_t>(records.size());
  const TimeUs last_ts = records.empty() ? 0 : records.back().ts_us;
  // One replay thread per shard; a single shard runs on this thread.
  std::unique_ptr<ThreadPool> pool;
  if (shards > 1) pool = std::make_unique<ThreadPool>(shards);
  engine.replay(
      records.size(),
      [&records, addressable](std::size_t i) {
        const trace::Record& r = records[i];
        const Lba room = r.lba < addressable ? addressable - r.lba : 0;
        return lss::ReplayOp{
            r.lba, static_cast<std::uint32_t>(std::min<Lba>(r.blocks, room)),
            r.ts_us, r.op == trace::OpType::kWrite};
      },
      pool.get());
  engine.flush_all();
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(samplers.size());
       ++i) {
    samplers[i]->finalize(engine.shard(i), last_ts);
  }
  for (const auto& live : live_observers) live->flush();

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
  if (!trace_logs.empty()) {
    std::vector<const obs::TraceLog*> ptrs;
    ptrs.reserve(trace_logs.size());
    for (const auto& log : trace_logs) ptrs.push_back(log.get());
    obs::TraceData data = obs::merge_trace_logs(ptrs);
    // Trace capture summary rides in the manifest, so drop accounting
    // survives even when the trace JSON itself is discarded.
    man.trace_present = true;
    man.trace_recorded = data.recorded;
    man.trace_dropped = data.dropped;
    man.trace_per_shard_dropped = data.per_shard_dropped;
    result.trace =
        std::make_shared<const obs::TraceData>(std::move(data));
  }
  if (!samplers.empty()) {
    std::vector<obs::TimeSeries> parts;
    parts.reserve(samplers.size());
    for (auto& sampler : samplers) parts.push_back(sampler->take());
    result.series = std::make_shared<const obs::TimeSeries>(
        obs::merge_series(std::move(parts)));
  }
  return result;
}

}  // namespace adapt::sim
