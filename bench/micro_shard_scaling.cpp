// Micro-benchmark: parallel replay throughput of the LBA-sharded engine.
//
// Replays one fixed synthetic volume through sim::run_volume at shard
// counts 1, 2, 4 (ADAPT_BENCH_MAX_SHARDS raises the sweep) and reports
// records/s plus the speedup over the 1-shard baseline. The volume's
// capacity is sized so the simulator's 32Ki-blocks-per-shard floor never
// kicks in: every shard count replays the same records over the same
// logical space, only partitioned differently.
//
// Honest numbers: the speedup column can only reach ~min(shards, cores).
// The bench prints the hardware concurrency it ran under — on a 1-core
// container every shard count serialises onto one CPU and the speedup
// hovers around 1.0; CI's multi-core runners are where the >= 2x at 4
// shards acceptance line is checked.
//
// Emits BENCH_shard_scaling.json (adapt-bench-v1) in the working directory.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "lss/sharded_engine.h"
#include "sim/simulator.h"

namespace adapt::bench {
namespace {

/// A skewed write-mostly volume over a fixed capacity: the same shape the
/// cloud profiles produce, but with the capacity pinned so per-shard
/// geometry is identical across the sweep.
trace::Volume make_bench_volume(std::uint64_t capacity_blocks, double fill,
                                std::uint64_t seed) {
  trace::Volume volume;
  volume.id = 0;
  volume.capacity_blocks = capacity_blocks;
  ScrambledZipfianGenerator zipf(capacity_blocks, 0.99);
  Rng rng(seed);
  const auto target_blocks =
      static_cast<std::uint64_t>(fill * static_cast<double>(capacity_blocks));
  std::uint64_t written = 0;
  TimeUs ts = 0;
  while (written < target_blocks) {
    trace::Record r;
    ts += rng.below(50);
    r.ts_us = ts;
    r.lba = std::min<Lba>(zipf.next(rng), capacity_blocks - 8);
    r.blocks = static_cast<std::uint32_t>(1 + rng.below(8));
    r.op = rng.below(100) < 90 ? trace::OpType::kWrite : trace::OpType::kRead;
    if (r.op == trace::OpType::kWrite) written += r.blocks;
    volume.records.push_back(r);
  }
  return volume;
}

struct ShardRun {
  std::uint32_t shards = 0;
  double records_per_s = 0.0;
  double wall_seconds = 0.0;
  double wa = 0.0;
};

ShardRun run_at(const trace::Volume& volume, std::uint32_t shards,
                std::uint64_t reps) {
  sim::SimConfig config;
  config.seed = 42;
  config.shards = shards;
  ShardRun best;
  best.shards = shards;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const sim::VolumeResult result =
        sim::run_volume(volume, "adapt", config);
    if (result.manifest.records_per_sec > best.records_per_s) {
      best.records_per_s = result.manifest.records_per_sec;
      best.wall_seconds = result.manifest.wall_seconds;
    }
    best.wa = result.wa();
  }
  return best;
}

int run() {
  // >= 32Ki blocks per shard at the largest sweep point keeps the
  // simulator's per-shard floor inactive (see SimConfig::shards).
  const std::uint64_t max_shards =
      std::max<std::uint64_t>(env_u64("ADAPT_BENCH_MAX_SHARDS", 4), 1);
  const std::uint64_t capacity = std::max<std::uint64_t>(
      env_u64("ADAPT_BENCH_SHARD_CAPACITY", std::uint64_t{1} << 17),
      lss::kMinShardBlocks * max_shards);
  const double fill = env_f64("ADAPT_BENCH_FILL", 3.0);
  const std::uint64_t reps = std::max<std::uint64_t>(
      env_u64("ADAPT_BENCH_REPS", 3), 1);

  print_header("shard scaling",
               "parallel replay throughput, LBA-sharded engine");
  const trace::Volume volume = make_bench_volume(capacity, fill, 4242);
  std::printf("volume: %zu records over %llu blocks (fill %.1f), "
              "%llu rep(s)/point, %u hardware threads\n\n",
              volume.records.size(),
              static_cast<unsigned long long>(capacity), fill,
              static_cast<unsigned long long>(reps),
              std::thread::hardware_concurrency());

  std::vector<std::uint32_t> sweep;
  for (std::uint32_t s = 1; s <= max_shards; s *= 2) sweep.push_back(s);

  std::printf("%8s %14s %10s %10s %8s\n", "shards", "records/s", "wall_s",
              "speedup", "WA");
  obs::BenchReport report("shard_scaling");
  double baseline_rps = 0.0;
  for (const std::uint32_t shards : sweep) {
    const ShardRun run = run_at(volume, shards, reps);
    if (shards == 1) baseline_rps = run.records_per_s;
    const double speedup =
        baseline_rps > 0.0 ? run.records_per_s / baseline_rps : 0.0;
    std::printf("%8u %14.0f %10.3f %9.2fx %8.3f\n", shards,
                run.records_per_s, run.wall_seconds, speedup, run.wa);
    const obs::BenchReport::Params key = {
        {"shards", fmt(shards)}, {"workload", "zipf-0.99"}};
    report.add("replay_records_per_s", key, run.records_per_s, "1/s");
    report.add("replay_wall_s", key, run.wall_seconds, "s");
    report.add("speedup_vs_1shard", key, speedup, "ratio");
    report.add("wa", key, run.wa, "ratio");
  }
  write_report(report);
  return 0;
}

}  // namespace
}  // namespace adapt::bench

int main() { return adapt::bench::run(); }
