// Microbench: the single-shard engine's per-op hot path.
//
// Emits BENCH_engine_hotpath.json (adapt-bench-v1) with an end-to-end
// replay throughput (a one-shard ShardedEngine::replay, the loop
// sim::run_volume runs) plus a ns/op breakdown per component (map lookup and
// update, shadow-table churn, append/flush, GC migration, victim
// selection) and per call of ADAPT's placement structures (Bloom-filter
// lookup, demotion check on a 4-group × 4-filter cascade bank, ghost-set
// write). Everything runs at a fixed seed and fixed op counts, so the
// deterministic rows (block counters, WA, allocation counts) gate exactly
// under tools/adapt_compare against ci/baselines/BENCH_engine_hotpath.json;
// timing rows carry host-dependent units ("ns", "1/s") that the gate skips
// by design.
//
// The bench also proves the "zero steady-state allocations per op" claim:
// a global operator new/delete interposer counts every heap allocation, and
// the measured replay region, the Bloom cascade bank's steady state (ring
// rotations plus demotion checks) and the §3.2 threshold adapter's steady
// state (sampled writes into its ghost sets, their GC and its adoptions) must
// allocate nothing or the bench exits non-zero (and the gated
// steady_state_allocs rows would flag it in CI regardless).
//
// Scaling: ADAPT_HOTPATH_OPS / ADAPT_HOTPATH_WARMUP override the measured
// and warmup op counts (changing them changes the gated counter rows, so
// CI must run the defaults the committed baseline was generated with).

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "adapt/bloom.h"
#include "adapt/ghost_set.h"
#include "adapt/threshold_adapter.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "lss/block_map.h"
#include "lss/engine.h"
#include "lss/flat_shadow_map.h"
#include "lss/sharded_engine.h"
#include "placement/factory.h"

// ---------------------------------------------------------------------------
// Allocation interposer: counts every operator-new on the process, so a
// measured region can assert it allocated nothing.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace adapt {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps `value` observable so measured loops cannot be dead-code
/// eliminated; the branch is never taken for real checksums.
void keep(std::uint64_t value) {
  if (value == 0x5851f42d4c957f2dULL) std::puts("");
}

int run() {
  obs::BenchReport report("engine_hotpath");
  const std::uint64_t measured_ops =
      bench::env_u64("ADAPT_HOTPATH_OPS", 1u << 19);
  const std::uint64_t warmup_ops =
      bench::env_u64("ADAPT_HOTPATH_WARMUP", 1u << 19, /*lo=*/0);

  lss::LssConfig config;  // 16-block chunks, 256-block segments, 64Ki LBAs
  placement::PolicyConfig pc;
  pc.logical_blocks = config.logical_blocks;
  pc.segment_blocks = config.segment_blocks();
  // One shard: an exact pass-through to the engine it wraps, so the
  // measured window runs the replay loop sim::run_volume runs.
  lss::VictimPolicy* victim = nullptr;
  lss::ShardedEngine sharded(
      config, 1, /*base_seed=*/42,
      [&](std::uint32_t /*shard_index*/, const lss::LssConfig& /*shard*/) {
        lss::ShardParts parts;
        parts.policy = placement::make_baseline_policy("sepgc", pc);
        parts.victim = lss::make_greedy();
        victim = parts.victim.get();
        return parts;
      });
  lss::LssEngine& engine = sharded.shard(0);

  bench::print_header("micro_engine_hotpath",
                      "single-shard per-op hot path breakdown");

  // -- end-to-end replay ----------------------------------------------------
  // Fill once, churn to GC steady state, then measure a fixed op count.
  // The zipf LBA stream is drawn up front so the measured loop times the
  // engine, not the generator's pow() calls.
  TimeUs now_us = 0;
  for (Lba lba = 0; lba < config.logical_blocks; ++lba) {
    engine.write_block(lba, ++now_us);
  }
  ScrambledZipfianGenerator zipf(config.logical_blocks, 0.99);
  Rng rng(42);
  std::vector<Lba> workload(warmup_ops + measured_ops);
  for (Lba& lba : workload) lba = zipf.next(rng);
  for (std::uint64_t i = 0; i < warmup_ops; ++i) {
    engine.write_block(workload[i], ++now_us);
  }

  const lss::LssMetrics& m = engine.metrics();
  const std::uint64_t user_before = m.user_blocks;
  const std::uint64_t gc_before = m.gc_blocks;
  const std::uint64_t runs_before = m.gc_runs;
  const std::uint64_t chunks_before = engine.chunks_flushed();
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const TimeUs replay_base_us = now_us;
  const auto replay_start = Clock::now();
  sharded.replay(
      measured_ops,
      [&](std::size_t i) {
        return lss::ReplayOp{workload[warmup_ops + i], 1,
                             replay_base_us + i + 1, /*is_write=*/true};
      });
  const double replay_seconds = seconds_since(replay_start);
  now_us += measured_ops;
  const std::uint64_t steady_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t user_delta = m.user_blocks - user_before;
  const std::uint64_t gc_delta = m.gc_blocks - gc_before;

  const double records_per_sec =
      replay_seconds > 0 ? static_cast<double>(measured_ops) / replay_seconds
                         : 0.0;
  const double replay_ns =
      replay_seconds * 1e9 / static_cast<double>(measured_ops);
  const double window_wa =
      user_delta == 0
          ? 0.0
          : static_cast<double>(user_delta + gc_delta) /
                static_cast<double>(user_delta);
  report.add("replay.records_per_sec", {{"policy", "sepgc"}},
             records_per_sec, "1/s");
  report.add("replay.ns_per_op", {{"policy", "sepgc"}}, replay_ns, "ns");
  report.add("replay.user_blocks", {}, static_cast<double>(user_delta),
             "blocks");
  report.add("replay.gc_blocks", {}, static_cast<double>(gc_delta),
             "blocks");
  report.add("replay.gc_runs", {},
             static_cast<double>(m.gc_runs - runs_before), "count");
  report.add("replay.chunks_flushed", {},
             static_cast<double>(engine.chunks_flushed() - chunks_before),
             "count");
  report.add("replay.wa", {}, window_wa, "ratio");
  report.add("replay.steady_state_allocs", {},
             static_cast<double>(steady_allocs), "count");
  std::printf("replay        %10.0f records/s  (%6.1f ns/op, WA %.3f, "
              "%" PRIu64 " allocs)\n",
              records_per_sec, replay_ns, window_wa, steady_allocs);

  // -- GC migration ---------------------------------------------------------
  // Proactive gc_step passes against a raised watermark: time per migrated
  // block with no user traffic interleaved.
  {
    const std::uint64_t migrated_before = m.gc_migrated_blocks;
    const std::uint32_t watermark = engine.free_segments() + 16;
    const std::uint64_t gc_allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    std::uint32_t spins = 0;
    while (engine.gc_step(now_us, watermark) && ++spins < 1024) {
    }
    const double gc_seconds = seconds_since(start);
    const std::uint64_t migrated = m.gc_migrated_blocks - migrated_before;
    const std::uint64_t gc_allocs =
        g_alloc_count.load(std::memory_order_relaxed) - gc_allocs_before;
    const double gc_ns =
        migrated == 0 ? 0.0
                      : gc_seconds * 1e9 / static_cast<double>(migrated);
    report.add("gc.ns_per_migrated_block", {}, gc_ns, "ns");
    report.add("gc.migrated_blocks", {}, static_cast<double>(migrated),
               "blocks");
    report.add("gc.allocs", {}, static_cast<double>(gc_allocs), "count");
    std::printf("gc migrate    %10.1f ns/block   (%" PRIu64
                " blocks, %" PRIu64 " allocs)\n",
                gc_ns, migrated, gc_allocs);
  }

  // -- victim selection -----------------------------------------------------
  {
    constexpr std::uint64_t kSelects = 1u << 16;
    Rng select_rng(7);
    std::uint64_t checksum = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kSelects; ++i) {
      checksum += victim->select(engine.segments(), engine.vtime(),
                                 select_rng);
    }
    const double ns =
        seconds_since(start) * 1e9 / static_cast<double>(kSelects);
    keep(checksum);
    report.add("victim.select_ns", {{"victim", "greedy"}}, ns, "ns");
    std::printf("victim select %10.1f ns/op\n", ns);
  }

  // -- block map lookup / update -------------------------------------------
  {
    constexpr std::uint64_t kMapOps = 1u << 21;
    lss::BlockMap map(config.logical_blocks);
    for (Lba lba = 0; lba < config.logical_blocks; ++lba) {
      map.set_primary(lba, lss::BlockLocation{
                               static_cast<SegmentId>(lba / 256),
                               static_cast<std::uint32_t>(lba % 256)});
    }
    Rng map_rng(11);
    std::uint64_t checksum = 0;
    auto start = Clock::now();
    for (std::uint64_t i = 0; i < kMapOps; ++i) {
      checksum += map.locate(map_rng.below(config.logical_blocks)).slot;
    }
    const double locate_ns =
        seconds_since(start) * 1e9 / static_cast<double>(kMapOps);
    keep(checksum);

    start = Clock::now();
    for (std::uint64_t i = 0; i < kMapOps; ++i) {
      const Lba lba = map_rng.below(config.logical_blocks);
      map.clear_primary(lba);
      map.set_primary(lba, lss::BlockLocation{
                               static_cast<SegmentId>(i & 0xff),
                               static_cast<std::uint32_t>(i & 0x7f)});
    }
    const double update_ns =
        seconds_since(start) * 1e9 / static_cast<double>(kMapOps);
    report.add("map.locate_ns", {}, locate_ns, "ns");
    report.add("map.update_ns", {}, update_ns, "ns");
    std::printf("map locate    %10.2f ns/op\nmap update    %10.2f ns/op\n",
                locate_ns, update_ns);
  }

  // -- shadow table churn: flat table vs std::unordered_map -----------------
  // The shadow map's real access pattern: a sliding window of recent
  // insertions (pending lazy-append originals), probed and expired as
  // chunks flush. Identical op sequence against both structures.
  {
    constexpr std::uint64_t kChurnOps = 1u << 20;
    constexpr std::uint64_t kWindow = 256;
    const auto churn = [&](auto& table, auto erase_fn, auto find_fn) {
      const auto start = Clock::now();
      std::uint64_t checksum = 0;
      for (std::uint64_t i = 0; i < kChurnOps; ++i) {
        table.insert_or_assign(
            i, lss::BlockLocation{static_cast<SegmentId>(i & 0xff),
                                  static_cast<std::uint32_t>(i & 0x7f)});
        checksum += find_fn(table, (i * 7) % (i + 1));
        if (i >= kWindow) erase_fn(table, i - kWindow);
      }
      keep(checksum);
      return seconds_since(start) * 1e9 / static_cast<double>(kChurnOps);
    };
    lss::FlatShadowMap flat;
    flat.reserve(kWindow * 2);
    const double flat_ns = churn(
        flat, [](lss::FlatShadowMap& t, Lba lba) { t.erase(lba); },
        [](const lss::FlatShadowMap& t, Lba lba) -> std::uint64_t {
          return t.find(lba).slot;
        });
    std::unordered_map<Lba, lss::BlockLocation> unordered;
    unordered.reserve(kWindow * 2);
    const double unordered_ns = churn(
        unordered,
        [](std::unordered_map<Lba, lss::BlockLocation>& t, Lba lba) {
          t.erase(lba);
        },
        [](const std::unordered_map<Lba, lss::BlockLocation>& t,
           Lba lba) -> std::uint64_t {
          const auto it = t.find(lba);
          return it == t.end() ? 0 : it->second.slot;
        });
    report.add("shadow.flat_churn_ns", {}, flat_ns, "ns");
    report.add("shadow.unordered_churn_ns", {}, unordered_ns, "ns");
    std::printf("shadow flat   %10.2f ns/op\nshadow u.map  %10.2f ns/op\n",
                flat_ns, unordered_ns);
  }

  // -- append/flush (no GC) -------------------------------------------------
  // A fresh engine written once per LBA never frees a dead block, so GC
  // cannot trigger: pure append + chunk-flush cost.
  {
    lss::LssConfig nogc = config;
    const auto nogc_policy = placement::make_baseline_policy("sepgc", pc);
    const auto nogc_victim = lss::make_greedy();
    lss::LssEngine fresh(nogc, *nogc_policy, *nogc_victim, nullptr, 42);
    const std::uint64_t blocks = nogc.logical_blocks;
    const std::uint64_t append_allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    TimeUs t = 0;
    for (Lba lba = 0; lba < blocks; ++lba) {
      fresh.write_block(lba, ++t);
    }
    const double append_ns =
        seconds_since(start) * 1e9 / static_cast<double>(blocks);
    const std::uint64_t append_allocs =
        g_alloc_count.load(std::memory_order_relaxed) -
        append_allocs_before;
    report.add("append.ns_per_block", {}, append_ns, "ns");
    report.add("append.blocks", {}, static_cast<double>(blocks), "blocks");
    report.add("append.allocs", {}, static_cast<double>(append_allocs),
               "count");
    std::printf("append/flush  %10.2f ns/block  (%" PRIu64 " allocs)\n",
                append_ns, append_allocs);
  }

  // -- ADAPT placement structures -------------------------------------------
  // Per-call cost of what ADAPT consults or feeds on a placement: a Bloom
  // filter lookup (the score of a bank whose group 0 holds one filter) and
  // a demotion check on a bank of 4 groups × 4 filters (the §3.4
  // "nanoseconds" claim), and a ghost-set write (§3.2 threshold scoring).
  // Inputs are drawn up front so the loops time the structures, not the
  // generator.
  std::uint64_t cascade_allocs = 0;
  {
    constexpr std::uint64_t kLookups = 1u << 20;
    constexpr std::uint64_t kUpdates = 1u << 18;
    const auto ns_per = [](Clock::time_point start, std::uint64_t ops) {
      return seconds_since(start) * 1e9 / static_cast<double>(ops);
    };
    std::uint64_t checksum = 0;

    core::CascadeBank filter(1u << 16);
    for (Lba lba = 0; lba < (1u << 16); ++lba) filter.insert(0, lba);
    auto start = Clock::now();
    for (Lba lba = 0; lba < kLookups; ++lba) checksum += filter.score(0, lba);
    const double bloom_ns = ns_per(start, kLookups);

    // Each group's ring holds its own LBAs. Once the rings have filled, 16
    // rotations (4 per ring) refill them with the same LBAs, so the timed
    // checks see the same filters; neither may allocate.
    constexpr std::uint32_t kFilterCapacity = 4096;
    constexpr Lba kRingLbas = core::CascadeBank::kFilters * kFilterCapacity;
    constexpr std::size_t kGroups = core::CascadeBank::kGroups;
    core::CascadeBank cascade(kFilterCapacity);
    for (Lba lba = 0; lba < kGroups * kRingLbas; ++lba) {
      cascade.insert(lba / kRingLbas, lba);
    }
    const std::uint64_t cascade_allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (Lba i = 0; i < 4 * kFilterCapacity; ++i) {
      for (std::size_t g = 0; g < kGroups; ++g) {
        cascade.insert(g, g * kRingLbas + i % kRingLbas);
      }
    }
    start = Clock::now();
    for (Lba lba = 0; lba < kLookups; ++lba) checksum += cascade.pick(lba);
    const double cascade_ns = ns_per(start, kLookups);
    cascade_allocs = g_alloc_count.load(std::memory_order_relaxed) -
                     cascade_allocs_before;

    Rng adapt_rng(5);
    std::vector<Lba> lbas(kUpdates);
    std::vector<std::uint64_t> intervals(kUpdates);
    for (std::uint64_t i = 0; i < kUpdates; ++i) {
      lbas[i] = adapt_rng.below(1u << 14);
      intervals[i] = adapt_rng.below(4096);
    }
    core::GhostSet ghost(
        core::GhostConfig{.segment_blocks = 16, .capacity_segments = 256},
        1024);
    start = Clock::now();
    for (std::uint64_t i = 0; i < kUpdates; ++i) {
      ghost.write(lbas[i] & 8191, intervals[i]);
    }
    const double ghost_ns = ns_per(start, kUpdates);
    keep(checksum + ghost.written());

    report.add("adapt.bloom_lookup_ns", {}, bloom_ns, "ns");
    report.add("adapt.cascade_score_ns", {{"filters", "4"}}, cascade_ns,
               "ns");
    report.add("adapt.ghost_write_ns", {}, ghost_ns, "ns");
    report.add("adapt.cascade.steady_state_allocs", {},
               static_cast<double>(cascade_allocs), "count");
    std::printf("bloom lookup  %10.2f ns/op\ncascade (4x4) %10.2f ns/op"
                "  (%" PRIu64 " allocs)\n"
                "ghost write   %10.2f ns/op\n",
                bloom_ns, cascade_ns, cascade_allocs, ghost_ns);
  }

  // -- §3.2 threshold adapter steady state ----------------------------------
  // At the auto sample rate over the engine's LBA range. One pass writes
  // every LBA, so every sampled block has its id and every ghost a location
  // for it; after that, sampled writes, ghost GC and adoptions must not
  // allocate.
  std::uint64_t adapter_allocs = 0;
  {
    constexpr std::uint64_t kSteadyWrites = 1u << 18;
    core::AdapterConfig ac;
    ac.logical_blocks = config.logical_blocks;
    ac.segment_blocks = config.segment_blocks();
    core::ThresholdAdapter adapter(ac);
    VTime now = 0;
    for (Lba lba = 0; lba < config.logical_blocks; ++lba) {
      adapter.on_user_write(lba, now++);
    }
    Rng steady_rng(13);
    std::vector<Lba> steady(kSteadyWrites);
    for (Lba& lba : steady) lba = zipf.next(steady_rng);
    const std::uint64_t sampled_before = adapter.sampled_writes();
    const std::uint64_t adoptions_before = adapter.adoptions();
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (const Lba lba : steady) adapter.on_user_write(lba, now++);
    adapter_allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    report.add("adapt.adapter.steady_state_allocs", {},
               static_cast<double>(adapter_allocs), "count");
    std::printf("adapter       %10" PRIu64 " writes    (%" PRIu64
                " sampled, %" PRIu64 " adoptions, %" PRIu64 " allocs)\n",
                kSteadyWrites, adapter.sampled_writes() - sampled_before,
                adapter.adoptions() - adoptions_before, adapter_allocs);
  }

  engine.check_invariants(audit::Level::kFull);
  bench::write_report(report);

  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state replay allocated %" PRIu64
                 " times (expected 0)\n",
                 steady_allocs);
    return 1;
  }
  if (cascade_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state cascade allocated %" PRIu64
                 " times (expected 0)\n",
                 cascade_allocs);
    return 1;
  }
  if (adapter_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state threshold adapter allocated %" PRIu64
                 " times (expected 0)\n",
                 adapter_allocs);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adapt

int main() { return adapt::run(); }
