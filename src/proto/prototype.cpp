#include "proto/prototype.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "adapt/shard_stack.h"
#include "common/histogram.h"
#include "common/sync.h"
#include "obs/provenance.h"

namespace adapt::proto {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-request client-side cost (request handling, network). Keeps a
/// single client below device saturation, as in the paper's Fig. 12a.
constexpr double kClientThinkUs = 20.0;

/// Simulated microsecond clock fed to the engine (coalescing windows, GC
/// timestamps). Host latency and elapsed time are measured separately in
/// nanoseconds (monotonic_now_ns) — TimeUs truncation made sub-tick spans
/// collapse to zero, which is exactly the throughput bug safe_rate guards.
TimeUs wall_now_us(Clock::time_point start) {
  return static_cast<TimeUs>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

}  // namespace

double spans_elapsed_seconds(const std::vector<ClientSpan>& spans) {
  if (spans.empty()) return 0.0;
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const ClientSpan& s : spans) {
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.end_ns);
  }
  if (hi <= lo) return 0.0;
  return static_cast<double>(hi - lo) * 1e-9;
}

double safe_rate(double amount, double elapsed_seconds) {
  if (!(elapsed_seconds > 0.0)) return 0.0;
  const double rate = amount / elapsed_seconds;
  return std::isfinite(rate) ? rate : 0.0;
}

PrototypeResult run_prototype(const PrototypeConfig& config) {
  lss::LssConfig lss_config = config.lss;
  lss_config.logical_blocks = config.workload.working_set_blocks;

  core::StackSpec stack;
  stack.policy = config.policy;
  stack.victim = config.victim_policy;
  stack.adapt.sample_rate = config.adapt_sample_rate;

  // Device model: lss::DeviceLanes — one submission/completion queue per
  // modeled SSD (DeviceLanesConfig's lane count and queue depth), each
  // serving at its share of the aggregate bandwidth. Flush records are
  // submitted round-robin across the lanes (byte-accurate: RMW flushes
  // charge their sub-chunk payload, chunk flushes a full chunk) and the
  // thread that owes the durability sleeps until the modeled completion,
  // so aggregate write throughput is capped at the configured array
  // bandwidth no matter how many threads submit.
  const std::uint64_t chunk_bytes =
      std::uint64_t{lss_config.chunk_blocks} * lss_config.block_bytes;
  lss::DeviceLanesConfig lanes_config;
  lanes_config.lane_bandwidth_mb_per_s =
      config.array_bandwidth_mb_per_s / lanes_config.lanes;
  lss::DeviceLanes lanes(lanes_config);
  std::atomic<std::uint32_t> lane_rotor{0};

  const auto start = Clock::now();

  // Submits one drained flush batch to the lanes and returns the modeled
  // FlushOutcome of its last-completing record (durable time + that
  // record's pure service time, which the phase breakdown uses to split
  // lane queueing from media time). Thread-safe (atomic rotor + per-lane
  // locks inside DeviceLanes): client writes and the GC thread all
  // submit. Each record's causal-flow id rides into the lane's trace
  // events, correlating write -> flush -> lane in a trace; the ids stay 0
  // here, since run_prototype attaches no trace sink.
  auto submit_flushes = [&](const std::vector<lss::PendingFlush>& flushes)
      -> lss::FlushOutcome {
    const TimeUs now = wall_now_us(start);
    lss::FlushOutcome out;
    for (const lss::PendingFlush& f : flushes) {
      const std::uint64_t bytes =
          f.rmw ? std::uint64_t{f.blocks} * lss_config.block_bytes
                : chunk_bytes;
      const std::uint32_t lane =
          lane_rotor.fetch_add(1, std::memory_order_relaxed) %
          lanes_config.lanes;
      const lss::LaneCompletion c = lanes.submit(lane, bytes, now, f.id);
      if (c.complete_us >= out.durable_us) {
        out.durable_us = c.complete_us;
        out.service_us = c.service_us;
      }
    }
    return out;
  };

  auto wait_until = [&](TimeUs deadline) {
    const TimeUs now = wall_now_us(start);
    if (deadline > now) sleep_for_us(deadline - now);
  };

  // Per-thread capture: fixed-memory latency histograms (ns) and activity
  // spans. The old design pushed every sample into a vector and divided by
  // one truncated wall clock; both satellites land here.
  std::vector<Log2Histogram> client_latency(config.num_clients);
  std::vector<ClientSpan> spans(config.num_clients);
  std::atomic<bool> done{false};
  // GC wake-up: clients bump after every write (new garbage may have
  // crossed the watermark) and once more at shutdown; an idle GC thread
  // parks on the signal instead of burning a 50 us poll loop. The timeout
  // is a safety net for missed transitions, not the scheduling mechanism.
  WorkSignal gc_signal;
  constexpr std::uint64_t kGcIdleWaitUs = 1000;

  PrototypeResult result;
  result.policy = config.policy;
  result.num_clients = config.num_clients;

  lss::ConcurrentEngine engine(
      lss_config, config.seed,
      [&stack](std::uint32_t /*shard_index*/, const lss::LssConfig& c) {
        return core::make_shard_parts(stack, c);
      },
      /*record_ops=*/false);
  // Apply/durable split: each write submits the flushes it tipped to the
  // lanes and sleeps out their completion on its own thread.
  engine.set_device_model(submit_flushes,
                          [&](TimeUs durable_us) { wait_until(durable_us); });
  if (obs::RuntimeStats* live = config.live_stats; live != nullptr) {
    engine.set_batch_hook(
        [live](const lss::BatchSample& s) { live->publish(s); });
  }
  const std::uint32_t watermark =
      lss_config.free_segment_reserve +
      engine.engine_for_inspection().group_count() + 4;

  auto gc_fn = [&] {
    std::vector<lss::PendingFlush> flushes;
    while (!done.load(std::memory_order_relaxed)) {
      // Snapshot the signal BEFORE probing for work: a write that lands
      // between the probe and the park bumps the version, so wait_change
      // returns immediately instead of losing the wakeup.
      const std::uint64_t seen = gc_signal.version();
      const bool worked =
          engine.gc_step(wall_now_us(start), watermark, &flushes);
      if (worked && !flushes.empty()) {
        wait_until(submit_flushes(flushes).durable_us);
      } else if (!worked) {
        gc_signal.wait_change(seen, kGcIdleWaitUs);
      }
    }
  };

  auto client_fn = [&](std::uint32_t client_id) {
    trace::YcsbConfig wc = config.workload;
    wc.seed = config.seed * 7919 + client_id;
    trace::YcsbGenerator gen(wc);
    Log2Histogram& latency = client_latency[client_id];
    spans[client_id].start_ns = monotonic_now_ns();
    std::uint64_t written = 0;
    // Think-time debt is paid in coarse slices: OS sleeps have ~50 us
    // granularity, so per-request 20 us sleeps would crater throughput
    // for the wrong reason.
    double think_debt_us = 0.0;
    while (written < config.writes_per_client) {
      const trace::Record r = gen.next();
      if (r.op != trace::OpType::kWrite) continue;
      const TimeUs submit_us = wall_now_us(start);
      const std::uint64_t submit_ns = monotonic_now_ns();
      engine.write(r.lba, r.blocks, submit_us);
      gc_signal.bump();
      latency.add(monotonic_now_ns() - submit_ns);
      think_debt_us += kClientThinkUs;
      if (think_debt_us >= 1000.0) {
        sleep_for_us(static_cast<std::uint64_t>(think_debt_us));
        think_debt_us = 0.0;
      }
      written += r.blocks;
    }
    spans[client_id].end_ns = monotonic_now_ns();
  };
  {
    const Thread gc(gc_fn);
    {
      std::vector<Thread> clients;
      clients.reserve(config.num_clients);
      for (std::uint32_t i = 0; i < config.num_clients; ++i) {
        clients.emplace_back(client_fn, i);
      }
    }  // joins the clients
    done.store(true, std::memory_order_relaxed);
    gc_signal.bump();
  }  // joins the GC thread

  result.metrics = engine.metrics();
  result.group_commit = engine.stats();
  result.breakdown = engine.latency_breakdown();
  result.policy_memory_bytes = engine.policy_memory_bytes();
  const std::uint64_t pending_blocks_total = engine.pending_blocks();
  result.engine_memory_bytes = engine.engine_memory_bytes();

  // ---- result assembly ----
  result.lanes = lanes.stats();
  result.elapsed_seconds = spans_elapsed_seconds(spans);
  result.user_blocks = result.metrics.user_blocks;
  const double user_bytes =
      static_cast<double>(result.user_blocks) * lss_config.block_bytes;
  result.throughput_mib_per_s =
      safe_rate(user_bytes / (1024.0 * 1024.0), result.elapsed_seconds);
  result.throughput_kops = safe_rate(
      static_cast<double>(result.user_blocks) / 1e3, result.elapsed_seconds);
  for (const Log2Histogram& h : client_latency) {
    result.latency_ns.merge_from(h);
  }
  if (!result.latency_ns.empty()) {
    result.latency_p50_us = result.latency_ns.percentile(50) / 1000.0;
    result.latency_p99_us = result.latency_ns.percentile(99) / 1000.0;
    result.latency_p999_us = result.latency_ns.percentile(99.9) / 1000.0;
  }

  obs::RunManifest& m = result.manifest;
  m.tool = "prototype";
  m.policy = config.policy;
  m.victim = config.victim_policy;
  m.workload = "ycsb";
  m.seed = config.seed;
  m.records = result.latency_ns.count();
  m.user_blocks = result.user_blocks;
  m.wall_seconds = result.elapsed_seconds;
  m.records_per_sec = safe_rate(static_cast<double>(m.records),
                                result.elapsed_seconds);
  m.peak_rss_bytes = obs::current_peak_rss_bytes();
  m.chunk_blocks = lss_config.chunk_blocks;
  m.segment_chunks = lss_config.segment_chunks;
  m.logical_blocks = lss_config.logical_blocks;
  m.over_provision = lss_config.over_provision;
  obs::register_lss_metrics(m.counters, result.metrics);
  *m.counters.slot("proto.clients") = config.num_clients;
  *m.counters.slot("proto.commit_ops") = result.group_commit.ops;
  m.provenance = obs::provenance_of(result.metrics, pending_blocks_total);
  m.block_lifetime = result.metrics.block_lifetime;
  m.gc_pause_us = result.metrics.gc_pause_us;
  m.latency_ns = result.latency_ns;
  m.lanes = result.lanes;
  m.latency_breakdown = result.breakdown;
  return result;
}

}  // namespace adapt::proto
