// Microbench: contended write-path scaling of the group-commit front-end.
//
// Runs the prototype's front-end (lss::ConcurrentEngine's per-shard writer
// queue) at 1/2/4/8/16 client threads over seeded per-client YCSB streams,
// and emits BENCH_concurrent_commit.json (adapt-bench-v1).
//
// Gated rows (tools/adapt_compare vs ci/baselines/): user_blocks per cell
// ("blocks" — the per-client generators are seeded, so the written volume
// is exact regardless of interleave) and the resolved shard count
// ("count" — pins the auto-shard rule). Throughput ("1/s") and the
// latency percentiles ("ns") carry host-dependent units the gate
// presence-checks only; batching counters (groups formed, max batch) are
// timing-dependent, so they are printed but never emitted into the JSON.
//
// Scaling: ADAPT_CONCURRENT_WRITES overrides blocks-per-client (changing
// it changes the gated rows, so CI must run the default the committed
// baseline was generated with). ADAPT_CONCURRENT_THINK_US adds client-side
// think time when studying saturation instead of raw queue contention.

#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "proto/prototype.h"

namespace adapt {
namespace {

int run() {
  obs::BenchReport report("concurrent_commit");
  const std::uint64_t writes_per_client =
      bench::env_u64("ADAPT_CONCURRENT_WRITES", 40000);
  const double think_us = bench::env_f64("ADAPT_CONCURRENT_THINK_US", 0.0);
  const auto shards_override = static_cast<std::uint32_t>(
      bench::env_u64("ADAPT_CONCURRENT_SHARDS", 0));

  bench::print_header("micro_concurrent_commit",
                      "write-path scaling of the group-commit front-end");
  std::printf("%8s %8s %12s %10s %10s %10s %8s\n", "clients", "shards",
              "kops", "p50_us", "p99_us", "p999_us", "maxbatch");

  for (const std::uint32_t clients : {1u, 2u, 4u, 8u, 16u}) {
    proto::PrototypeConfig c;
    c.policy = "sepgc";
    // 2^17 logical blocks: the auto rule resolves min(clients, 4) shards
    // (per-shard floor 2^15), and the default write volume wraps the log
    // at >=4 clients so background GC actually contends with the clients.
    c.workload.working_set_blocks = std::uint64_t{1} << 17;
    c.workload.mean_interarrival_us = 1;  // open loop
    c.client_think_us = think_us;
    c.array_bandwidth_mb_per_s = 5000;  // device never saturates
    c.num_clients = clients;
    c.writes_per_client = writes_per_client;
    c.background_gc = true;
    c.shards = shards_override;
    const proto::PrototypeResult r = proto::run_prototype(c);

    // The frontend param keeps the row keys of the committed baseline.
    const obs::BenchReport::Params params = {
        {"frontend", "group_commit"}, {"clients", bench::fmt(clients)}};
    report.add("commit.user_blocks", params,
               static_cast<double>(r.user_blocks), "blocks");
    report.add("commit.shards", params, static_cast<double>(r.shards),
               "count");
    report.add("commit.throughput_ops", params, r.throughput_kops * 1e3,
               "1/s");
    report.add("commit.latency_p50", params, r.latency_p50_us * 1e3, "ns");
    report.add("commit.latency_p99", params, r.latency_p99_us * 1e3, "ns");
    report.add("commit.latency_p999", params, r.latency_p999_us * 1e3, "ns");
    // Phase-attributed p99 (virtual-time us, host-dependent interleave →
    // presence-checked like the other latency rows).
    if (!r.breakdown.empty()) {
      report.add("commit.phase_intake_p99", params,
                 r.breakdown.intake_wait_us.percentile(99.0), "us");
      report.add("commit.phase_apply_p99", params,
                 r.breakdown.batch_apply_us.percentile(99.0), "us");
      report.add("commit.phase_queue_p99", params,
                 r.breakdown.lane_queue_us.percentile(99.0), "us");
      report.add("commit.phase_service_p99", params,
                 r.breakdown.device_service_us.percentile(99.0), "us");
    }
    std::printf("%8u %8u %12.1f %10.1f %10.1f %10.1f %8" PRIu64 "\n",
                clients, r.shards, r.throughput_kops, r.latency_p50_us,
                r.latency_p99_us, r.latency_p999_us,
                r.group_commit.max_batch);
    std::printf("    gc_blocks=%llu padding=%llu wa=%.3f\n",
        (unsigned long long)r.metrics.gc_blocks,
        (unsigned long long)r.metrics.padding_blocks,
        static_cast<double>(r.metrics.total_blocks()) /
            static_cast<double>(r.metrics.user_blocks));
  }

  bench::write_report(report);
  return 0;
}

}  // namespace
}  // namespace adapt

int main() { return adapt::run(); }
