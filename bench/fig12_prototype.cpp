// Figure 12 — prototype evaluation: (a) client throughput at 1 / 4 / 8
// clients for every scheme on the bandwidth-modelled RAID-5 backend
// (YCSB-A, IO depth 8, background GC threads = clients), and (b) memory
// overhead of ADAPT vs SepBIT.
//
// Paper reference points: with one client all schemes are close (device
// not saturated) and SepGC is slightly ahead; at 4 and 8 clients ADAPT is
// 1.1-1.58x the other schemes because lower WA frees device bandwidth;
// ADAPT's memory overhead is ~4.6% above SepBIT (sampler ~44 B per sampled
// block, ghost sets ~20 B per simulated block). Here the sampler's state is
// one last-write entry per sampled block, modelled at 40 B.
#include "bench_util.h"
#include "proto/prototype.h"

int main() {
  using namespace adapt;
  bench::print_header("Figure 12", "prototype throughput and memory");

  const std::uint64_t working_set =
      bench::env_u64("ADAPT_BENCH_PROTO_BLOCKS", 1u << 16);
  const std::uint64_t total_writes =
      bench::env_u64("ADAPT_BENCH_PROTO_WRITES", 4 * working_set);
  obs::BenchReport report("fig12_prototype");

  std::printf("\n(a) throughput (MiB/s of user writes)\n");
  bench::print_policy_row_header("  clients");
  for (const std::uint32_t clients : {1u, 4u, 8u}) {
    std::printf("  %-12u", clients);
    for (const auto p : sim::all_policy_names()) {
      proto::PrototypeConfig config;
      config.policy = std::string(p);
      config.num_clients = clients;
      config.writes_per_client = total_writes / clients;
      config.workload.working_set_blocks = working_set;
      config.workload.zipf_alpha = 0.99;
      config.workload.mean_interarrival_us = 0.0;  // open loop
      // The modelled bandwidth is ~10x below real arrays, so the SLA
      // window scales up accordingly to keep the density regime.
      config.lss.coalesce_window_us = 300;
      config.lss.over_provision = 0.15;
      const proto::PrototypeResult r = proto::run_prototype(config);
      std::printf("%10.1f", r.throughput_mib_per_s);
      std::fflush(stdout);
      report.add("throughput",
                 {{"clients", std::to_string(clients)},
                  {"policy", std::string(p)}},
                 r.throughput_mib_per_s, "MiB/s");
    }
    std::printf("\n");
  }

  std::printf("\n(b) placement metadata memory (MiB), 4 clients, "
              "sample rate 0.01\n");
  for (const char* p : {"sepbit", "adapt"}) {
    proto::PrototypeConfig config;
    config.policy = p;
    config.num_clients = 4;
    config.writes_per_client = total_writes / 4;
    config.workload.working_set_blocks = working_set;
    config.workload.mean_interarrival_us = 0.0;
    config.lss.coalesce_window_us = 300;
    config.lss.over_provision = 0.15;
    config.adapt_sample_rate = 0.01;
    const proto::PrototypeResult r = proto::run_prototype(config);
    std::printf("  %-8s policy=%8.3f MiB engine=%8.2f MiB WA=%.3f\n", p,
                static_cast<double>(r.policy_memory_bytes) / (1 << 20),
                static_cast<double>(r.engine_memory_bytes) / (1 << 20),
                r.metrics.wa());
    report.add("policy_memory", {{"policy", p}},
               static_cast<double>(r.policy_memory_bytes), "bytes");
    report.add("wa", {{"policy", p}}, r.metrics.wa(), "ratio");
  }
  std::printf("  paper check: ADAPT ~4.6%% above SepBIT at production "
              "sampling rates (0.001 on multi-TB volumes)\n");
  bench::write_report(report);
  return 0;
}
