// Drive the multithreaded storage prototype: client threads replay YCSB-A
// against one LSS with a bandwidth-modelled RAID-5 backend and a
// background GC thread, printing live-measured throughput — a scaled-down
// version of the paper's §4.4 testbed run.
//
// Usage: prototype_demo [policy] [clients] [writes_per_client] [manifest.json]
//
// clients is 1-1024 (one thread each), writes_per_client at least 1. The
// optional 4th argument writes the run's adapt-manifest-v1 record
// (including the latency_breakdown phase histograms) to the given path —
// this is what CI's manifest teeth-check consumes.
//
// ADAPT_LIVE_STATS=<seconds> prints a "live:" line (throughput, p99 and
// phase shares) to stderr every <seconds> while the run goes, and one
// when it ends.
//
// Numbers parse strictly: a malformed one is a usage error (exit 2) that
// names the argument or variable.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/parse.h"
#include "lss/device_lanes.h"
#include "obs/export.h"
#include "obs/runtime_stats.h"
#include "proto/prototype.h"

namespace {

[[noreturn]] void usage_error(const char* what,
                              const std::invalid_argument& e) {
  std::fprintf(stderr,
               "prototype_demo: %s: %s\n"
               "usage: prototype_demo [policy] [clients] "
               "[writes_per_client] [manifest.json]\n",
               what, e.what());
  std::exit(2);
}

std::uint64_t uint_arg(const char* what, const char* text, std::uint64_t lo,
                       std::uint64_t hi) {
  try {
    return adapt::parse_uint(text, lo, hi);
  } catch (const std::invalid_argument& e) {
    usage_error(what, e);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;

  proto::PrototypeConfig config;
  config.policy = argc > 1 ? argv[1] : "adapt";
  if (argc > 2) {
    config.num_clients =
        static_cast<std::uint32_t>(uint_arg("clients", argv[2], 1, 1024));
  }
  config.writes_per_client =
      argc > 3 ? uint_arg("writes_per_client", argv[3], 1,
                          std::numeric_limits<std::uint64_t>::max())
               : 40'000;
  config.workload.working_set_blocks = 1u << 16;
  config.workload.zipf_alpha = 0.99;
  config.workload.mean_interarrival_us = 0.0;  // open loop
  config.lss.coalesce_window_us = 300;  // scaled with the modelled BW

  const lss::DeviceLanesConfig lanes;  // the lanes run_prototype models
  std::printf("prototype: policy=%s clients=%u writes/client=%llu "
              "array=%.0f MB/s lanes=%u io-depth=%u\n",
              config.policy.c_str(), config.num_clients,
              static_cast<unsigned long long>(config.writes_per_client),
              config.array_bandwidth_mb_per_s, lanes.lanes,
              lanes.queue_depth);

  obs::RuntimeStats live_stats;
  std::optional<obs::LiveStatsPrinter> live_printer;
  if (const char* env = std::getenv("ADAPT_LIVE_STATS"); env != nullptr) {
    double interval_s = 0.0;
    try {
      interval_s = parse_positive(env);
    } catch (const std::invalid_argument& e) {
      usage_error("ADAPT_LIVE_STATS", e);
    }
    config.live_stats = &live_stats;
    live_printer.emplace(live_stats, interval_s);
  }
  const proto::PrototypeResult r = proto::run_prototype(config);
  if (live_printer) live_printer->stop();

  std::printf("elapsed            : %.2f s\n", r.elapsed_seconds);
  std::printf("user throughput    : %.1f MiB/s (%.1f kIOPS of 4 KiB)\n",
              r.throughput_mib_per_s, r.throughput_kops);
  std::printf("latency            : p50=%.0f us p99=%.0f us\n",
              r.latency_p50_us, r.latency_p99_us);
  std::printf("write amplification: %.3f (gc-only %.3f)\n", r.metrics.wa(),
              r.metrics.gc_wa());
  std::printf("padding traffic    : %.1f%%\n",
              100.0 * r.metrics.padding_ratio());
  std::printf("policy metadata    : %.2f MiB\n",
              static_cast<double>(r.policy_memory_bytes) / (1 << 20));
  std::printf("engine metadata    : %.2f MiB\n",
              static_cast<double>(r.engine_memory_bytes) / (1 << 20));
  if (argc > 4) {
    try {
      obs::write_artifact(argv[4], obs::manifest_json(r.manifest));
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "prototype_demo: %s\n", e.what());
      return 1;
    }
    std::printf("manifest           : %s\n", argv[4]);
  }
  return 0;
}
