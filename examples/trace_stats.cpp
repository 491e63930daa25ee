// Analyse a block trace (or the built-in synthetic families) the way the
// paper's Figure 2 does: per-volume request rates, write-size
// distribution, and read/write mix.
//
// Usage:
//   trace_stats <trace.csv> [format]     analyse a trace file
//   trace_stats --profile <name> [n]     analyse n synthetic volumes of
//                                        profile alibaba|tencent|msrc
//
// An unknown format or profile, or a malformed n, is a usage error
// (exit 2).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/parse.h"
#include "trace/reader.h"
#include "trace/synthetic.h"
#include "trace/workload_stats.h"

namespace {

constexpr const char* kUsage =
    "usage: trace_stats <trace.csv> [canonical|alibaba|tencent|msrc] | "
    "trace_stats --profile <alibaba|tencent|msrc> [n]\n";

void print_distributions(const adapt::trace::WorkloadDistributions& dist,
                         std::size_t volumes) {
  std::printf("volumes analysed     : %zu\n", volumes);
  if (dist.request_rate_per_volume.count() > 0) {
    std::printf("request rate (req/s) : p50=%.2f p90=%.2f max=%.2f\n",
                dist.request_rate_per_volume.percentile(50),
                dist.request_rate_per_volume.percentile(90),
                dist.request_rate_per_volume.max());
    std::printf("  <= 10 req/s        : %.1f%%   (paper: 75-86.1%%)\n",
                100.0 * dist.request_rate_per_volume.cdf_at(10.0));
    std::printf("  > 100 req/s        : %.1f%%   (paper: 1.9-2.7%%)\n",
                100.0 * (1.0 - dist.request_rate_per_volume.cdf_at(100.0)));
  }
  if (dist.write_size_bytes.count() > 0) {
    std::printf("write sizes          : p50=%.0f B p90=%.0f B\n",
                dist.write_size_bytes.percentile(50),
                dist.write_size_bytes.percentile(90));
    std::printf("  <= 8 KiB           : %.1f%%   (paper: 69.8-80.9%%)\n",
                100.0 * dist.write_size_bytes.cdf_at(8 * 1024.0));
    std::printf("  > 32 KiB           : %.1f%%   (paper: 10.8-23.4%%)\n",
                100.0 * (1.0 - dist.write_size_bytes.cdf_at(32 * 1024.0)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;

  if (argc > 2 && std::strcmp(argv[1], "--profile") == 0) {
    trace::CloudProfile profile;
    std::uint64_t n = 20;
    try {
      profile = trace::profile_named(argv[2]);
      if (argc > 3) {
        n = parse_uint(argv[3], 1, std::numeric_limits<std::uint64_t>::max());
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "trace_stats: %s\n%s", e.what(), kUsage);
      return 2;
    }
    trace::CloudVolumeModel model(profile, 7);
    std::vector<trace::Volume> volumes;
    for (std::uint64_t i = 0; i < n; ++i) {
      volumes.push_back(model.make_volume(i, 1.0));
    }
    std::printf("profile: %s\n", profile.name.c_str());
    print_distributions(trace::compute_distributions(volumes),
                        volumes.size());
    return 0;
  }

  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  trace::TraceFormat format = trace::TraceFormat::kCanonical;
  if (argc > 2) {
    try {
      format = trace::format_named(argv[2]);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "trace_stats: %s\n%s", e.what(), kUsage);
      return 2;
    }
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::vector<trace::Volume> volumes(1);
  volumes[0] = trace::read_trace(in, format);
  const trace::VolumeStats s = trace::compute_volume_stats(volumes[0]);
  std::printf("records              : %llu (%llu writes)\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.write_requests));
  std::printf("duration             : %.2f s\n",
              static_cast<double>(s.duration_us) / 1e6);
  print_distributions(trace::compute_distributions(volumes), 1);
  return 0;
}
