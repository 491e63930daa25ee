// Replay a real block trace file (Alibaba / Tencent / MSRC / canonical CSV
// formats) through any placement scheme and print the WA and padding
// metrics — the workflow a practitioner would use to evaluate ADAPT on
// their own traces.
//
// Usage:
//   cloud_replay <trace.csv> [format] [policy] [victim]
//     format: canonical | alibaba | tencent | msrc   (default canonical)
//     policy: sepgc|mida|dac|warcip|sepbit|adapt|all (default all)
//     victim: greedy|cost-benefit|d-choice|windowed|random (default greedy)
//
// With no arguments, a demo trace is synthesised, written to a temp file,
// and replayed — so the example is runnable out of the box.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/simulator.h"
#include "trace/reader.h"
#include "trace/synthetic.h"

namespace {

void report(const adapt::sim::VolumeResult& r) {
  std::printf("%-8s [%s]  WA=%.3f  gcWA=%.3f  padding=%.1f%%  "
              "gc-runs=%llu  policy-mem=%.2f MiB\n",
              r.policy.c_str(), r.victim.c_str(), r.wa(), r.metrics.gc_wa(),
              100.0 * r.padding_ratio(),
              static_cast<unsigned long long>(r.metrics.gc_runs),
              static_cast<double>(r.policy_memory_bytes) / (1 << 20));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;

  std::string path;
  trace::TraceFormat format = trace::TraceFormat::kCanonical;
  std::string policy = "all";
  std::string victim = "greedy";

  if (argc > 1) path = argv[1];
  if (argc > 2) {
    try {
      format = trace::format_named(argv[2]);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "cloud_replay: %s\n", e.what());
      return 2;
    }
  }
  if (argc > 3) policy = argv[3];
  if (argc > 4) victim = argv[4];

  if (path.empty()) {
    // Self-contained demo: synthesise a volume and round-trip it through
    // the canonical CSV format.
    std::printf("no trace given; synthesising a demo volume\n");
    trace::CloudVolumeModel model(trace::alibaba_profile(), 2024);
    const trace::Volume demo = model.make_volume(0, 4.0);
    path = "/tmp/adapt_demo_trace.csv";
    std::ofstream out(path);
    trace::write_canonical(out, demo);
    std::printf("wrote %zu records to %s\n", demo.records.size(),
                path.c_str());
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  const trace::Volume volume = trace::read_trace(in, format);
  std::printf("trace: %zu records, %llu blocks addressed\n",
              volume.records.size(),
              static_cast<unsigned long long>(volume.capacity_blocks));

  sim::SimConfig config;
  config.victim_policy = victim;
  if (policy == "all") {
    for (const auto p : sim::all_policy_names()) {
      report(sim::run_volume(volume, p, config));
    }
  } else {
    report(sim::run_volume(volume, policy, config));
  }
  return 0;
}
