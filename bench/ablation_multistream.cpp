// Ablation A3 — device-internal write amplification with and without
// multi-stream mapping and TRIM (paper §3.1: "leverage SSDs' multi-stream
// capability to reduce in-device WA by mapping groups to streams
// one-to-one").
//
// The LSS runs on the flash-backed RAID-5 array, whose devices are
// page-mapped FTLs; we compare group->stream one-to-one mapping against
// funnelling every group into a single device stream, with TRIM on/off.
#include "array/ssd_array.h"
#include "bench_util.h"
#include "lss/engine.h"
#include "lss/victim_policy.h"
#include "placement/factory.h"

namespace {

using namespace adapt;

struct Outcome {
  double host_wa = 0.0;    ///< LSS-level WA
  double device_wa = 0.0;  ///< device-internal WA
  double wear_spread = 0.0;  ///< max/mean erase count across flash blocks
};

Outcome run(const trace::Volume& volume, bool multi_stream, bool trim) {
  lss::LssConfig lc;
  lc.logical_blocks = std::max<std::uint64_t>(volume.capacity_blocks, 1u << 15);
  placement::PolicyConfig pc;
  pc.logical_blocks = lc.logical_blocks;
  pc.segment_blocks = lc.segment_blocks();
  auto policy = placement::make_baseline_policy("sepbit", pc);
  auto victim = lss::make_greedy();

  array::SsdArrayConfig ac;
  ac.chunk_bytes = lc.chunk_blocks * lc.block_bytes;
  ac.num_streams = policy->group_count();
  ac.flash = array::FlashBacking{
      .page_bytes = lc.block_bytes,
      .data_chunks = static_cast<std::uint64_t>(lc.total_segments()) *
                     lc.segment_chunks,
      .device_over_provision = 0.15,
      .trim_enabled = trim,
      .multi_stream = multi_stream};
  array::SsdArray ssd_array(ac);
  lss::LssEngine engine(lc, *policy, *victim, &ssd_array, 1);

  for (const auto& r : volume.records) {
    if (r.op != trace::OpType::kWrite) continue;
    const Lba end = std::min<Lba>(r.lba + r.blocks, lc.logical_blocks);
    if (r.lba >= end) continue;
    engine.write(r.lba, static_cast<std::uint32_t>(end - r.lba), r.ts_us);
  }
  engine.flush_all();
  double worst_spread = 0.0;
  for (std::uint32_t d = 0; d < ac.num_devices; ++d) {
    const auto w = ssd_array.device(d).wear();
    if (w.mean_erases > 0) {
      worst_spread = std::max(
          worst_spread, static_cast<double>(w.max_erases) / w.mean_erases);
    }
  }
  return Outcome{engine.metrics().wa(), ssd_array.device_internal_wa(),
                 worst_spread};
}

}  // namespace

int main() {
  using namespace adapt;
  bench::print_header("Ablation A3",
                      "multi-stream mapping and TRIM vs device-internal WA");

  trace::CloudVolumeModel model(trace::alibaba_profile(), 99);
  const trace::Volume volume =
      model.make_volume(1, bench::fill_factor());
  std::printf("\nvolume: %zu records, %llu blocks; SepBIT placement, "
              "greedy GC\n",
              volume.records.size(),
              static_cast<unsigned long long>(volume.capacity_blocks));

  obs::BenchReport report("ablation_multistream");
  std::printf("%-28s %10s %12s %12s\n", "configuration", "host WA",
              "device WA", "wear max/mean");
  struct Case {
    const char* label;
    bool multi_stream;
    bool trim;
  };
  for (const Case& c : {Case{"multi-stream + TRIM", true, true},
                        Case{"multi-stream, no TRIM", true, false},
                        Case{"single stream + TRIM", false, true},
                        Case{"single stream, no TRIM", false, false}}) {
    const Outcome o = run(volume, c.multi_stream, c.trim);
    std::printf("%-28s %10.3f %12.3f %12.2f\n", c.label, o.host_wa,
                o.device_wa, o.wear_spread);
    const obs::BenchReport::Params key = {{"configuration", c.label}};
    report.add("host_wa", key, o.host_wa, "ratio");
    report.add("device_wa", key, o.device_wa, "ratio");
    report.add("wear_spread", key, o.wear_spread, "ratio");
  }
  bench::write_report(report);
  std::printf("\nexpected shape: host WA identical across rows; device WA "
              "lowest with multi-stream + TRIM, highest with neither\n");
  return 0;
}
