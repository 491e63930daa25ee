// Ablation A1 — contribution of each ADAPT mechanism: full ADAPT vs
// ADAPT minus threshold adaptation / cross-group aggregation / proactive
// demotion, plus the stripped core (all three off, which places exactly as
// SepBIT, so its row equals E3's sepbit cell), on the Alibaba-profile
// workload with Greedy selection.
#include "bench_util.h"

namespace {

struct Variant {
  const char* label;
  bool threshold;
  bool aggregation;
  bool demotion;
};

}  // namespace

int main() {
  using namespace adapt;
  bench::print_header("Ablation A1", "ADAPT mechanism contributions");

  const auto workload = bench::make_workload(
      trace::alibaba_profile(), bench::volumes_per_workload(),
      bench::fill_factor());

  const Variant variants[] = {
      {"full ADAPT", true, true, true},
      {"- threshold adaptation", false, true, true},
      {"- cross-group aggregation", true, false, true},
      {"- proactive demotion", true, true, false},
      {"stripped core (SepBIT)", false, false, false},
  };

  obs::BenchReport report("ablation_adapt");
  std::printf("\n%-28s %10s %10s %10s %12s\n", "variant", "WA", "gcWA",
              "padding%", "shadow-blk");
  for (const Variant& v : variants) {
    sim::ExperimentSpec spec;
    spec.policies = {"adapt"};
    spec.base.adapt_threshold_adaptation = v.threshold;
    spec.base.adapt_cross_group_aggregation = v.aggregation;
    spec.base.adapt_proactive_demotion = v.demotion;
    const auto results = sim::run_experiment(spec, workload.volumes);
    const auto& cell = results.at(sim::CellKey{"adapt", "greedy"});
    std::uint64_t shadow = 0;
    std::uint64_t user = 0;
    std::uint64_t gc = 0;
    for (const auto& vol : cell.volumes) {
      shadow += vol.metrics.shadow_blocks;
      user += vol.metrics.user_blocks;
      gc += vol.metrics.gc_blocks;
    }
    const double gc_wa = user == 0 ? 0.0
                                   : static_cast<double>(user + gc) /
                                         static_cast<double>(user);
    std::printf("%-28s %10.3f %10.3f %9.1f%% %12llu\n", v.label,
                cell.overall_wa(), gc_wa,
                100.0 * cell.overall_padding_ratio(),
                static_cast<unsigned long long>(shadow));
    const obs::BenchReport::Params key = {{"variant", v.label}};
    report.add("overall_wa", key, cell.overall_wa(), "ratio");
    report.add("gc_wa", key, gc_wa, "ratio");
    report.add("padding_ratio", key, cell.overall_padding_ratio(),
               "fraction");
    report.add("shadow_blocks", key, static_cast<double>(shadow), "blocks");
  }
  bench::write_report(report);
  return 0;
}
