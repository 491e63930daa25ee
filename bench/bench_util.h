// Shared helpers for the figure-reproduction benches: workload-set
// construction, environment-based scaling, and table printing.
//
// Every bench prints the rows/series of one paper figure. Absolute numbers
// will not match the paper (the substrate is a simulator and the traces are
// calibrated synthetics — see DESIGN.md), but the shapes should.
//
// Scaling: set ADAPT_BENCH_VOLUMES / ADAPT_BENCH_FILL to trade accuracy for
// runtime (defaults keep each bench around a minute).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.h"
#include "obs/export.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace adapt::bench {

// Environment knobs parse strictly (common/parse.h): a malformed value is
// a usage error that names the variable and exits 2, never a run on a
// truncated value.

[[noreturn]] inline void bad_env(const char* name,
                                 const std::invalid_argument& e) {
  std::fprintf(stderr, "%s: %s\n", name, e.what());
  std::exit(2);
}

/// An integer knob >= `lo`, or `fallback` when the variable is unset.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                             std::uint64_t lo = 1) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  try {
    return parse_uint(v, lo, std::numeric_limits<std::uint64_t>::max());
  } catch (const std::invalid_argument& e) {
    bad_env(name, e);
  }
}

/// A finite knob > 0, or `fallback` when the variable is unset.
inline double env_f64(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  try {
    return parse_positive(v);
  } catch (const std::invalid_argument& e) {
    bad_env(name, e);
  }
}

inline std::size_t volumes_per_workload() {
  return static_cast<std::size_t>(env_u64("ADAPT_BENCH_VOLUMES", 10));
}

inline double fill_factor() { return env_f64("ADAPT_BENCH_FILL", 8.0); }

struct WorkloadSet {
  std::string name;
  std::vector<trace::Volume> volumes;
};

inline WorkloadSet make_workload(const trace::CloudProfile& profile,
                                 std::size_t volumes, double fill,
                                 std::uint64_t seed = 1234) {
  WorkloadSet set;
  set.name = profile.name;
  trace::CloudVolumeModel model(profile, seed);
  set.volumes.reserve(volumes);
  for (std::size_t i = 0; i < volumes; ++i) {
    set.volumes.push_back(model.make_volume(i, fill));
  }
  return set;
}

inline std::vector<WorkloadSet> all_workloads() {
  const std::size_t n = volumes_per_workload();
  const double fill = fill_factor();
  return {make_workload(trace::alibaba_profile(), n, fill),
          make_workload(trace::tencent_profile(), n, fill),
          make_workload(trace::msrc_profile(), n, fill)};
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(synthetic trace substitute; compare shapes, not values)\n");
  std::printf("==================================================\n");
}

/// Compact numeric param formatting for BenchReport ("%g": 0.25, 1e+06).
inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Writes `BENCH_<name>.json` into the working directory and tells the
/// operator. The JSON is self-validated through the adapt-bench-v1 schema
/// checker before it hits disk, so a bench can never publish an artifact
/// that tools/check_bench_json (or the adapt_compare gate) would reject.
/// A failed write exits 1, naming the file.
inline void write_report(const obs::BenchReport& report) {
  obs::validate_bench_json(report.json());
  std::string path;
  try {
    path = report.write_file();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s: %s\n", report.name().c_str(), e.what());
    std::exit(1);
  }
  std::printf("\nwrote %s (%zu rows)\n", path.c_str(), report.row_count());
}

inline void print_policy_row_header(const char* label) {
  std::printf("%-14s", label);
  for (const auto p : sim::all_policy_names()) {
    std::printf("%10.*s", static_cast<int>(p.size()), p.data());
  }
  std::printf("\n");
}

}  // namespace adapt::bench
