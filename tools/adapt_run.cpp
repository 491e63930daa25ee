// adapt_run — single-volume replay CLI with the full observability report.
//
// Replays either a synthetic cloud volume (--profile) or a real trace file
// (--trace/--format) through one (policy, victim) pair and writes:
//
//   <out>/adapt_run_series.jsonl    adapt-series-v1 time series
//   <out>/adapt_run_series.csv      same series, flat columns for gnuplot
//   <out>/adapt_run_manifest.json   adapt-manifest-v1 run manifest
//   <out>/adapt_run_trace.json      adapt-trace-v1 (with --trace-events)
//
// Every artifact write is checked: an unopenable path or a failed flush is
// an error (exit 1), never a silent empty file. --selfcheck re-reads all
// written artifacts through the schema validators before exiting, so CI can
// use one invocation as an end-to-end probe; any validation failure prints
// "selfcheck FAILED: <artifact>: <reason>" and exits non-zero.
//
// Exit codes: 0 success, 1 runtime/selfcheck failure, 2 usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "adapt/shard_stack.h"
#include "common/parse.h"
#include "obs/export.h"
#include "obs/runtime_stats.h"
#include "obs/trace_log.h"
#include "sim/simulator.h"
#include "trace/reader.h"
#include "trace/synthetic.h"

namespace {

struct Options {
  std::string policy = "adapt";
  std::string victim = "greedy";
  std::string profile = "alibaba";
  std::string trace_path;  // when set, overrides --profile
  std::string format = "canonical";
  std::string out_dir = "adapt_run_out";
  std::uint64_t volume_id = 0;
  double fill = 3.0;
  std::uint64_t seed = 42;
  std::uint64_t window = 4096;
  std::uint64_t max_rows = 512;
  double live_stats = 0.0;  // seconds between live lines; 0 = off
  bool rmw = false;
  bool no_array = false;
  bool no_per_group = false;
  bool trace_events = false;
  bool registry_dump = false;
  bool selfcheck = false;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: adapt_run [options]\n"
               "  --policy NAME      placement policy (default adapt)\n"
               "  --victim NAME      GC victim policy (default greedy)\n"
               "  --profile NAME     synthetic profile: alibaba|tencent|msrc\n"
               "  --trace FILE       replay a trace file instead\n"
               "  --format NAME      trace format: canonical|alibaba|tencent|"
               "msrc\n"
               "  --volume-id N      synthetic volume index (default 0)\n"
               "  --fill F           synthetic fill factor (default 3.0)\n"
               "  --seed N           simulation seed (default 42)\n"
               "  --window N         sampling stride in user blocks "
               "(default 4096)\n"
               "  --max-rows N       series memory bound in rows "
               "(default 512)\n"
               "  --out DIR          output directory (default "
               "adapt_run_out)\n"
               "  --live-stats SECS  print a live throughput line to stderr\n"
               "                     every SECS seconds and one when the "
               "replay ends\n"
               "  --rmw              read-modify-write partial flushes\n"
               "  --no-array         skip the SSD-array model\n"
               "  --no-per-group     drop per-group series columns\n"
               "  --trace-events     record the event trace and write\n"
               "                     adapt_run_trace.json (Chrome/Perfetto)\n"
               "  --registry-dump    print the merged counter registry as\n"
               "                     sorted 'name value' lines on stdout\n"
               "  --selfcheck        re-validate the written artifacts\n");
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) +
                                  " requires a value");
    }
    return argv[i + 1];
  };
  // Numeric values parse strictly (common/parse.h): a malformed one is a
  // usage error naming its option.
  constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
  auto uint_value = [&](int i, std::uint64_t lo) {
    const char* text = need_value(i);
    try {
      return adapt::parse_uint(text, lo, kAny);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(argv[i]) + ": " + e.what());
    }
  };
  auto positive_value = [&](int i) {
    const char* text = need_value(i);
    try {
      return adapt::parse_positive(text);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(argv[i]) + ": " + e.what());
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--policy") {
      opt.policy = need_value(i++);
    } else if (arg == "--victim") {
      opt.victim = need_value(i++);
    } else if (arg == "--profile") {
      opt.profile = need_value(i++);
    } else if (arg == "--trace") {
      opt.trace_path = need_value(i++);
    } else if (arg == "--format") {
      opt.format = need_value(i++);
    } else if (arg == "--out") {
      opt.out_dir = need_value(i++);
    } else if (arg == "--volume-id") {
      opt.volume_id = uint_value(i++, 0);
    } else if (arg == "--fill") {
      opt.fill = positive_value(i++);
    } else if (arg == "--seed") {
      opt.seed = uint_value(i++, 0);
    } else if (arg == "--window") {
      opt.window = uint_value(i++, 1);
    } else if (arg == "--max-rows") {
      opt.max_rows = uint_value(i++, 1);
    } else if (arg == "--live-stats") {
      opt.live_stats = positive_value(i++);
    } else if (arg == "--rmw") {
      opt.rmw = true;
    } else if (arg == "--no-array") {
      opt.no_array = true;
    } else if (arg == "--no-per-group") {
      opt.no_per_group = true;
    } else if (arg == "--trace-events") {
      opt.trace_events = true;
    } else if (arg == "--registry-dump") {
      opt.registry_dump = true;
    } else if (arg == "--selfcheck") {
      opt.selfcheck = true;
    } else {
      throw std::invalid_argument("unknown option: " + std::string(arg));
    }
  }
  // An unknown name is a usage error too, caught before any replay.
  adapt::core::StackSpec names;
  names.policy = opt.policy;
  names.victim = opt.victim;
  adapt::core::check_stack_names(names);
  adapt::trace::profile_named(opt.profile);
  adapt::trace::format_named(opt.format);
  return opt;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run(const Options& opt) {
  namespace fs = std::filesystem;
  namespace obs = adapt::obs;
  namespace sim = adapt::sim;
  namespace trace = adapt::trace;

  trace::Volume volume;
  std::string workload;
  if (!opt.trace_path.empty()) {
    std::ifstream in(opt.trace_path);
    if (!in) {
      std::fprintf(stderr, "adapt_run: cannot open %s\n",
                   opt.trace_path.c_str());
      return 1;
    }
    volume = trace::read_trace(in, trace::format_named(opt.format));
    volume.id = opt.volume_id;
    workload = opt.trace_path;
  } else {
    trace::CloudVolumeModel model(trace::profile_named(opt.profile), opt.seed);
    volume = model.make_volume(opt.volume_id, opt.fill);
    workload = opt.profile;
  }

  sim::SimConfig config;
  config.victim_policy = opt.victim;
  config.seed = opt.seed;
  config.with_array = !opt.no_array;
  if (opt.rmw) {
    config.lss.partial_write_mode =
        adapt::lss::PartialWriteMode::kReadModifyWrite;
  }
  config.sampling_enabled = true;
  config.sampling.window_blocks = opt.window;
  config.sampling.max_rows = static_cast<std::size_t>(opt.max_rows);
  config.sampling.per_group = !opt.no_per_group;
  config.tracing_enabled = opt.trace_events;

  // Live stats: the replay publishes block progress into `live_stats`; the
  // printer writes a "live:" line to stderr every interval and a final one
  // when the replay returns, so even a run shorter than the interval
  // reports once.
  obs::RuntimeStats live_stats;
  std::optional<obs::LiveStatsPrinter> live_printer;
  if (opt.live_stats > 0.0) {
    config.live_stats = &live_stats;
    live_printer.emplace(live_stats, opt.live_stats);
  }
  sim::VolumeResult result = sim::run_volume(volume, opt.policy, config);
  if (live_printer) live_printer->stop();
  result.manifest.tool = "adapt_run";
  result.manifest.workload = workload;

  fs::create_directories(opt.out_dir);
  const fs::path dir(opt.out_dir);
  const fs::path jsonl_path = dir / "adapt_run_series.jsonl";
  const fs::path csv_path = dir / "adapt_run_series.csv";
  const fs::path manifest_path = dir / "adapt_run_manifest.json";
  const fs::path trace_path = dir / "adapt_run_trace.json";
  {
    std::ostringstream out;
    obs::write_series_jsonl(out, *result.series);
    obs::write_artifact(jsonl_path, out.str());
  }
  {
    std::ostringstream out;
    obs::write_series_csv(out, *result.series);
    obs::write_artifact(csv_path, out.str());
  }
  obs::write_artifact(manifest_path,
                      obs::manifest_json(result.manifest) + "\n");
  if (opt.trace_events) {
    obs::TraceMeta meta;
    meta.tool = "adapt_run";
    meta.policy = result.policy;
    meta.workload = workload;
    meta.seed = opt.seed;
    obs::write_artifact(trace_path,
                        obs::chrome_trace_json(*result.trace, meta));
  }

  std::printf("policy=%s victim=%s workload=%s records=%llu\n",
              result.policy.c_str(), result.victim.c_str(), workload.c_str(),
              static_cast<unsigned long long>(result.manifest.records));
  std::printf(
      "WA=%.4f padding_ratio=%.4f gc_runs=%llu samples=%zu window=%llu "
      "downsamples=%u\n",
      result.wa(), result.padding_ratio(),
      static_cast<unsigned long long>(result.metrics.gc_runs),
      result.series->rows.size(),
      static_cast<unsigned long long>(result.series->window_blocks),
      result.series->downsamples);
  if (opt.trace_events) {
    std::printf("trace: %llu events recorded, %llu dropped\n",
                static_cast<unsigned long long>(result.trace->recorded),
                static_cast<unsigned long long>(result.trace->dropped));
    if (result.trace->dropped > 0) {
      // A wrapped ring means the trace is a suffix of the run, which
      // changes what the timeline can prove.
      std::fprintf(stderr,
                   "adapt_run: warning: trace ring overflowed, %llu events "
                   "dropped; raise the ring capacity or shorten the run "
                   "for a complete timeline\n",
                   static_cast<unsigned long long>(result.trace->dropped));
    }
  }
  std::printf("wall=%.3fs records/s=%.0f peak_rss=%llu\n",
              result.manifest.wall_seconds, result.manifest.records_per_sec,
              static_cast<unsigned long long>(result.manifest.peak_rss_bytes));
  std::printf("wrote %s %s %s\n", jsonl_path.c_str(), csv_path.c_str(),
              manifest_path.c_str());

  if (opt.registry_dump) {
    for (const auto& [name, value] : result.manifest.counters.entries()) {
      std::printf("%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }

  if (opt.selfcheck) {
    bool failed = false;
    const auto check = [&](const fs::path& path, auto&& validate) {
      try {
        validate(read_file(path));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "selfcheck FAILED: %s: %s\n", path.c_str(),
                     e.what());
        failed = true;
      }
    };
    check(jsonl_path, [](const std::string& text) {
      if (obs::validate_series_jsonl(text) == 0) {
        throw std::invalid_argument("series has no samples");
      }
    });
    check(manifest_path,
          [](const std::string& text) { obs::validate_manifest_json(text); });
    if (opt.trace_events) {
      check(trace_path,
            [](const std::string& text) { obs::validate_trace_json(text); });
    }
    if (failed) return 1;
    std::printf("selfcheck ok: all artifacts valid\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adapt_run: %s\n", e.what());
    usage(stderr);
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adapt_run: %s\n", e.what());
    return 1;
  }
}
