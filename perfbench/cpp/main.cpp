// perfbench: runs one benchmark workload through the library's
// public entry points and prints its metrics.
//
//   perfbench --workload cloud|ycsb-dense|proto --seed N
//                    --seconds S --trace 0|1 [--scale full|smoke]
//                    [--spans-out FILE] [--manifest-dir DIR]
//   perfbench check-manifest FILE
//
// --trace 0 measures the end-to-end metrics with no instrumentation: passes
// over the workload's inputs repeat while another pass fits in S seconds
// and each metric is the median over passes (proto's setup_s: over set-up
// probes, see run_proto). --trace 1 replays every sim volume untraced
// through sim::run_volume, then again traced through the proxies in
// traced.h, and prints the per-layer metrics (proto: one normal run, read
// from its result); those of layers the workload does not pass through
// read 0.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Lines starting "attempted " announce the running op count, so a
// caller can charge a crash against every op the run attempted. Exit code
// 1 means a correctness check failed or an operation threw.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.h"
#include "proto/prototype.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "traced.h"

namespace {

namespace lss = adapt::lss;
namespace obs = adapt::obs;
namespace sim = adapt::sim;
namespace trace = adapt::trace;
namespace proto = adapt::proto;
using perfbench::Span;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

constexpr double kMiB = 1024.0 * 1024.0;
/// Spans of this many records, from the middle of the first volume (past
/// the GC warm-up), are kept and written out in full.
constexpr std::uint64_t kKeptSpanRecords = 2000;
/// proto set-up probes before each pass (see run_proto).
constexpr int kProbesPerPass = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;  ///< required
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
  std::string manifest_dir;
};

/// Named metric values in print order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void print_lines() const {
    for (const Row& r : rows_) {
      std::printf("metric %-36s %.17g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      const double v = std::isfinite(r.value) ? r.value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (i != 0) out += ", ";
      out += "\"" + r.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             r.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Correctness bookkeeping shared by every workload.
struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void announce(std::uint64_t more_ops) {
    attempted += more_ops;
    std::printf("attempted %llu\n", static_cast<unsigned long long>(attempted));
    std::fflush(stdout);
  }
  void problem(const std::string& what) {
    problems.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED check: %s\n", what.c_str());
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double percentile_or_zero(const adapt::Log2Histogram& h, double p) {
  return h.empty() ? 0.0 : h.percentile(p);
}

struct NamedUnit {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of layers a workload does not pass through read 0.
void add_off_path(Metrics& m, std::initializer_list<NamedUnit> metrics) {
  for (const NamedUnit& n : metrics) m.add(n.name, 0.0, n.unit);
}

/// Checks that the global block counters, which wa and padding_ratio are
/// computed from, equal the per-group counters the manifest's provenance
/// (and so its write-accounting identity) is built from.
void check_group_totals(const lss::LssMetrics& m, const std::string& tag,
                        Run& run) {
  lss::GroupTraffic sum;
  for (const lss::GroupTraffic& g : m.groups) sum.merge_from(g);
  if (sum.user_blocks != m.user_blocks || sum.gc_blocks != m.gc_blocks ||
      sum.shadow_blocks != m.shadow_blocks ||
      sum.padding_blocks != m.padding_blocks) {
    run.problem(tag + ": global block counters differ from the groups' sum");
  }
}

/// Validates a manifest through the library's own validator (write
/// accounting identity, latency-breakdown additivity, schema) and, when
/// `write` is set and a directory is given, writes it out.
void check_manifest(const obs::RunManifest& manifest, const std::string& tag,
                    const Options& opt, bool write, Run& run) {
  const std::string json = obs::manifest_json(manifest);
  try {
    obs::validate_manifest_json(json);
  } catch (const std::exception& e) {
    run.problem("manifest " + tag + " rejected: " + e.what());
  }
  if (write && !opt.manifest_dir.empty()) {
    std::ofstream out(opt.manifest_dir + "/" + tag + ".json");
    out << json;
    if (!out) run.problem("cannot write manifest " + tag);
  }
}

// ---------------------------------------------------------------------------
// Sim workloads: cloud and ycsb-dense
// ---------------------------------------------------------------------------

struct NamedVolume {
  std::string name;
  trace::Volume volume;
};

/// Generates the workload's volumes one at a time, each just before `fn`
/// replays it, and returns the total generation time.
double for_each_volume(const Options& opt,
                       const std::function<void(NamedVolume&&)>& fn) {
  double gen_s = 0.0;
  if (opt.workload == "cloud") {
    const std::size_t volumes = opt.smoke ? 1 : 10;
    const double fill = opt.smoke ? 2.0 : 8.0;
    for (const trace::CloudProfile& profile :
         {trace::alibaba_profile(), trace::tencent_profile(),
          trace::msrc_profile()}) {
      trace::CloudVolumeModel model(profile, opt.seed);
      for (std::size_t v = 0; v < volumes; ++v) {
        const auto t0 = Clock::now();
        NamedVolume nv{profile.name + "-" + std::to_string(v),
                       model.make_volume(v, fill)};
        gen_s += seconds_since(t0);
        fn(std::move(nv));
      }
    }
  } else {
    trace::YcsbConfig wc;
    wc.working_set_blocks = opt.smoke ? (1u << 16) : (1u << 20);
    wc.zipf_alpha = 0.99;
    wc.read_ratio = 0.5;
    wc.mean_interarrival_us = 0.5;
    wc.request_blocks = 1;
    wc.seed = opt.seed;
    const std::uint64_t fill = opt.smoke ? 2 : 4;
    const auto t0 = Clock::now();
    NamedVolume nv{"ycsb", trace::make_ycsb_volume(
                               wc, fill * wc.working_set_blocks)};
    gen_s += seconds_since(t0);
    fn(std::move(nv));
  }
  return gen_s;
}

sim::SimConfig sim_config() {
  sim::SimConfig config;  // greedy victim, RAID-5 array, one shard
  config.lss.partial_write_mode = lss::PartialWriteMode::kZeroPad;
  return config;
}

struct ExpectedBlocks {
  std::uint64_t written = 0;
  std::uint64_t read = 0;
};

/// Block counts the engine must report for `volume`, after run_volume's
/// clamp of requests past the declared capacity.
ExpectedBlocks expected_blocks(const trace::Volume& volume) {
  const adapt::Lba addressable =
      std::max<adapt::Lba>(volume.capacity_blocks, 1);
  ExpectedBlocks e;
  for (const trace::Record& r : volume.records) {
    if (r.lba >= addressable) continue;
    const std::uint64_t n =
        std::min<adapt::Lba>(r.lba + r.blocks, addressable) - r.lba;
    (r.op == trace::OpType::kWrite ? e.written : e.read) += n;
  }
  return e;
}

/// FNV-1a over the records' fields: a fingerprint of the generated inputs.
std::uint64_t fold_digest(std::uint64_t h, const trace::Volume& volume) {
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(volume.capacity_blocks);
  for (const trace::Record& r : volume.records) {
    mix(r.ts_us);
    mix(static_cast<std::uint64_t>(r.op));
    mix(r.lba);
    mix(r.blocks);
  }
  return h;
}

/// One pass over every volume of a sim workload.
struct SimPass {
  double gen_s = 0.0;
  double build_s = 0.0;   ///< run_volume wall - manifest.wall_seconds
  double replay_s = 0.0;  ///< sum of manifest.wall_seconds
  std::uint64_t records = 0;
  lss::LssMetrics metrics;
  adapt::array::StreamStats array;
  std::size_t max_policy_memory = 0;
  std::uint64_t input_digest = 0xcbf29ce484222325ull;
};

/// Untraced result per volume, empty where run_volume threw.
using VolumeResults = std::vector<std::optional<sim::VolumeResult>>;

/// Replays the workload's volumes once through run_volume, checking every
/// result. `results`, when given, receives each volume's result.
SimPass run_sim_pass(const Options& opt, Run& run, std::size_t pass,
                     VolumeResults* results) {
  SimPass p;
  const sim::SimConfig config = sim_config();
  p.gen_s = for_each_volume(opt, [&](NamedVolume&& nv) {
    const trace::Volume& volume = nv.volume;
    const std::uint64_t records = volume.records.size();
    if (pass == 0) p.input_digest = fold_digest(p.input_digest, volume);
    run.announce(records);
    try {
      const auto t0 = Clock::now();
      sim::VolumeResult r = sim::run_volume(volume, "adapt", config);
      const double call_s = seconds_since(t0);
      p.build_s += call_s - r.manifest.wall_seconds;
      p.replay_s += r.manifest.wall_seconds;
      p.records += records;
      p.metrics.merge_from(r.metrics);
      p.array.chunks_written += r.array_totals.chunks_written;
      p.array.data_bytes += r.array_totals.data_bytes;
      p.array.padding_bytes += r.array_totals.padding_bytes;
      p.array.parity_bytes += r.array_totals.parity_bytes;
      p.max_policy_memory =
          std::max(p.max_policy_memory, r.policy_memory_bytes);

      const std::size_t problems_before = run.problems.size();
      r.manifest.workload = opt.workload + "/" + nv.name;
      check_manifest(r.manifest, opt.workload + "-" + nv.name, opt,
                     pass == 0, run);
      check_group_totals(r.metrics, nv.name, run);
      const ExpectedBlocks e = expected_blocks(volume);
      if (r.manifest.records != records) {
        run.problem(nv.name + ": manifest records differ from the input");
      }
      if (r.metrics.user_blocks != e.written ||
          r.metrics.read_blocks != e.read) {
        run.problem(nv.name + ": engine block counts differ from the input");
      }
      if (run.problems.size() != problems_before) run.failed += records;
      if (results != nullptr) results->push_back(std::move(r));
    } catch (const std::exception& e) {
      run.problem(nv.name + ": threw " + e.what());
      run.failed += records;
      if (results != nullptr) results->emplace_back();
    }
  });
  return p;
}

/// Per-layer accumulators of the traced pass.
struct Ledger {
  perfbench::SpanRecorder recorder;
  std::uint64_t records = 0;  ///< record keys run on across volumes
  std::vector<std::uint64_t> write_ns;
  double traced_replay_s = 0.0;
  std::uint64_t demotions = 0;
  std::uint64_t shadow_decisions = 0;
  std::uint64_t pad_decisions = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t sampled_writes = 0;
  std::uint64_t adapter_calls = 0;
  double adapter_s = 0.0;
};

/// Regenerates the workload's volumes and replays each traced, checking
/// that every traced run reproduces its untraced result's counters and
/// that the standalone adapter agrees with the policy's.
void run_traced_pass(const Options& opt, Run& run,
                     const VolumeResults& untraced, Ledger& ledger) {
  const sim::SimConfig config = sim_config();
  std::size_t index = 0;
  for_each_volume(opt, [&](NamedVolume&& nv) {
    const trace::Volume& volume = nv.volume;
    const std::uint64_t records = volume.records.size();
    run.announce(records);
    if (index >= untraced.size() || !untraced[index].has_value()) {
      run.problem(nv.name + ": no untraced result to compare with");
      run.failed += records;
      ++index;
      return;
    }
    const sim::VolumeResult& r = *untraced[index++];
    if (index == 1) ledger.recorder.keep(records / 2, kKeptSpanRecords);
    try {
      const std::size_t problems_before = run.problems.size();
      const perfbench::TracedVolume t = perfbench::run_traced(
          volume, config, expected_blocks(volume).written, ledger.recorder,
          ledger.records, ledger.write_ns);
      ledger.records += records;
      ledger.traced_replay_s += t.replay_seconds;
      ledger.demotions += t.demotions;
      ledger.shadow_decisions += t.shadow_decisions;
      ledger.pad_decisions += t.pad_decisions;
      ledger.adoptions += t.adoptions;
      ledger.sampled_writes += t.sampled_writes;
      ledger.adapter_calls += t.adapter_calls;
      ledger.adapter_s += t.adapter_seconds;
      if (const std::string m = perfbench::counter_mismatch(r, t);
          !m.empty()) {
        run.problem(nv.name + ": traced run differs from untraced in " + m);
      }
      if (t.adapter_adoptions != t.adoptions ||
          t.adapter_sampled_writes != t.sampled_writes) {
        run.problem(nv.name +
                    ": standalone adapter disagrees with the policy's");
      }
      if (run.problems.size() != problems_before) run.failed += records;
    } catch (const std::exception& e) {
      run.problem(nv.name + ": traced replay threw " + e.what());
      run.failed += records;
    }
  });
  if (ledger.recorder.unbalanced() != 0) {
    run.problem("traced run left " +
                std::to_string(ledger.recorder.unbalanced()) + " spans open");
  }
}

void chunk_metrics(Metrics& m, const lss::LssMetrics& lm) {
  std::uint64_t full = 0;
  std::uint64_t padded = 0;
  for (const lss::GroupTraffic& g : lm.groups) {
    full += g.full_flushes;
    padded += g.padded_flushes;
  }
  m.add("lss.gc.runs", static_cast<double>(lm.gc_runs), "count");
  m.add("lss.gc.migrated_per_run",
        ratio(static_cast<double>(lm.gc_migrated_blocks),
              static_cast<double>(lm.gc_runs)),
        "blocks");
  m.add("lss.chunk.flushes", static_cast<double>(full + padded), "count");
  m.add("lss.chunk.padded_share",
        ratio(static_cast<double>(padded), static_cast<double>(full + padded)),
        "ratio");
  m.add("lss.chunk.forced_lazy_flushes",
        static_cast<double>(lm.forced_lazy_flushes), "count");
  m.add("lss.chunk.padding_ratio", lm.padding_ratio(), "ratio");
}

void sim_per_layer(Metrics& m, const SimPass& p, const Ledger& l) {
  const auto& rec = l.recorder;
  const auto calls = [&](Span s) {
    return static_cast<double>(rec.totals(s).calls);
  };
  const auto per_call = [&](Span s) {
    return ratio(static_cast<double>(rec.totals(s).total_ns), calls(s));
  };
  const auto self_ns = [&](Span s) {
    return static_cast<double>(rec.totals(s).self_ns);
  };
  const double wall_ns = l.traced_replay_s * 1e9;
  const double records = static_cast<double>(p.records);
  const double user_writes = calls(Span::kAdaptPlaceUser);

  m.add("trace.gen_s", p.gen_s, "s");
  m.add("trace.records", records, "count");
  m.add("sim.build_s", p.build_s, "s");
  const double queue_ns =
      static_cast<double>(rec.totals(Span::kSimQueue).total_ns);
  m.add("sim.queue.ns_per_record", ratio(queue_ns, records), "ns");
  m.add("sim.queue.busy_share", ratio(queue_ns, wall_ns), "ratio");
  m.add("adapt.place_user.calls", user_writes, "count");
  m.add("adapt.place_user.ns", per_call(Span::kAdaptPlaceUser), "ns");
  m.add("adapt.adapter.ns",
        ratio(l.adapter_s * 1e9, static_cast<double>(l.adapter_calls)), "ns");
  m.add("adapt.adapter.sampled_share",
        ratio(static_cast<double>(l.sampled_writes), user_writes), "ratio");
  m.add("adapt.adoptions", static_cast<double>(l.adoptions), "count");
  m.add("adapt.place_gc.calls", calls(Span::kAdaptPlaceGc), "count");
  m.add("adapt.place_gc.ns", per_call(Span::kAdaptPlaceGc), "ns");
  m.add("adapt.deadline.calls", calls(Span::kAdaptDeadline), "count");
  m.add("adapt.deadline.ns", per_call(Span::kAdaptDeadline), "ns");
  m.add("adapt.shadow_share",
        ratio(static_cast<double>(l.shadow_decisions),
              static_cast<double>(l.shadow_decisions + l.pad_decisions)),
        "ratio");
  m.add("adapt.demotion_share",
        ratio(static_cast<double>(l.demotions), user_writes), "ratio");
  const double adapt_self =
      self_ns(Span::kAdaptPlaceUser) + self_ns(Span::kAdaptPlaceGc) +
      self_ns(Span::kAdaptDeadline) + self_ns(Span::kAdaptNotify);
  m.add("adapt.busy_share", ratio(adapt_self, wall_ns), "ratio");
  m.add("adapt.memory_mb", static_cast<double>(p.max_policy_memory) / kMiB,
        "MiB");

  std::vector<std::uint64_t> w = l.write_ns;
  double p99 = 0.0;
  if (!w.empty()) {
    const std::size_t k = std::min(
        w.size() - 1,
        static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(
                                                      w.size()))) - 1);
    std::nth_element(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(k),
                     w.end());
    p99 = static_cast<double>(w[k]);
  }
  m.add("lss.write.calls", calls(Span::kLssWrite), "count");
  m.add("lss.write.ns", per_call(Span::kLssWrite), "ns");
  m.add("lss.write.p99_ns", p99, "ns");
  m.add("lss.read.calls", calls(Span::kLssRead), "count");
  m.add("lss.read.ns", per_call(Span::kLssRead), "ns");
  const double lss_self = self_ns(Span::kLssWrite) + self_ns(Span::kLssRead) +
                          self_ns(Span::kLssFlush);
  m.add("lss.self.ns_per_record", ratio(lss_self, records), "ns");
  m.add("lss.self.busy_share", ratio(lss_self, wall_ns), "ratio");

  chunk_metrics(m, p.metrics);
  m.add("lss.gc.ns_per_block",
        ratio(self_ns(Span::kGc),
              static_cast<double>(p.metrics.gc_migrated_blocks)),
        "ns");
  m.add("lss.gc.busy_share", ratio(self_ns(Span::kGc), wall_ns), "ratio");
  m.add("lss.victim.select_ns", per_call(Span::kVictimSelect), "ns");
  m.add("lss.victim.notify_calls", calls(Span::kVictimNotify), "count");
  m.add("lss.victim.notify_ns", per_call(Span::kVictimNotify), "ns");
  const double user_bytes = static_cast<double>(p.metrics.user_blocks) *
                            adapt::kDefaultBlockSize;
  m.add("array.bytes_per_user_byte",
        ratio(static_cast<double>(p.array.data_bytes + p.array.padding_bytes +
                                  p.array.parity_bytes),
              user_bytes),
        "ratio");

  double roots_ns = 0.0;
  for (Span s : {Span::kSimQueue, Span::kLssWrite, Span::kLssRead,
                 Span::kLssFlush}) {
    roots_ns += static_cast<double>(rec.totals(s).total_ns);
  }
  m.add("sim.unexplained_share", ratio(wall_ns - roots_ns, wall_ns), "ratio");
  m.add("obs.trace_overhead_share",
        ratio(l.traced_replay_s - p.replay_s, p.replay_s), "ratio");
  // The simulator drives neither group commit nor the device lanes.
  add_off_path(m, {{"lss.group_commit.mean_batch", "ops"},
                   {"lss.group_commit.max_batch", "ops"},
                   {"lss.group_commit.intake_p99_us", "us"},
                   {"lss.group_commit.apply_p99_us", "us"},
                   {"lss.device_lanes.submits", "count"},
                   {"lss.device_lanes.stalled_share", "ratio"},
                   {"lss.device_lanes.busy_share", "ratio"},
                   {"lss.device_lanes.queue_p99_us", "us"},
                   {"lss.device_lanes.service_p99_us", "us"},
                   {"proto.write_p50_us", "us"},
                   {"proto.write_p99_us", "us"},
                   {"proto.write_samples", "count"}});
}

void run_sim(const Options& opt, Run& run, Metrics& m) {
  if (opt.trace) {
    // Untraced replays first, so the peak RSS read between the phases is
    // the product run's, not the tracer's.
    VolumeResults untraced;
    const SimPass p = run_sim_pass(opt, run, 0, &untraced);
    const double rss_mb =
        static_cast<double>(obs::current_peak_rss_bytes()) / kMiB;
    Ledger ledger;
    run_traced_pass(opt, run, untraced, ledger);
    std::printf("info inputs %016llx\n",
                static_cast<unsigned long long>(p.input_digest));
    sim_per_layer(m, p, ledger);
    m.add("peak_rss_mb", rss_mb, "MiB");
    if (!opt.spans_out.empty()) {
      std::ofstream out(opt.spans_out);
      ledger.recorder.write_chrome_trace(out);
      if (!out) run.problem("cannot write spans to " + opt.spans_out);
    }
    return;
  }
  const auto start = Clock::now();
  std::vector<SimPass> passes;
  double last_pass_s = 0.0;
  do {
    const auto t0 = Clock::now();
    passes.push_back(run_sim_pass(opt, run, passes.size(), nullptr));
    last_pass_s = seconds_since(t0);
    const SimPass& p = passes.back();
    if (p.metrics.wa() != passes.front().metrics.wa() ||
        p.metrics.padding_ratio() != passes.front().metrics.padding_ratio()) {
      run.problem("pass " + std::to_string(passes.size() - 1) +
                  " did not repeat pass 0's wa and padding_ratio");
    }
  } while (seconds_since(start) + last_pass_s <= opt.seconds);

  std::vector<double> setup;
  std::vector<double> rate;
  for (const SimPass& p : passes) {
    // Set-up time grows with the input, and the seed sets how many records
    // the cloud volumes hold (6.5M-8.8M), so it is taken per 1M records.
    const double records = static_cast<double>(p.records);
    setup.push_back(ratio((p.gen_s + p.build_s) * 1e6, records));
    rate.push_back(ratio(records, p.replay_s));
    std::printf("info pass %zu records %llu replay_s %.6f setup %.6f s "
                "(%.6f s per 1M records)\n",
                setup.size() - 1, static_cast<unsigned long long>(p.records),
                p.replay_s, p.gen_s + p.build_s, setup.back());
  }
  std::printf("info passes %zu\n", passes.size());
  std::printf("info inputs %016llx\n",
              static_cast<unsigned long long>(passes.front().input_digest));
  m.add("setup_s", median(setup), "s");
  m.add("ops_per_s", median(rate), "1/s");
  std::printf("info replay_records_per_s %.17g records/s (= ops_per_s)\n",
              median(rate));
  m.add("wa", passes.front().metrics.wa(), "ratio");
  // Printed for the reader; not part of the result line (see README).
  std::printf("info padding_ratio %.17g ratio\n",
              passes.front().metrics.padding_ratio());
  std::printf("info peak_rss_mb %.17g MiB\n",
              static_cast<double>(obs::current_peak_rss_bytes()) / kMiB);
}

// ---------------------------------------------------------------------------
// proto
// ---------------------------------------------------------------------------

proto::PrototypeConfig proto_config(const Options& opt) {
  proto::PrototypeConfig config;  // 4 lanes, 600 MB/s, qd 8, background GC
  config.policy = "adapt";
  config.num_clients = opt.smoke ? 2 : 4;
  config.writes_per_client = opt.smoke ? 4'000 : 80'000;
  config.workload.working_set_blocks = 1u << 16;
  config.workload.zipf_alpha = 0.99;
  config.workload.mean_interarrival_us = 0.0;
  config.lss.coalesce_window_us = 300;
  config.lss.partial_write_mode = lss::PartialWriteMode::kZeroPad;
  config.seed = opt.seed;  // the prototype generates its clients' streams
  return config;
}

struct ProtoPass {
  proto::PrototypeResult result;
  double setup_s = 0.0;  ///< call wall - client-span envelope
};

/// Runs the prototype once with `config`, checking its result; the first
/// measured pass writes its manifest out.
ProtoPass run_proto_pass(const proto::PrototypeConfig& config,
                         const Options& opt, Run& run, bool write_manifest) {
  const std::uint64_t ops = config.num_clients * config.writes_per_client;
  run.announce(ops);
  ProtoPass p;
  try {
    const auto t0 = Clock::now();
    p.result = proto::run_prototype(config);
    p.setup_s = seconds_since(t0) - p.result.elapsed_seconds;
  } catch (const std::exception& e) {
    run.problem(std::string("run_prototype threw ") + e.what());
    run.failed += ops;
    return p;
  }
  const std::size_t problems_before = run.problems.size();
  check_manifest(p.result.manifest, "proto", opt, write_manifest, run);
  check_group_totals(p.result.metrics, "proto", run);
  if (p.result.latency_ns.count() != ops || p.result.user_blocks != ops) {
    run.problem("proto: acked writes differ from the writes submitted");
  }
  if (!(p.result.elapsed_seconds > 0.0)) {
    run.problem("proto: client span envelope is empty");
  }
  if (run.problems.size() != problems_before) run.failed += ops;
  return p;
}

void proto_per_layer(Metrics& m, const ProtoPass& p) {
  const proto::PrototypeResult& r = p.result;
  const lss::LssMetrics& lm = r.metrics;
  m.add("adapt.memory_mb", static_cast<double>(r.policy_memory_bytes) / kMiB,
        "MiB");
  chunk_metrics(m, lm);
  // No proxies on this path: GC cost comes from the engine's own host-clock
  // pause histogram, spread over the shards' GC threads.
  const double pause_us = static_cast<double>(lm.gc_pause_us.sum());
  const double elapsed_us = r.elapsed_seconds * 1e6;
  m.add("lss.gc.ns_per_block",
        ratio(pause_us * 1e3, static_cast<double>(lm.gc_migrated_blocks)),
        "ns");
  m.add("lss.gc.busy_share", ratio(pause_us, elapsed_us * r.shards), "ratio");
  const lss::GroupCommitStats& gc = r.group_commit;
  m.add("lss.group_commit.mean_batch",
        ratio(static_cast<double>(gc.ops), static_cast<double>(gc.groups)),
        "ops");
  m.add("lss.group_commit.max_batch", static_cast<double>(gc.max_batch),
        "ops");
  m.add("lss.group_commit.intake_p99_us",
        percentile_or_zero(r.breakdown.intake_wait_us, 99), "us");
  m.add("lss.group_commit.apply_p99_us",
        percentile_or_zero(r.breakdown.batch_apply_us, 99), "us");
  const lss::DeviceLanesStats& lanes = r.lanes;
  std::uint64_t busy_us = 0;
  for (const lss::LaneStats& l : lanes.per_lane) busy_us += l.busy_us;
  const double submits = static_cast<double>(lanes.total_submits());
  m.add("lss.device_lanes.submits", submits, "count");
  m.add("lss.device_lanes.stalled_share",
        ratio(static_cast<double>(lanes.total_stalled()), submits), "ratio");
  m.add("lss.device_lanes.busy_share",
        ratio(static_cast<double>(busy_us),
              elapsed_us * static_cast<double>(lanes.per_lane.size())),
        "ratio");
  m.add("lss.device_lanes.queue_p99_us",
        percentile_or_zero(r.breakdown.lane_queue_us, 99), "us");
  m.add("lss.device_lanes.service_p99_us",
        percentile_or_zero(r.breakdown.device_service_us, 99), "us");
  m.add("proto.write_p50_us", percentile_or_zero(r.latency_ns, 50) / 1e3,
        "us");
  m.add("proto.write_p99_us", percentile_or_zero(r.latency_ns, 99) / 1e3,
        "us");
  m.add("proto.write_samples", static_cast<double>(r.latency_ns.count()),
        "count");
  // No proxies or replay loop on this path, no array model, and the
  // clients generate their streams inside run_prototype.
  add_off_path(m, {{"trace.gen_s", "s"},
                   {"trace.records", "count"},
                   {"sim.build_s", "s"},
                   {"sim.queue.ns_per_record", "ns"},
                   {"sim.queue.busy_share", "ratio"},
                   {"adapt.place_user.calls", "count"},
                   {"adapt.place_user.ns", "ns"},
                   {"adapt.adapter.ns", "ns"},
                   {"adapt.adapter.sampled_share", "ratio"},
                   {"adapt.adoptions", "count"},
                   {"adapt.place_gc.calls", "count"},
                   {"adapt.place_gc.ns", "ns"},
                   {"adapt.deadline.calls", "count"},
                   {"adapt.deadline.ns", "ns"},
                   {"adapt.shadow_share", "ratio"},
                   {"adapt.demotion_share", "ratio"},
                   {"adapt.busy_share", "ratio"},
                   {"lss.write.calls", "count"},
                   {"lss.write.ns", "ns"},
                   {"lss.write.p99_ns", "ns"},
                   {"lss.read.calls", "count"},
                   {"lss.read.ns", "ns"},
                   {"lss.self.ns_per_record", "ns"},
                   {"lss.self.busy_share", "ratio"},
                   {"lss.victim.select_ns", "ns"},
                   {"lss.victim.notify_calls", "count"},
                   {"lss.victim.notify_ns", "ns"},
                   {"array.bytes_per_user_byte", "ratio"},
                   {"sim.unexplained_share", "ratio"},
                   {"obs.trace_overhead_share", "ratio"}});
}

void run_proto(const Options& opt, Run& run, Metrics& m) {
  const proto::PrototypeConfig config = proto_config(opt);
  if (opt.trace) {
    const ProtoPass p = run_proto_pass(config, opt, run, true);
    proto_per_layer(m, p);
    m.add("peak_rss_mb",
          static_cast<double>(obs::current_peak_rss_bytes()) / kMiB, "MiB");
    return;
  }
  // Set-up is a few milliseconds of thread and engine start-up, too noisy
  // to read from the handful of passes that fit in a run, so it is sampled
  // by probes before every pass: the same configuration with one write per
  // client, built, run and torn down.
  proto::PrototypeConfig probe_config = config;
  probe_config.writes_per_client = 1;
  std::vector<double> probe_setup;
  const auto start = Clock::now();
  std::vector<ProtoPass> passes;
  double last_pass_s = 0.0;
  do {
    for (int i = 0; i < kProbesPerPass; ++i) {
      probe_setup.push_back(
          run_proto_pass(probe_config, opt, run, false).setup_s);
    }
    const auto t0 = Clock::now();
    passes.push_back(run_proto_pass(config, opt, run, passes.empty()));
    last_pass_s = seconds_since(t0);
  } while (seconds_since(start) + last_pass_s <= opt.seconds);

  std::vector<double> setup, rate, wa, padding, p50, p99;
  std::uint64_t samples = 0;
  for (const ProtoPass& p : passes) {
    const proto::PrototypeResult& r = p.result;
    setup.push_back(p.setup_s);
    rate.push_back(ratio(static_cast<double>(r.latency_ns.count()),
                         r.elapsed_seconds));
    wa.push_back(r.metrics.wa());
    padding.push_back(r.metrics.padding_ratio());
    p50.push_back(percentile_or_zero(r.latency_ns, 50) / 1e3);
    p99.push_back(percentile_or_zero(r.latency_ns, 99) / 1e3);
    samples += r.latency_ns.count();
    std::printf("info pass %zu writes %llu elapsed_s %.6f setup_s %.6f\n",
                setup.size() - 1,
                static_cast<unsigned long long>(r.latency_ns.count()),
                r.elapsed_seconds, p.setup_s);
  }
  std::printf("info passes %zu (median set-up %.6f s), set-up probes %zu\n",
              passes.size(), median(setup), probe_setup.size());
  m.add("setup_s", median(probe_setup), "s");
  m.add("ops_per_s", median(rate), "1/s");
  std::printf("info client_writes_per_s %.17g writes/s (= ops_per_s)\n",
              median(rate));
  m.add("wa", median(wa), "ratio");
  std::printf("info padding_ratio %.17g ratio\n", median(padding));
  std::printf("info peak_rss_mb %.17g MiB\n",
              static_cast<double>(obs::current_peak_rss_bytes()) / kMiB);
  std::printf("info write_p50_us %.17g us (median over passes, %llu samples)\n",
              median(p50), static_cast<unsigned long long>(samples));
  std::printf("info write_p99_us %.17g us (median over passes, %llu samples)\n",
              median(p99), static_cast<unsigned long long>(samples));
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cloud|ycsb-dense|proto "
               "--seed N --seconds S --trace 0|1 [--scale full|smoke] "
               "[--spans-out FILE] [--manifest-dir DIR]\n"
               "       perfbench check-manifest FILE\n");
  return 2;
}

int check_manifest_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot open %s\n", path);
    return 2;
  }
  std::stringstream text;
  text << in.rdbuf();
  try {
    obs::validate_manifest_json(text.str());
  } catch (const std::exception& e) {
    std::printf("rejected: %s\n", e.what());
    return 1;
  }
  std::printf("valid\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "check-manifest") {
    return check_manifest_file(argv[2]);
  }
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
      } else if (arg == "--scale") {
        if (value != "full" && value != "smoke") return usage();
        opt.smoke = value == "smoke";
      } else if (arg == "--spans-out") {
        opt.spans_out = value;
      } else if (arg == "--manifest-dir") {
        opt.manifest_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if ((opt.workload != "cloud" && opt.workload != "ycsb-dense" &&
       opt.workload != "proto") ||
      !(opt.seconds > 0.0)) {
    return usage();
  }

  std::printf("perfbench workload=%s seed=%llu scale=%s trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.smoke ? "smoke" : "full", opt.trace ? 1 : 0);
  Run run;
  Metrics metrics;
  if (opt.workload == "proto") {
    run_proto(opt, run, metrics);
  } else {
    run_sim(opt, run, metrics);
  }
  metrics.print_lines();
  const bool correct = run.problems.empty() && run.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics.json().c_str());
  return correct ? 0 : 1;
}
