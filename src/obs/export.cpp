#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace adapt::obs {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::uint64_t total_blocks(const SeriesRow& r) {
  return r.user_blocks + r.gc_blocks + r.shadow_blocks + r.padding_blocks;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? kNan
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Windowed series derived from two consecutive cumulative rows (`prev`
/// nullptr means the implicit all-zero row before the first sample).
struct Windowed {
  double wa = kNan;             ///< Δtotal / Δuser
  double padding_ratio = kNan;  ///< Δpadding / Δtotal
  double gc_rate = kNan;        ///< ΔGC runs / Δuser blocks
  double shadow_rate = kNan;    ///< Δshadow / Δuser
};

Windowed windowed_of(const SeriesRow* prev, const SeriesRow& row) {
  const SeriesRow zero{};
  const SeriesRow& p = prev != nullptr ? *prev : zero;
  Windowed w;
  const std::uint64_t d_user = row.user_blocks - p.user_blocks;
  const std::uint64_t d_total = total_blocks(row) - total_blocks(p);
  w.wa = ratio(d_total, d_user);
  w.padding_ratio = ratio(row.padding_blocks - p.padding_blocks, d_total);
  w.gc_rate = ratio(row.gc_runs - p.gc_runs, d_user);
  w.shadow_rate = ratio(row.shadow_blocks - p.shadow_blocks, d_user);
  return w;
}

}  // namespace

std::uint64_t current_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void register_lss_metrics(Registry& r, const lss::LssMetrics& m) {
  *r.slot("lss.user_blocks") += m.user_blocks;
  *r.slot("lss.gc_blocks") += m.gc_blocks;
  *r.slot("lss.shadow_blocks") += m.shadow_blocks;
  *r.slot("lss.padding_blocks") += m.padding_blocks;
  *r.slot("lss.gc_runs") += m.gc_runs;
  *r.slot("lss.gc_migrated_blocks") += m.gc_migrated_blocks;
  *r.slot("lss.forced_lazy_flushes") += m.forced_lazy_flushes;
  *r.slot("lss.rmw_flushes") += m.rmw_flushes;
  *r.slot("lss.rmw_blocks") += m.rmw_blocks;
  *r.slot("lss.rmw_read_blocks") += m.rmw_read_blocks;
  *r.slot("lss.read_blocks") += m.read_blocks;
  *r.slot("lss.read_chunk_fetches") += m.read_chunk_fetches;
  *r.slot("lss.read_buffer_hits") += m.read_buffer_hits;
  *r.slot("lss.read_unmapped") += m.read_unmapped;
}

std::string manifest_json(const RunManifest& m) {
  std::string out;
  json::Writer w(out);
  w.begin_object()
      .field("schema", kManifestSchema)
      .field("tool", m.tool)
      .field("policy", m.policy)
      .field("victim", m.victim)
      .field("workload", m.workload)
      .field("volume_id", m.volume_id)
      .field("seed", m.seed)
      .field("records", m.records)
      .field("user_blocks", m.user_blocks)
      .field("wall_seconds", m.wall_seconds)
      .field("records_per_sec", m.records_per_sec)
      .field("peak_rss_bytes", m.peak_rss_bytes);
  w.begin_object("geometry")
      .field("chunk_blocks", m.chunk_blocks)
      .field("segment_chunks", m.segment_chunks)
      .field("logical_blocks", m.logical_blocks)
      .field("over_provision", m.over_provision)
      .end_object();
  w.begin_object("counters");
  for (const auto& [name, value] : m.counters.entries()) w.field(name, value);
  w.end_object();
  append_provenance_json(out, "provenance", m.provenance);
  append_histogram_json(out, "block_lifetime", m.block_lifetime);
  append_histogram_json(out, "gc_pause_us", m.gc_pause_us);
  if (!m.latency_ns.empty()) {
    append_histogram_json(out, "latency_ns", m.latency_ns);
  }
  if (!m.lanes.empty()) {
    w.begin_object("lanes")
        .field("count", m.lanes.per_lane.size())
        .field("queue_depth", m.lanes.queue_depth)
        .begin_array("per_lane");
    for (const lss::LaneStats& l : m.lanes.per_lane) {
      w.begin_object()
          .field("submits", l.submits)
          .field("stalled_submits", l.stalled_submits)
          .field("busy_us", l.busy_us)
          .field("inflight_high_water", l.inflight_high_water)
          .field("busy_until_us", l.busy_until_us)
          .end_object();
    }
    w.end_array();
    append_histogram_json(out, "queue_depth_hist", m.lanes.queue_depth_hist);
    append_histogram_json(out, "submit_complete_us",
                          m.lanes.submit_complete_us);
    w.end_object();
  }
  if (!m.latency_breakdown.empty()) {
    const lss::LatencyBreakdown& lat = m.latency_breakdown;
    w.begin_object("latency_breakdown");
    append_histogram_json(out, "intake_wait_us", lat.intake_wait_us);
    append_histogram_json(out, "batch_apply_us", lat.batch_apply_us);
    append_histogram_json(out, "lane_queue_us", lat.lane_queue_us);
    append_histogram_json(out, "device_service_us", lat.device_service_us);
    append_histogram_json(out, "total_us", lat.total_us);
    w.end_object();
  }
  if (m.trace_present) {
    w.begin_object("trace")
        .field("recorded", m.trace_recorded)
        .field("dropped", m.trace_dropped)
        .field("per_shard_dropped", m.trace_per_shard_dropped)
        .end_object();
  }
  w.end_object();
  return out;
}

namespace {

void append_sample_line(std::string& out, const SeriesRow* prev,
                        const SeriesRow& row) {
  const Windowed w = windowed_of(prev, row);
  json::Writer j(out);
  j.begin_object()
      .field("type", "sample")
      .field("vtime", row.vtime)
      .field("wall_us", row.wall_us)
      .field("user_blocks", row.user_blocks)
      .field("gc_blocks", row.gc_blocks)
      .field("shadow_blocks", row.shadow_blocks)
      .field("padding_blocks", row.padding_blocks)
      .field("rmw_blocks", row.rmw_blocks)
      .field("chunks_flushed", row.chunks_flushed)
      .field("gc_runs", row.gc_runs)
      .field("free_segments", row.free_segments)
      .field("live_shadows", row.live_shadows)
      .field("threshold", row.threshold)
      .field("wa", ratio(total_blocks(row), row.user_blocks))
      .field("padding_ratio", ratio(row.padding_blocks, total_blocks(row)))
      .begin_object("windowed")
      .field("wa", w.wa)
      .field("padding_ratio", w.padding_ratio)
      .field("gc_rate", w.gc_rate)
      .field("shadow_rate", w.shadow_rate)
      .end_object();
  if (!row.groups.empty()) {
    j.begin_array("groups");
    for (std::size_t g = 0; g < row.groups.size(); ++g) {
      const GroupSample& gs = row.groups[g];
      j.begin_object()
          .field("group", g)
          .field("user_blocks", gs.user_blocks)
          .field("gc_blocks", gs.gc_blocks)
          .field("shadow_blocks", gs.shadow_blocks)
          .field("padding_blocks", gs.padding_blocks)
          .field("valid_blocks", gs.valid_blocks)
          .field("segments", gs.segments)
          .end_object();
    }
    j.end_array();
  }
  j.end_object();
}

}  // namespace

void write_series_jsonl(std::ostream& out, const TimeSeries& series) {
  std::string line;
  json::Writer(line)
      .begin_object()
      .field("type", "header")
      .field("schema", kSeriesSchema)
      .field("window_blocks", series.window_blocks)
      .field("downsamples", series.downsamples)
      .field("rows", series.rows.size())
      .end_object();
  out << line << '\n';
  for (std::size_t i = 0; i < series.rows.size(); ++i) {
    line.clear();
    append_sample_line(line, i == 0 ? nullptr : &series.rows[i - 1],
                       series.rows[i]);
    out << line << '\n';
  }
}

void write_series_csv(std::ostream& out, const TimeSeries& series) {
  out << "vtime,wall_us,user_blocks,gc_blocks,shadow_blocks,padding_blocks,"
         "rmw_blocks,chunks_flushed,gc_runs,free_segments,live_shadows,"
         "threshold,wa,padding_ratio,windowed_wa,windowed_padding_ratio,"
         "windowed_gc_rate,windowed_shadow_rate\n";
  std::string line;
  for (std::size_t i = 0; i < series.rows.size(); ++i) {
    const SeriesRow& row = series.rows[i];
    const Windowed w =
        windowed_of(i == 0 ? nullptr : &series.rows[i - 1], row);
    line.clear();
    line += std::to_string(row.vtime);
    line += ',';
    line += std::to_string(row.wall_us);
    line += ',';
    line += std::to_string(row.user_blocks);
    line += ',';
    line += std::to_string(row.gc_blocks);
    line += ',';
    line += std::to_string(row.shadow_blocks);
    line += ',';
    line += std::to_string(row.padding_blocks);
    line += ',';
    line += std::to_string(row.rmw_blocks);
    line += ',';
    line += std::to_string(row.chunks_flushed);
    line += ',';
    line += std::to_string(row.gc_runs);
    line += ',';
    line += std::to_string(row.free_segments);
    line += ',';
    line += std::to_string(row.live_shadows);
    // gnuplot reads "nan" as a missing point, so raw %g is fine here.
    for (const double v :
         {row.threshold, ratio(total_blocks(row), row.user_blocks),
          ratio(row.padding_blocks, total_blocks(row)), w.wa,
          w.padding_ratio, w.gc_rate, w.shadow_rate}) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",%.10g", v);
      line += buf;
    }
    out << line << '\n';
  }
}

void validate_manifest_json(std::string_view text) {
  const json::Value doc = json::parse(text);
  json::require_schema(doc, kManifestSchema);
  for (const char* key : {"tool", "policy", "victim", "workload"}) {
    json::require_string(doc, key);
  }
  for (const char* key : {"volume_id", "seed", "records", "user_blocks",
                          "wall_seconds", "records_per_sec",
                          "peak_rss_bytes"}) {
    json::require_number(doc, key);
  }
  const json::Value& geometry = json::require_object(doc, "geometry");
  for (const char* key :
       {"chunk_blocks", "segment_chunks", "logical_blocks",
        "over_provision"}) {
    json::require_number(geometry, key, "geometry");
  }
  const json::Value& counters = json::require_object(doc, "counters");
  for (const auto& [name, value] : counters.members()) {
    if (!value.is_number()) {
      throw std::invalid_argument("schema: counters." + name +
                                  " must be a number");
    }
  }
  validate_provenance_json(
      json::require(doc, "provenance"),
      json::require_count(geometry, "chunk_blocks", "geometry"));
  validate_histogram_json(json::require(doc, "block_lifetime"),
                          "block_lifetime");
  validate_histogram_json(json::require(doc, "gc_pause_us"), "gc_pause_us");
  // Optional: only prototype manifests carry per-op latency.
  if (const json::Value* latency = doc.find("latency_ns");
      latency != nullptr) {
    validate_histogram_json(*latency, "latency_ns");
  }
  // Optional: only prototype manifests carry device-lane stats.
  if (doc.find("lanes") != nullptr) {
    const json::Value& lanes = json::require_object(doc, "lanes");
    const double count = json::require_number(lanes, "count", "lanes");
    json::require_number(lanes, "queue_depth", "lanes");
    const json::Value& per_lane =
        json::require_array(lanes, "per_lane", "lanes");
    if (static_cast<double>(per_lane.items().size()) != count) {
      throw std::invalid_argument(
          "schema: lanes.count disagrees with the per_lane array length");
    }
    for (const json::Value& l : per_lane.items()) {
      for (const char* key : {"submits", "stalled_submits", "busy_us",
                              "inflight_high_water", "busy_until_us"}) {
        json::require_number(l, key, "lanes.per_lane");
      }
    }
    validate_histogram_json(json::require(lanes, "queue_depth_hist"),
                            "lanes.queue_depth_hist");
    validate_histogram_json(json::require(lanes, "submit_complete_us"),
                            "lanes.submit_complete_us");
  }
  // Optional: only concurrent-engine manifests carry the phase-attributed
  // latency breakdown. When present, enforce the additivity identity from
  // lss/op_timeline.h: every phase histogram counts the same ops as total,
  // and the four phase sums telescope exactly to total's sum. A manifest
  // whose phases don't explain its total is rejected, like a provenance
  // matrix that doesn't balance.
  if (doc.find("latency_breakdown") != nullptr) {
    const json::Value& lat = json::require_object(doc, "latency_breakdown");
    const json::Value& total = json::require(lat, "total_us");
    validate_histogram_json(total, "latency_breakdown.total_us");
    const double total_count = json::require_number(total, "count");
    const double total_sum = json::require_number(total, "sum");
    double phase_sum = 0.0;
    for (const char* key : {"intake_wait_us", "batch_apply_us",
                            "lane_queue_us", "device_service_us"}) {
      const json::Value& phase = json::require(lat, key, "latency_breakdown");
      validate_histogram_json(phase, "latency_breakdown." + std::string(key));
      if (json::require_number(phase, "count") != total_count) {
        throw std::invalid_argument("schema: latency_breakdown." +
                                    std::string(key) +
                                    ".count must equal total_us.count");
      }
      phase_sum += json::require_number(phase, "sum");
    }
    if (phase_sum != total_sum) {
      throw std::invalid_argument(
          "schema: latency_breakdown phase sums must add up to total_us.sum");
    }
  }
  // Optional trace capture summary: per-shard drops must sum to the total.
  if (doc.find("trace") != nullptr) {
    const json::Value& trace = json::require_object(doc, "trace");
    json::require_number(trace, "recorded", "trace");
    json::require_sum(trace, "per_shard_dropped", "dropped", "trace");
  }
}

namespace {

/// One sample line of the series (the header is checked by the caller).
void validate_sample(const json::Value& doc) {
  for (const char* key :
       {"vtime", "wall_us", "user_blocks", "gc_blocks", "shadow_blocks",
        "padding_blocks", "rmw_blocks", "chunks_flushed", "gc_runs",
        "free_segments", "live_shadows"}) {
    json::require_number(doc, key);
  }
  for (const char* key : {"threshold", "wa", "padding_ratio"}) {
    json::require_number_or_null(doc, key);
  }
  const json::Value& windowed = json::require_object(doc, "windowed");
  for (const char* key : {"wa", "padding_ratio", "gc_rate", "shadow_rate"}) {
    json::require_number_or_null(windowed, key, "windowed");
  }
  if (doc.find("groups") != nullptr) {
    for (const json::Value& g : json::require_array(doc, "groups").items()) {
      for (const char* key :
           {"group", "user_blocks", "gc_blocks", "shadow_blocks",
            "padding_blocks", "valid_blocks", "segments"}) {
        json::require_number(g, key, "groups");
      }
    }
  }
}

}  // namespace

std::size_t validate_series_jsonl(std::string_view text) {
  std::size_t samples = 0;
  std::uint64_t declared_rows = 0;
  bool saw_header = false;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string_view line =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                         : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_no;
    if (line.empty()) continue;
    try {
      const json::Value doc = json::parse(line);
      const std::string& type = json::require_string(doc, "type");
      if (!saw_header) {
        if (type != "header") {
          throw std::invalid_argument("first line must be the series header");
        }
        json::require_schema(doc, kSeriesSchema);
        json::require_number(doc, "window_blocks");
        json::require_number(doc, "downsamples");
        declared_rows = json::require_count(doc, "rows");
        saw_header = true;
        continue;
      }
      if (type != "sample") {
        throw std::invalid_argument("unknown row type \"" + type + '"');
      }
      validate_sample(doc);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("line " + std::to_string(line_no) + ": " +
                                  e.what());
    }
    ++samples;
  }
  if (!saw_header) throw std::invalid_argument("series has no header line");
  if (samples != declared_rows) {
    throw std::invalid_argument(
        "header declares " + std::to_string(declared_rows) +
        " rows but the stream carries " + std::to_string(samples));
  }
  return samples;
}

void write_artifact(const std::filesystem::path& path,
                    std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open " + path.string() +
                             " for writing");
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  if (name_.empty()) {
    throw std::invalid_argument("BenchReport: empty bench name");
  }
}

void BenchReport::add(std::string_view metric, Params params, double value,
                      std::string_view unit) {
  rows_.push_back(Row{std::string(metric), std::move(params), value,
                      std::string(unit)});
}

std::string BenchReport::json() const {
  std::string out;
  json::Writer w(out);
  w.begin_object()
      .field("schema", kBenchSchema)
      .field("bench", name_)
      .begin_array("rows");
  for (const Row& row : rows_) {
    w.begin_object().field("metric", row.metric).begin_object("params");
    for (const auto& [key, value] : row.params) w.field(key, value);
    w.end_object()
        .field("value", row.value)
        .field("unit", row.unit)
        .end_object();
  }
  w.end_array().end_object();
  return out;
}

std::string BenchReport::write_file(const std::string& dir) const {
  const std::filesystem::path path =
      std::filesystem::path(dir) / ("BENCH_" + name_ + ".json");
  write_artifact(path, json() + '\n');
  return path.string();
}

void validate_bench_json(std::string_view text) {
  const json::Value doc = json::parse(text);
  json::require_schema(doc, kBenchSchema);
  json::require_string(doc, "bench");
  const json::Value& rows = json::require_array(doc, "rows");
  if (rows.items().empty()) {
    throw std::invalid_argument("schema: rows must not be empty");
  }
  for (const json::Value& row : rows.items()) {
    json::require_string(row, "metric", "rows");
    json::require_string(row, "unit", "rows");
    json::require_number_or_null(row, "value", "rows");
    const json::Value& params = json::require_object(row, "params", "rows");
    for (const auto& [name, value] : params.members()) {
      if (!value.is_string()) {
        throw std::invalid_argument("schema: rows.params." + name +
                                    " must be a string");
      }
    }
  }
}

}  // namespace adapt::obs
