#include "obs/trace_log.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/annotations.h"
#include "obs/json.h"

namespace adapt::obs {

namespace {

/// Display name, category and phase of each event kind, plus the args
/// names of its a/b/c payload fields (nullptr: the kind has no such field).
struct KindInfo {
  const char* name;
  const char* cat;
  char ph;
  const char* a;
  const char* b;
  const char* c;
};

KindInfo kind_info(lss::TraceEventKind kind) {
  using lss::TraceEventKind;
  switch (kind) {
    case TraceEventKind::kUserWrite:
      return {"user_write", "user", 'i', "lba", nullptr, nullptr};
    case TraceEventKind::kChunkFlush:
      return {"chunk_flush", "flush", 'i', "fill_blocks", "padded", "chunk"};
    case TraceEventKind::kRmwFlush:
      return {"rmw_flush", "flush", 'i', "blocks", nullptr, "chunk"};
    case TraceEventKind::kShadowAppend:
      return {"shadow_append", "aggregation", 'i', "donor", "blocks", nullptr};
    case TraceEventKind::kShadowExpire:
      return {"shadow_expire", "aggregation", 'i', "count", nullptr, nullptr};
    case TraceEventKind::kSegmentAlloc:
      return {"segment_alloc", "segment", 'i', "segment", nullptr, nullptr};
    case TraceEventKind::kSegmentSeal:
      return {"segment_seal", "segment", 'i', "segment", "valid_blocks",
              nullptr};
    case TraceEventKind::kGcRun:
      return {"gc_run", "gc", 'X', "victim", "migrated", "forced_flushes"};
    case TraceEventKind::kThresholdAdapt:
      return {"threshold_adapt", "adapt", 'i', "threshold", "adoptions",
              nullptr};
    case TraceEventKind::kGroupCommit:
      return {"group_commit", "commit", 'i', "batch_ops", "batch_blocks",
              "chunks_flushed"};
    case TraceEventKind::kLaneSubmit:
      return {"lane_submit", "device", 'i', "seq", "inflight", "admit_us"};
    case TraceEventKind::kLaneComplete:
      return {"lane_complete", "device", 'i', "seq", "service_us",
              "complete_us"};
    case TraceEventKind::kOpSubmit:
      return {"op_submit", "op", 'X', "lba", "blocks", nullptr};
    case TraceEventKind::kOpDurable:
      return {"op_durable", "op", 'X', "lba", "blocks", "durable_us"};
  }
  throw std::logic_error("unknown trace event kind");
}

/// The event's args object: wall clock, group, the kind's payload fields
/// and the flow id.
void append_args(json::Writer& w, const lss::TraceEvent& e,
                 const KindInfo& info) {
  w.begin_object("args").field("wall_us", e.wall_us);
  if (e.group != kInvalidGroup) w.field("group", e.group);
  for (const auto& [key, v] : {std::pair{info.a, e.a}, std::pair{info.b, e.b},
                               std::pair{info.c, e.c}}) {
    if (key != nullptr) w.field(key, v);
  }
  // Causal-flow correlation id (batch id in the concurrent engine). Only
  // flow participants carry it, so id-free traces render byte-identically
  // to pre-flow exports.
  if (e.id != 0) w.field("flow_id", e.id);
  w.end_object();
}

void append_metadata_event(json::Writer& w, std::uint32_t tid,
                           std::string_view meta_name,
                           std::string_view value) {
  w.begin_object()
      .field("name", meta_name)
      .field("ph", "M")
      .field("pid", 0u)
      .field("tid", tid)
      .begin_object("args")
      .field("name", value)
      .end_object()
      .end_object();
}

}  // namespace

TraceLog::TraceLog(const TraceLogConfig& config)
    : capacity_(config.capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("TraceLog: capacity must be positive");
  }
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

ADAPT_HOT void TraceLog::record(const lss::TraceEvent& event) {
  if (ring_.size() < capacity_) {
    // Grows geometrically only until the ring reaches capacity, then every
    // later record overwrites in place — steady state allocates nothing.
    ring_.push_back(event);  // ADAPT_LINT_ALLOW(hot-alloc)
  } else {
    ring_[recorded_ % capacity_] = event;
  }
  ++recorded_;
}

std::vector<lss::TraceEvent> TraceLog::events() const {
  if (recorded_ <= capacity_) return ring_;
  // The ring wrapped: the oldest retained event sits at the write cursor.
  const std::size_t cursor = recorded_ % capacity_;
  std::vector<lss::TraceEvent> out;
  out.reserve(capacity_);
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(cursor),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(cursor));
  return out;
}

TraceData merge_trace_logs(const std::vector<const TraceLog*>& shards) {
  TraceData data;
  data.shard_count = static_cast<std::uint32_t>(shards.size());
  data.per_shard_dropped.assign(data.shard_count, 0);
  for (std::uint32_t shard = 0; shard < shards.size(); ++shard) {
    const TraceLog* log = shards[shard];
    if (log == nullptr) continue;
    data.recorded += log->recorded();
    data.dropped += log->dropped();
    data.per_shard_dropped[shard] = log->dropped();
    std::uint64_t seq = 0;
    for (const lss::TraceEvent& event : log->events()) {
      data.entries.push_back(TraceData::Entry{event, shard, seq++});
    }
  }
  std::stable_sort(data.entries.begin(), data.entries.end(),
                   [](const TraceData::Entry& l, const TraceData::Entry& r) {
                     return std::tie(l.event.ts, l.shard, l.seq) <
                            std::tie(r.event.ts, r.shard, r.seq);
                   });
  return data;
}

std::string chrome_trace_json(const TraceData& data, const TraceMeta& meta) {
  std::string out;
  json::Writer w(out);
  w.begin_object()
      .field("schema", kTraceSchema)
      .field("displayTimeUnit", "ms")
      .begin_object("otherData")
      .field("tool", meta.tool)
      .field("policy", meta.policy)
      .field("workload", meta.workload)
      .field("seed", meta.seed)
      .field("shards", data.shard_count)
      .field("recorded", data.recorded)
      .field("dropped", data.dropped)
      .begin_array("per_shard_dropped");
  for (std::uint32_t shard = 0; shard < data.shard_count; ++shard) {
    w.value(shard < data.per_shard_dropped.size()
                ? data.per_shard_dropped[shard]
                : 0u);
  }
  w.end_array().end_object().begin_array("traceEvents");
  append_metadata_event(w, 0, "process_name", "adapt-lss");
  for (std::uint32_t shard = 0; shard < data.shard_count; ++shard) {
    append_metadata_event(w, shard, "thread_name",
                          "shard " + std::to_string(shard));
  }
  // Pre-pass for Perfetto flow arrows: each nonzero event id is one causal
  // flow (op -> batch -> flush -> lane). The first slice of an id starts
  // the flow ("s"), the last finishes it ("f"), everything between steps
  // it ("t") — so occurrence counts must be known before rendering.
  struct FlowCount {
    std::uint64_t total = 0;
    std::uint64_t emitted = 0;
  };
  std::unordered_map<std::uint64_t, FlowCount> flows;
  for (const TraceData::Entry& entry : data.entries) {
    if (entry.event.id != 0) ++flows[entry.event.id].total;
  }
  for (const TraceData::Entry& entry : data.entries) {
    const lss::TraceEvent& e = entry.event;
    const KindInfo info = kind_info(e.kind);
    // Flow events bind to a slice at the same pid/tid/ts, so every flow
    // participant must render as a complete span: instants carrying an id
    // are promoted to width-1 slices.
    const char ph = (e.id != 0 && info.ph == 'i') ? 'X' : info.ph;
    w.begin_object()
        .field("name", info.name)
        .field("cat", info.cat)
        .field("ph", std::string_view(&ph, 1))
        .field("pid", 0u)
        .field("tid", entry.shard)
        .field("ts", e.ts);
    if (ph == 'X') {
      // Pseudo-duration: GC runs use migrated blocks, so victim quality
      // reads directly off the span width (vtime units, like ts); every
      // other slice is nominal width 1.
      const std::uint64_t dur =
          e.kind == lss::TraceEventKind::kGcRun && e.b > 0 ? e.b : 1;
      w.field("dur", dur);
    }
    if (ph == 'i') w.field("s", "t");
    append_args(w, e, info);
    w.end_object();
    if (e.id != 0) {
      FlowCount& fc = flows[e.id];
      const char* flow_ph = fc.emitted == 0             ? "s"
                            : fc.emitted + 1 == fc.total ? "f"
                                                         : "t";
      ++fc.emitted;
      w.begin_object()
          .field("name", "op_flow")
          .field("cat", "flow")
          .field("ph", flow_ph)
          .field("pid", 0u)
          .field("tid", entry.shard)
          .field("ts", e.ts)
          .field("id", e.id)
          .begin_object("args")
          .end_object()
          .end_object();
    }
  }
  w.end_array().end_object();
  return out;
}

void validate_trace_json(std::string_view text) {
  const json::Value doc = json::parse(text);
  json::require_schema(doc, kTraceSchema);
  const json::Value& other = json::require_object(doc, "otherData");
  for (const char* key : {"tool", "policy", "workload"}) {
    json::require_string(other, key, "otherData");
  }
  for (const char* key : {"seed", "shards", "recorded"}) {
    json::require_number(other, key, "otherData");
  }
  json::require_sum(other, "per_shard_dropped", "dropped", "otherData");
  std::size_t index = 0;
  for (const json::Value& event :
       json::require_array(doc, "traceEvents").items()) {
    const std::string where = "traceEvents[" + std::to_string(index++) + "]";
    json::require_string(event, "name", where);
    const std::string& phase = json::require_string(event, "ph", where);
    const bool flow_phase = phase == "s" || phase == "t" || phase == "f";
    if (phase != "M" && phase != "i" && phase != "X" && phase != "C" &&
        !flow_phase) {
      throw std::invalid_argument("schema: " + where + " has unknown phase \"" +
                                  phase + '"');
    }
    if (flow_phase) json::require_number(event, "id", where);
    json::require_number(event, "pid", where);
    json::require_number(event, "tid", where);
    if (phase != "M") json::require_number(event, "ts", where);
    if (phase == "X") json::require_number(event, "dur", where);
    if (phase == "i") json::require_string(event, "s", where);
    json::require_object(event, "args", where);
  }
}

}  // namespace adapt::obs
