// TraceLog: the concrete event ring behind lss::TraceSink, plus the
// Chrome-trace exporter.
//
// One TraceLog per engine shard (sinks are not synchronised — exactly like
// Registry/LssMetrics, per-shard instances merge after the run).
// The ring holds the newest `capacity` events; older ones are overwritten
// and counted as dropped, so tracing a long run costs fixed memory. Events
// carry only the engine's deterministic clocks (vtime + simulated wall
// time), which makes the exported JSON byte-identical across repeat runs of
// the same seed.
//
// Export format: Chrome trace-event JSON ("adapt-trace-v1"), loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. pid 0 is the store; each
// shard renders as one named thread; instants carry their payload in args;
// GC runs render as complete ("X") spans whose duration is the migrated
// block count — a deliberate pseudo-duration in vtime units, chosen so
// victim quality is visible at a glance on the timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lss/trace_sink.h"

namespace adapt::obs {

inline constexpr std::string_view kTraceSchema = "adapt-trace-v1";

struct TraceLogConfig {
  /// Events retained per shard; older events are overwritten (dropped).
  std::size_t capacity = std::size_t{1} << 16;
};

class TraceLog final : public lss::TraceSink {
 public:
  explicit TraceLog(const TraceLogConfig& config = {});

  void record(const lss::TraceEvent& event) override;

  /// Total record() calls, including overwritten events.
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events lost to ring overwrite.
  std::uint64_t dropped() const noexcept {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  /// Retained events, oldest first.
  std::vector<lss::TraceEvent> events() const;

 private:
  std::vector<lss::TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::uint64_t recorded_ = 0;
};

/// Merged, shard-annotated view of one run's trace.
struct TraceData {
  struct Entry {
    lss::TraceEvent event;
    std::uint32_t shard = 0;
    std::uint64_t seq = 0;  ///< per-shard record order (post-drop)
  };
  /// Sorted by (ts, shard, seq) — a deterministic global order.
  std::vector<Entry> entries;
  std::uint32_t shard_count = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  /// Ring-overwrite losses per shard (size == shard_count; 0 for shards
  /// without a sink). Summing this must reproduce `dropped` — the exporter
  /// emits both and the validator enforces the identity.
  std::vector<std::uint64_t> per_shard_dropped;
};

/// Merges per-shard rings into one deterministic timeline. Null shard
/// pointers are skipped (a shard without tracing contributes nothing).
TraceData merge_trace_logs(const std::vector<const TraceLog*>& shards);

/// Run identity stamped into the trace's otherData block.
struct TraceMeta {
  std::string tool = "simulator";
  std::string policy;
  std::string workload;
  std::uint64_t seed = 0;
};

/// Renders `data` as Chrome trace-event JSON (schema "adapt-trace-v1").
std::string chrome_trace_json(const TraceData& data, const TraceMeta& meta);

/// Throws std::invalid_argument unless `text` is a well-formed
/// adapt-trace-v1 document (schema tag, otherData, and per-event phase /
/// clock / args requirements).
void validate_trace_json(std::string_view text);

}  // namespace adapt::obs
