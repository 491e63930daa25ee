// Traced replay for the benchmark's per-layer ledger.
//
// The traced run rebuilds the single-shard lss::ShardedEngine that
// sim::run_volume builds for the "adapt" policy, but its shard factory wraps
// the core::AdaptPolicy (placement policy + aggregation hook) and the
// lss::VictimPolicy in forwarding proxies that time every call into them.
// The replay loop times each ShardedEngine::write/read, so every span is
// taken from outside the library, at a layer's public interface; nothing in
// src/ knows it is being traced.
//
// sim::run_volume first queues every request (ShardedEngine::enqueue_*) and
// then replays the queue. The traced replay builds the same queue, timed as
// the sim.queue root span, but then calls write/read per record itself so
// that each record is a span of its own; the queue it built is left
// undrained and freed with the engine.
//
// Spans nest: a record's root span (lss.write / lss.read, or lss.flush for
// the final drain) contains the placement, victim and GC spans the engine
// made while serving it. A GC span runs from VictimPolicy::select to the
// on_free of the victim it returned. A layer's self time is its span time
// minus the time of the spans directly inside it, so the self times of all
// layers add up to the root spans, and the replay wall minus the roots is
// what no layer explains.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "array/ssd_array.h"
#include "common/types.h"
#include "lss/metrics.h"
#include "sim/simulator.h"
#include "trace/record.h"

namespace perfbench {

enum class Span : std::uint8_t {
  kSimQueue,        ///< root: queueing the volume's requests
  kLssWrite,        ///< root: one ShardedEngine::write
  kLssRead,         ///< root: one ShardedEngine::read
  kLssFlush,        ///< root: the end-of-volume flush_all
  kGc,              ///< VictimPolicy::select .. on_free of that victim
  kVictimSelect,    ///< VictimPolicy::select
  kVictimNotify,    ///< on_seal / on_valid_delta / on_free
  kAdaptPlaceUser,  ///< PlacementPolicy::place_user_write
  kAdaptPlaceGc,    ///< PlacementPolicy::place_gc_rewrite
  kAdaptDeadline,   ///< AggregationHook::on_chunk_deadline
  kAdaptNotify,     ///< note_segment_sealed / note_segment_reclaimed
  kCount
};

const char* span_name(Span s);

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// In-memory span recorder. Self times are folded into per-name totals as
/// each span closes, so the ledger covers every span of the run; the full
/// spans (name, record index, start, end, parent) of a window of records
/// are also kept and written out at the end.
class SpanRecorder {
 public:
  SpanRecorder() { stack_.reserve(16); }

  /// Keeps the spans of records [first, first + count).
  void keep(std::uint64_t first, std::uint64_t count) noexcept {
    keep_first_ = first;
    keep_end_ = first + count;
  }

  void begin_record(std::uint64_t index) noexcept { record_ = index; }
  void open(Span s);
  /// Closes the innermost open span and returns its duration in ns.
  std::uint64_t close();
  /// Closes a root span and any span a layer left open inside it; returns
  /// the root's duration. Spans left open are counted in unbalanced().
  std::uint64_t close_root();

  const SpanTotals& totals(Span s) const {
    return totals_[static_cast<std::size_t>(s)];
  }
  std::uint64_t unbalanced() const noexcept { return unbalanced_; }

  /// Kept spans as a Chrome trace (one "X" event each, args.record and
  /// args.parent carry the record index and parent span index).
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Frame {
    Span name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t kept;  ///< index into kept_, or -1
  };
  struct Kept {
    Span name;
    std::uint64_t record;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
  };

  std::uint64_t keep_first_ = 0;
  std::uint64_t keep_end_ = 0;
  std::uint64_t record_ = 0;
  std::uint64_t unbalanced_ = 0;
  std::vector<Frame> stack_;
  std::vector<Kept> kept_;
  std::array<SpanTotals, static_cast<std::size_t>(Span::kCount)> totals_{};
};

/// What one traced volume replay produced.
struct TracedVolume {
  adapt::lss::LssMetrics metrics;
  adapt::array::StreamStats array_totals;
  std::vector<std::uint32_t> segments_per_group;
  std::size_t policy_memory_bytes = 0;
  std::uint64_t pending_blocks = 0;
  double replay_seconds = 0.0;  ///< queue build + replay loop + flush_all
  std::uint64_t demotions = 0;
  std::uint64_t shadow_decisions = 0;
  std::uint64_t pad_decisions = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t sampled_writes = 0;
  /// Standalone ThresholdAdapter re-fed the captured (lba, vtime) stream.
  std::uint64_t adapter_calls = 0;
  double adapter_seconds = 0.0;
  std::uint64_t adapter_adoptions = 0;
  std::uint64_t adapter_sampled_writes = 0;
};

/// Replays `volume` under ADAPT through proxies, mirroring run_volume's
/// single-shard engine, geometry and request clamping. `user_blocks` is the
/// number of blocks the volume writes after that clamp. Record i is keyed
/// `record_base + i` in the recorder. Appends the duration of every
/// lss.write root span to `write_ns`.
TracedVolume run_traced(const adapt::trace::Volume& volume,
                        const adapt::sim::SimConfig& config,
                        std::uint64_t user_blocks, SpanRecorder& recorder,
                        std::uint64_t record_base,
                        std::vector<std::uint64_t>& write_ns);

/// Names the first deterministic counter on which the two runs differ, or
/// returns an empty string when every one matches (host-clock fields such
/// as gc_pause_us are not compared).
std::string counter_mismatch(const adapt::sim::VolumeResult& untraced,
                             const TracedVolume& traced);

}  // namespace perfbench
