// Concurrent front-end: the prototype's live concurrent write path over
// one LssEngine. ConcurrentEngine owns a ShardedEngine — one engine plus
// its placement/victim stack (lss/sharded_engine.h) — and adds only the
// concurrent intake around it. Each write commits on its own thread under
// the engine mutex mu_:
//
//   1. check:   the span is checked against the logical capacity.
//   2. apply:   under mu_, the write is applied at its monotonised
//               timestamp, appended to the op log, and the flush records
//               it tipped are drained from the collector.
//   3. durable: outside mu_, the writer submits its own flushes to the
//               device model, records its stats and latency phases, and
//               waits out its own durable time (see set_device_model).
//
// Writes are not batched. A writer group (LevelDB's DBImpl::Write,
// SNIPPETS.md #2/#3) pays off when its members share one log write; here
// every flushed chunk is its own lane submission, so the members of a
// batch would share nothing, and measured batches on the prototype's
// workloads held 1.01 writes on average (DESIGN.md, "Concurrent
// front-end").
//
// Determinism contract (the oracle): the engine's final state is a pure
// function of its (op, lba, blocks, ts) sequence. Every applied op — user
// writes, GC steps that did work, and the final drain — is recorded while
// holding the engine mutex, so the order mu_ was granted in is the
// linearization. Replaying that recorded log through a fresh serial engine
// built from the same factory and seed must reproduce the concurrent
// engine's final state and deterministic metrics bit-exactly;
// tests/concurrent_commit_test.cpp proves it. Thread scheduling may change
// *which* order gets recorded, never whether the recorded order explains
// the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"
#include "common/types.h"
#include "lss/engine.h"
#include "lss/op_timeline.h"
#include "lss/sharded_engine.h"

namespace adapt::lss {

/// One op in the engine's linearized log, recorded under the engine mutex
/// in apply order. Replaying the log serially reproduces the engine
/// bit-exactly.
struct RecordedOp {
  enum class Kind : std::uint8_t { kWrite, kGcStep, kFlushAll };
  Kind kind = Kind::kWrite;
  Lba lba = 0;               ///< kWrite
  std::uint32_t blocks = 0;  ///< kWrite
  TimeUs ts_us = 0;          ///< monotonised timestamp actually applied
  std::uint32_t watermark = 0;  ///< kGcStep
};

/// Commit counters. Every commit holds one write, so `groups == ops` and
/// `max_batch` is 1 once a write has committed; the two fields stay for
/// the readers that still report batch sizes (ROADMAP.md item 5).
struct GroupCommitStats {
  std::uint64_t groups = 0;     ///< commits (one write each)
  std::uint64_t ops = 0;        ///< writes committed
  std::uint64_t max_batch = 0;  ///< writes in the largest commit
};

/// The concurrent front-end of one engine: an engine mutex, a monotonised
/// clock, a flush collector, an op log, a trace sink and commit stats.
///
/// write() and gc_step() are thread-safe. The observers (metrics,
/// recorded_ops, ...) take the engine mutex but are meant for a quiesced
/// engine — call them after joining the client threads.
class ConcurrentEngine {
 public:
  /// Builds the engine over `config` from `factory`, seeded with `seed`.
  /// `record_ops` keeps the linearized op log for the differential oracle;
  /// benches turn it off to avoid the append cost.
  ConcurrentEngine(const LssConfig& config, std::uint64_t seed,
                   const ShardFactory& factory, bool record_ops = true);

  ConcurrentEngine(const ConcurrentEngine&) = delete;
  ConcurrentEngine& operator=(const ConcurrentEngine&) = delete;

  const LssConfig& config() const noexcept { return sharded_.config(); }

  /// Submits one write's drained flush records to a device model (e.g.
  /// DeviceLanes::submit) and returns the modeled FlushOutcome: the time
  /// at which the LAST of them is durable plus that flush's pure device
  /// service time (splitting lane queueing from media time in the phase
  /// breakdown). Called by the writer OUTSIDE the engine lock; must be
  /// thread-safe.
  using FlushSubmitFn =
      std::function<FlushOutcome(const std::vector<PendingFlush>& flushes)>;
  /// Blocks the calling op's thread until the modeled durable time (e.g.
  /// the prototype sleeps the gap between its wall clock and durable_us).
  /// Called once per committed write that flushed, on that write's own
  /// thread; must be thread-safe.
  using DurableWaitFn = std::function<void(TimeUs durable_us)>;

  /// Device-model hooks. Each write submits the flushes it tipped (outside
  /// the engine lock) and runs `wait` for their durable time on its own
  /// thread, so every write's submit→durable latency includes the device
  /// time of the flushes it caused (tests/concurrent_commit_test.cpp pins
  /// it). Set both hooks before the first write, or neither.
  void set_device_model(FlushSubmitFn submit, DurableWaitFn wait) {
    flush_submit_ = std::move(submit);
    durable_wait_ = std::move(wait);
  }

  /// Attaches a trace sink (engine events + one kGroupCommit event per
  /// write + per-op kOpSubmit/kOpDurable lifecycle events). Emission
  /// happens under the engine lock, so an unsynchronised ring is safe.
  void set_trace_sink(TraceSink* sink);

  /// Installs a live-stats hook called once per committed write, right
  /// after its durable time is known (outside the engine lock), with a
  /// one-op BatchSample. Calls from different writers may overlap, so the
  /// hook must be thread-safe. Set before the first write, like
  /// set_device_model; nullptr-able by assigning {}.
  void set_batch_hook(std::function<void(const BatchSample&)> hook) {
    batch_hook_ = std::move(hook);
  }

  /// Thread-safe write of `blocks` consecutive blocks at `lba`. Throws
  /// std::out_of_range, touching nothing, when the span passes the logical
  /// capacity. Returns once the write has been applied and has waited for
  /// the modeled durable time of the flushes it tipped. If the engine
  /// throws, the exception reaches this caller alone: the write is not
  /// logged or counted, and no other write is affected.
  void write(Lba lba, std::uint32_t blocks, TimeUs submit_us);

  /// Thread-safe proactive GC pass. Returns true when the pass migrated
  /// work (and was therefore recorded in the log). When `flushes` is
  /// non-null it receives the drained flush records of the pass, so the GC
  /// thread can submit them to the device model itself.
  bool gc_step(TimeUs now_us, std::uint32_t watermark,
               std::vector<PendingFlush>* flushes = nullptr);

  /// Quiesced-only: pads out every partial chunk and records the drain in
  /// the log.
  void flush_all();

  // -- quiesced observers ---------------------------------------------------
  // Each holds the engine mutex while it reads the engine.

  LssMetrics metrics() const;
  std::uint64_t pending_blocks() const;
  std::size_t policy_memory_bytes() const;
  std::size_t engine_memory_bytes() const;
  void check_invariants(audit::Level level) const;

  GroupCommitStats stats() const;

  /// Phase-attributed latency over every committed write (virtual-time
  /// microseconds; see lss/op_timeline.h for the identity). Takes the
  /// stats mutex, not the engine lock — safe to call concurrently with
  /// writers, though meant for post-run export.
  LatencyBreakdown latency_breakdown() const;

  /// Copy of the linearized op log (empty when record_ops=false).
  std::vector<RecordedOp> recorded_ops() const;

  /// Read-only access to the engine for final-state comparison.
  /// Quiesced-only: deliberately bypasses the engine lock (the analysis
  /// cannot express "all writers joined").
  const LssEngine& engine_for_inspection() const { return sharded_.shard(0); }

  /// Serial oracle replay: applies `log` to `engine` exactly as the
  /// concurrent path recorded it. The engine must be freshly built from
  /// the same factory, config, and seed as the one that produced the log.
  static void replay_log(LssEngine& engine,
                         const std::vector<RecordedOp>& log);

 private:
  bool record_ops_ = true;
  FlushSubmitFn flush_submit_;
  DurableWaitFn durable_wait_;
  std::function<void(const BatchSample&)> batch_hook_;
  ShardedEngine sharded_;

  /// The engine mutex: held by each write for its apply, by GC passes,
  /// and by the observers.
  mutable Mutex mu_;
  /// The engine, owned by `sharded_`.
  LssEngine* const engine_ ADAPT_PT_GUARDED_BY(mu_);
  TimeUs last_ts_ ADAPT_GUARDED_BY(mu_) = 0;
  /// Flush records appended by the engine's chunk writer (the collector
  /// attached in the ctor) since the last drain. Every write and GC pass
  /// drains it while still holding the engine lock, so it holds at most
  /// one op's worth of records.
  std::vector<PendingFlush> flushes_ ADAPT_GUARDED_BY(mu_);
  std::vector<RecordedOp> log_ ADAPT_GUARDED_BY(mu_);
  TraceSink* sink_ ADAPT_GUARDED_BY(mu_) = nullptr;
  /// Monotone commit counter; the traced write's nonzero causal-flow id.
  std::uint64_t commit_seq_ ADAPT_GUARDED_BY(mu_) = 0;
  /// Commit counters and phase-attributed latency of the committed writes.
  /// Guarded by their own mutex (not `mu_`) so recording them never
  /// lengthens the engine's critical section.
  mutable Mutex stats_mu_;
  GroupCommitStats stats_ ADAPT_GUARDED_BY(stats_mu_);
  LatencyBreakdown breakdown_ ADAPT_GUARDED_BY(stats_mu_);
};

}  // namespace adapt::lss
