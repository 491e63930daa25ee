// Group-commit front-end: the concurrent write path of one LssEngine.
//
// The prototype's live concurrent write path. ConcurrentEngine owns a
// ShardedEngine — one engine plus its placement/victim stack
// (lss/sharded_engine.h) — and adds only the concurrent intake around it:
// one FIFO writer queue shaped like LevelDB's DBImpl::Write (the
// writer-group pattern of SNIPPETS.md #2/#3). Client threads queue up,
// and the thread at the head of the queue — the *group leader* — applies
// everything queued behind it against the engine in one critical section.
//
//   1. enqueue: a writer appends its stack-owned ticket to the queue under
//               queue_mu_ and waits on the ticket's condvar until it is
//               completed or reaches the head.
//   2. apply:   the head captures the batch [itself .. tail], takes the
//               engine mutex mu_ once, and applies every ticket oldest
//               first — so the linearized order is exactly arrival order.
//               queue_mu_ is not held meanwhile, so writers that arrive
//               during the apply queue up behind the batch.
//   3. durable: outside mu_, the leader submits the batch's drained flush
//               records to the device model and stamps the modeled
//               durable time into every ticket of the batch, so each op —
//               leader and followers alike — waits out its own share of
//               the coalesced flush on its own thread (see
//               set_device_model).
//   4. exit:    under queue_mu_, the leader marks each follower kCompleted
//               — or kAborted from the first ticket the engine failed to
//               apply — wakes it, pops the batch, and wakes the new head,
//               which leads the next batch.
//
// Lifetime rule: a follower unwinds only after reading its terminal state
// under queue_mu_, so the leader may touch follower tickets until it marks
// them terminal, and while it holds that mutex.
//
// Determinism contract (the oracle): the engine's final state is a pure
// function of its (op, lba, blocks, ts) sequence. The leader records every
// applied op — user writes, GC steps that did work, and the final drain —
// in apply order while holding the engine mutex. Replaying that recorded
// log through a fresh serial engine built from the same factory and seed
// must reproduce the concurrent engine's final state and deterministic
// metrics bit-exactly; tests/concurrent_commit_test.cpp proves it. Thread
// scheduling may change *which* order gets recorded, never whether the
// recorded order explains the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"
#include "common/types.h"
#include "lss/engine.h"
#include "lss/op_timeline.h"
#include "lss/sharded_engine.h"

namespace adapt::lss {

/// Thrown by ConcurrentEngine::write on a thread whose op was NOT applied
/// because the batch leader's engine apply threw earlier in the batch (the
/// original exception surfaces on the leader's own thread). Ops already
/// applied before the failure still complete normally — at-most-once
/// semantics per op, never silent loss.
class WriteAborted : public std::runtime_error {
 public:
  WriteAborted()
      : std::runtime_error(
            "group commit aborted: the batch leader's engine apply failed "
            "before this op was applied") {}
};

/// One op in the engine's linearized log, recorded by the leader in apply
/// order. Replaying the log serially reproduces the engine bit-exactly.
struct RecordedOp {
  enum class Kind : std::uint8_t { kWrite, kGcStep, kFlushAll };
  Kind kind = Kind::kWrite;
  Lba lba = 0;               ///< kWrite
  std::uint32_t blocks = 0;  ///< kWrite
  TimeUs ts_us = 0;          ///< monotonised timestamp actually applied
  std::uint32_t watermark = 0;  ///< kGcStep
};

/// Group-commit counters.
struct GroupCommitStats {
  std::uint64_t groups = 0;     ///< batches led
  std::uint64_t ops = 0;        ///< tickets applied across all batches
  std::uint64_t max_batch = 0;  ///< largest single batch (tickets)
};

/// The concurrent front-end of one engine: a writer queue whose head leads
/// the next batch, an engine mutex, a monotonised clock, a flush
/// collector, an op log, a trace sink and batching stats.
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

  /// Submits one batch's drained flush records to a device model (e.g.
  /// DeviceLanes::submit) and returns the modeled FlushOutcome: the time
  /// at which the LAST of them is durable plus that flush's pure device
  /// service time (splitting lane queueing from media time in the phase
  /// breakdown). Called by the batch leader OUTSIDE the engine lock; must
  /// be thread-safe.
  using FlushSubmitFn =
      std::function<FlushOutcome(const std::vector<PendingFlush>& flushes)>;
  /// Blocks the calling op's thread until the modeled durable time (e.g.
  /// the prototype sleeps the gap between its wall clock and durable_us).
  /// Called once per non-aborted op whose batch flushed, on that op's own
  /// thread; must be thread-safe.
  using DurableWaitFn = std::function<void(TimeUs durable_us)>;

  /// Device-model hooks. The leader submits the batch's flushes once
  /// (outside the engine lock, before follower completions are published)
  /// and stamps the returned durable time into every ticket of the batch;
  /// each op then runs `wait` on its OWN thread. Leader and follower
  /// submit→durable latencies therefore both include their share of the
  /// coalesced flush (the follower-latency regression test in
  /// tests/concurrent_commit_test.cpp pins it). Set both hooks before the
  /// first write, or neither.
  void set_device_model(FlushSubmitFn submit, DurableWaitFn wait) {
    flush_submit_ = std::move(submit);
    durable_wait_ = std::move(wait);
  }

  /// Attaches a trace sink (engine events + kGroupCommit batch events +
  /// per-op kOpSubmit/kOpDurable lifecycle events). Emission happens under
  /// the engine lock, so an unsynchronised ring is safe.
  void set_trace_sink(TraceSink* sink);

  /// Installs a live-stats hook called by every batch leader right after
  /// the batch's durable time is known (outside the engine lock) with that
  /// batch's BatchSample. Calls never overlap (the next batch's leader
  /// starts after this one returns), but each runs on its batch leader's
  /// thread. Set before the first write, like set_device_model;
  /// nullptr-able by assigning {}.
  void set_batch_hook(std::function<void(const BatchSample&)> hook) {
    batch_hook_ = std::move(hook);
  }

  /// Thread-safe group-commit write of `blocks` consecutive blocks at
  /// `lba`. Throws std::out_of_range, queueing nothing, when the span
  /// passes the logical capacity. Returns once the op has been applied and
  /// has waited once for the modeled durable time of its batch (its
  /// durable share of the coalesced flush). Failure contract: if the
  /// engine throws while a leader applies a batch, the leader's thread
  /// rethrows the engine's exception, and every caller whose op was NOT
  /// applied (the failing op and everything queued after it in that
  /// batch) throws WriteAborted instead of returning success — an op that
  /// returns normally was applied, an op that throws was not
  /// (at-most-once).
  void write(Lba lba, std::uint32_t blocks, TimeUs submit_us);

  /// Thread-safe proactive GC pass. Returns true when the pass migrated
  /// work (and was therefore recorded in the log). When `flushes` is
  /// non-null it receives the drained flush records of the pass, so the GC
  /// thread can submit them to the device model itself (a GC pass has no
  /// write tickets to stamp).
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

  /// Phase-attributed latency over every committed batch (virtual-time
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
  /// One queued op, owned by the submitting thread's stack (defined in
  /// group_commit.cpp next to the queue protocol).
  struct WriteTicket;

  /// Queues `t` and returns once its batch has committed: leads the batch
  /// when `t` reaches the head of the queue, otherwise waits for the
  /// leader's verdict. Returns the durable time `t` owes (0 when it was
  /// aborted or its batch flushed nothing); stores the leader's engine
  /// exception, or WriteAborted, into `error`.
  TimeUs commit(WriteTicket& t, std::exception_ptr& error);

  /// Leader protocol over the batch [leader .. last]: apply under the
  /// engine lock, drain the batch's flush records, submit them to the
  /// device model OUTSIDE the lock, stamp the modeled durable time into
  /// every batch ticket, then complete the followers and pop the batch.
  /// The durable WAIT must NOT happen here — each op (this leader
  /// included) runs it from write() on its own thread, or every follower
  /// would serialize behind the leader's sleep.
  void lead(WriteTicket* leader, WriteTicket* last);

  bool record_ops_ = true;
  FlushSubmitFn flush_submit_;
  DurableWaitFn durable_wait_;
  std::function<void(const BatchSample&)> batch_hook_;
  ShardedEngine sharded_;

  /// Guards the writer queue: head/tail and every queued ticket's `next`
  /// and `state`. Separate from `mu_` and never held while a batch
  /// applies, so writers keep queueing behind the running batch.
  Mutex queue_mu_;
  WriteTicket* head_ ADAPT_GUARDED_BY(queue_mu_) = nullptr;  ///< leader
  WriteTicket* tail_ ADAPT_GUARDED_BY(queue_mu_) = nullptr;  ///< newest
  /// The engine mutex: held by the current leader for the apply, by GC
  /// passes, and by the observers.
  mutable Mutex mu_;
  /// The engine, owned by `sharded_`.
  LssEngine* const engine_ ADAPT_PT_GUARDED_BY(mu_);
  TimeUs last_ts_ ADAPT_GUARDED_BY(mu_) = 0;
  /// Flush records appended by the engine's chunk writer (the collector
  /// attached in the ctor) since the last drain. Every batch and GC pass
  /// drains it while still holding the engine lock, so it holds at most
  /// one batch's worth of records.
  std::vector<PendingFlush> flushes_ ADAPT_GUARDED_BY(mu_);
  std::vector<RecordedOp> log_ ADAPT_GUARDED_BY(mu_);
  TraceSink* sink_ ADAPT_GUARDED_BY(mu_) = nullptr;
  /// Monotone batch counter; the traced batch's nonzero causal-flow id.
  std::uint64_t batch_seq_ ADAPT_GUARDED_BY(mu_) = 0;
  /// Batching counters and phase-attributed latency of the committed
  /// batches. Guarded by their own mutex (not `mu_`) so stats export never
  /// contends the apply path's critical section.
  mutable Mutex stats_mu_;
  GroupCommitStats stats_ ADAPT_GUARDED_BY(stats_mu_);
  LatencyBreakdown breakdown_ ADAPT_GUARDED_BY(stats_mu_);
};

}  // namespace adapt::lss
