#include "lss/group_commit.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::lss {

ConcurrentEngine::ConcurrentEngine(const LssConfig& config,
                                   std::uint32_t shard_count,
                                   std::uint64_t base_seed,
                                   const ShardFactory& factory,
                                   bool record_ops)
    : record_ops_(record_ops),
      sharded_(config, shard_count, base_seed, factory) {
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    LockGuard g(shard->mu);
    shard->engine = &sharded_.shard(i);
    // Apply/durable split: every flush the engine performs is recorded in
    // the shard's collector; lead() and gc_step() drain it under the shard
    // lock and model durability outside.
    shard->engine->set_flush_collector(&shard->flushes);
    shards_.push_back(std::move(shard));
  }
}

/// Holds every shard's engine mutex, taken in index order. No other path
/// holds two `mu`s, so this order cannot deadlock. The analysis cannot
/// name a lock set sized at run time, hence the escape hatches.
class ConcurrentEngine::AllShardsLock {
 public:
  explicit AllShardsLock(const ConcurrentEngine& engine)
      ADAPT_NO_THREAD_SAFETY_ANALYSIS : shards_(engine.shards_) {
    for (const std::unique_ptr<Shard>& sh : shards_) sh->mu.lock();
  }
  ~AllShardsLock() ADAPT_NO_THREAD_SAFETY_ANALYSIS {
    for (const std::unique_ptr<Shard>& sh : shards_) sh->mu.unlock();
  }

  AllShardsLock(const AllShardsLock&) = delete;
  AllShardsLock& operator=(const AllShardsLock&) = delete;

 private:
  const std::vector<std::unique_ptr<Shard>>& shards_;
};

void ConcurrentEngine::set_trace_sink(std::uint32_t i, TraceSink* sink) {
  Shard& sh = *shards_.at(i);
  LockGuard g(sh.mu);
  sh.sink = sink;
  sh.engine->set_trace_sink(sink);
}

/// One queued sub-op. Lives on the submitting thread's stack for the
/// duration of write(); the queue links tickets, never owns them (see the
/// lifetime rule in group_commit.h).
struct ConcurrentEngine::WriteTicket {
  enum class State : std::uint8_t { kQueued, kCompleted, kAborted };

  WriteTicket(Lba lba_in, std::uint32_t blocks_in, TimeUs submit_in) noexcept
      : lba(lba_in), blocks(blocks_in), submit_us(submit_in) {}

  WriteTicket(const WriteTicket&) = delete;
  WriteTicket& operator=(const WriteTicket&) = delete;

  Lba lba;                  ///< shard-local address
  std::uint32_t blocks;
  TimeUs submit_us;         ///< simulated submit timestamp (monotonised
                            ///< per shard by the leader before applying)
  /// Modeled durable time of this op's batch, stamped by the leader before
  /// it marks the ticket terminal. 0 when the batch flushed nothing.
  TimeUs durable_us = 0;
  /// The per-shard-monotonised timestamp the leader applied this op at —
  /// the op's "joined" milestone for the phase breakdown.
  TimeUs joined_us = 0;
  // Guarded by the shard's queue_mu. The leader reads `next` without it
  // only inside its captured batch, whose links no writer changes again.
  WriteTicket* next = nullptr;   ///< next newer ticket in the queue
  State state = State::kQueued;  ///< set terminal by the batch leader
  CondVar cv;                    ///< waited on with queue_mu held
};

void ConcurrentEngine::write(Lba lba, std::uint32_t blocks, TimeUs submit_us) {
  // A request is tiny next to a shard, so almost every op is one sub-span;
  // one that crosses a boundary commits one shard after another and stops
  // at the first sub-span that fails (see the header).
  TimeUs durable_us = 0;
  std::exception_ptr error;
  sharded_.for_each_subspan(
      lba, blocks, [&](std::uint32_t s, Lba local, std::uint32_t count) {
        if (error != nullptr) return;
        WriteTicket t(local, count, submit_us);
        durable_us = std::max(durable_us, commit(*shards_[s], t, error));
      });
  // Wait out this op's share of its batches' coalesced flushes on THIS
  // thread, once, for the latest durable time — the leaders stamped it
  // into every ticket before completing them.
  if (durable_wait_ && durable_us > 0) durable_wait_(durable_us);
  if (error != nullptr) std::rethrow_exception(error);
}

TimeUs ConcurrentEngine::commit(Shard& sh, WriteTicket& t,
                                std::exception_ptr& error) {
  WriteTicket* last = nullptr;
  WriteTicket::State state = WriteTicket::State::kQueued;
  {
    LockGuard q(sh.queue_mu);
    if (sh.tail == nullptr) {
      sh.head = &t;
    } else {
      sh.tail->next = &t;
    }
    sh.tail = &t;
    while (t.state == WriteTicket::State::kQueued && sh.head != &t) {
      t.cv.wait(sh.queue_mu, q);
    }
    state = t.state;
    // At the head and not yet committed: lead everything queued so far.
    if (state == WriteTicket::State::kQueued) last = sh.tail;
  }
  if (last != nullptr) {
    try {
      lead(sh, &t, last);
    } catch (...) {
      error = std::current_exception();
    }
  } else if (state == WriteTicket::State::kAborted) {
    // Some earlier op in our batch made the leader's engine apply throw;
    // this op was never applied and owes no device time. The leader
    // rethrows the original exception on its own thread — here, surface
    // the loss instead of returning success.
    error = std::make_exception_ptr(WriteAborted{});
    return 0;
  }
  return t.durable_us;
}

void ConcurrentEngine::lead(Shard& sh, WriteTicket* leader,
                            WriteTicket* last) {
  std::uint64_t batch_ops = 0;
  std::uint64_t batch_blocks = 0;
  std::uint64_t flushed_delta = 0;
  std::vector<PendingFlush> flushes;
  std::exception_ptr error;
  // First ticket whose op did NOT apply because the engine threw; it and
  // everything queued after it get marked kAborted so their write() calls
  // fail instead of silently reporting lost writes as durable.
  WriteTicket* aborted_from = nullptr;
  // Applied milestone of the batch: the shard clock after the last applied
  // op (batch-granular — ops in one batch share the apply timestamp).
  TimeUs applied_us = 0;
  // Nonzero only while tracing: (shard << 40) | per-shard batch counter,
  // the causal-flow id correlating this batch's op, flush and lane events.
  std::uint64_t flow_id = 0;
  {
    LockGuard g(sh.mu);
    const std::uint64_t chunks_before = sh.engine->chunks_flushed();
    if (sh.sink != nullptr) {
      flow_id = (std::uint64_t{sh.index} << 40) | ++sh.batch_seq;
      sh.engine->set_flow_id(flow_id);
    }
    WriteTicket* w = leader;
    try {
      for (;; w = w->next) {
        // Engine timestamps must be monotone per shard; arrival order and
        // submit-clock order can disagree under contention, so clamp. The
        // clamped value is what gets recorded — replay needs the ts that
        // was actually applied, not the one the client intended.
        const TimeUs ts = std::max(sh.last_ts, w->submit_us);
        sh.last_ts = ts;
        sh.engine->write(w->lba, w->blocks, ts);
        w->joined_us = ts;
        if (record_ops_) {
          sh.log.push_back(
              RecordedOp{RecordedOp::Kind::kWrite, w->lba, w->blocks, ts, 0});
        }
        if (sh.sink != nullptr) {
          emit(sh.sink, TraceEvent{TraceEventKind::kOpSubmit,
                                   static_cast<GroupId>(sh.index),
                                   sh.engine->vtime(), ts, w->lba, w->blocks,
                                   0, flow_id});
        }
        ++batch_ops;
        batch_blocks += w->blocks;
        if (w == last) break;
      }
    } catch (...) {
      // Keep the protocol alive on engine failure: followers must still be
      // released — the applied prefix completes normally, the rest aborts
      // (the original exception rethrows on this, the leader's, thread).
      error = std::current_exception();
      aborted_from = w;
    }
    applied_us = sh.last_ts;
    flushed_delta = sh.engine->chunks_flushed() - chunks_before;
    // Drain the flush records this batch appended while still holding the
    // lock; the device submit happens OUTSIDE the critical section so the
    // next batch can apply while this one's durability is being modeled.
    if (!sh.flushes.empty()) {
      if (flush_submit_) {
        flushes.swap(sh.flushes);
      } else {
        sh.flushes.clear();
      }
    }
    if (sh.sink != nullptr) {
      emit(sh.sink,
           TraceEvent{TraceEventKind::kGroupCommit,
                      static_cast<GroupId>(sh.index), sh.engine->vtime(),
                      sh.last_ts, batch_ops, batch_blocks, flushed_delta,
                      flow_id});
    }
  }
  // Model durability outside every lock. Even a batch that failed mid-way
  // submits: the applied prefix's flushes hit the device before the engine
  // threw, and their modeled time must not vanish from the timeline.
  FlushOutcome outcome;
  if (flush_submit_ && !flushes.empty()) {
    outcome = flush_submit_(sh.index, flushes);
  }
  const TimeUs durable_us = outcome.durable_us;
  // Walk the batch BEFORE any ticket is marked terminal: followers cannot
  // unwind until then, and the queue_mu hand-off below makes the durable
  // stamp visible to them. Aborted tickets get stamped too (harmless —
  // their write() skips the wait) but are excluded from the phase
  // breakdown: they were never applied, so they have no lifecycle to
  // attribute.
  LatencyBreakdown batch_lat;
  {
    bool aborted = false;
    for (WriteTicket* w = leader;; w = w->next) {
      if (w == aborted_from) aborted = true;
      if (durable_us > 0) w->durable_us = durable_us;
      if (!aborted) {
        batch_lat.add_op(w->submit_us, w->joined_us, applied_us, durable_us,
                         outcome.service_us);
      }
      if (w == last) break;
    }
  }
  {
    LockGuard g(sh.stats_mu);
    ++sh.stats.groups;
    sh.stats.ops += batch_ops;
    sh.stats.max_batch = std::max(sh.stats.max_batch, batch_ops);
    sh.breakdown.merge_from(batch_lat);
  }
  if (batch_ops > 0 && batch_hook_) {
    batch_hook_(BatchSample{sh.index, batch_ops, batch_blocks, batch_lat});
  }
  // Emit per-op durability events under the re-acquired shard lock (the
  // per-shard ring is unsynchronised); no ticket is terminal yet, so every
  // one is alive. Traced runs pay this second lock hop; untraced runs skip
  // it entirely.
  if (flow_id != 0 && durable_us > 0) {
    LockGuard g(sh.mu);
    bool aborted = false;
    for (WriteTicket* w = leader;; w = w->next) {
      if (w == aborted_from) aborted = true;
      if (!aborted && sh.sink != nullptr) {
        emit(sh.sink, TraceEvent{TraceEventKind::kOpDurable,
                                 static_cast<GroupId>(sh.index),
                                 sh.engine->vtime(), durable_us, w->lba,
                                 w->blocks, durable_us, flow_id});
      }
      if (w == last) break;
    }
  }
  // Complete the batch and hand off leadership: mark each follower
  // terminal and wake it, pop the batch, and wake the new head, which
  // leads the next batch. A woken follower must reacquire queue_mu before
  // it can read its state and unwind, so its ticket stays alive for as
  // long as this block holds the mutex. Each op runs its own durable wait
  // after it is completed, so completions never wait on the modeled flush.
  {
    LockGuard q(sh.queue_mu);
    bool aborted = (aborted_from == leader);
    for (WriteTicket* w = leader; w != last;) {
      w = w->next;
      if (w == aborted_from) aborted = true;
      w->state = aborted ? WriteTicket::State::kAborted
                         : WriteTicket::State::kCompleted;
      w->cv.notify_one();
    }
    sh.head = last->next;
    if (sh.head == nullptr) {
      sh.tail = nullptr;
    } else {
      sh.head->cv.notify_one();
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
}

bool ConcurrentEngine::gc_step(std::uint32_t i, TimeUs now_us,
                               std::uint32_t watermark,
                               std::uint64_t* flushed_chunks,
                               std::vector<PendingFlush>* flushes) {
  Shard& sh = *shards_.at(i);
  LockGuard g(sh.mu);
  // GC flushes are not part of any batch's causal flow; clear the stale
  // flow id a previous traced batch left on the engine.
  if (sh.sink != nullptr) sh.engine->set_flow_id(0);
  const TimeUs ts = std::max(sh.last_ts, now_us);
  const std::uint64_t chunks_before = sh.engine->chunks_flushed();
  // A false step mutates nothing (GcController::step checks the watermark
  // before run_once), so only steps that worked enter the linearized log.
  if (!sh.engine->gc_step(ts, watermark)) {
    if (flushed_chunks != nullptr) *flushed_chunks = 0;
    return false;
  }
  if (flushed_chunks != nullptr) {
    *flushed_chunks = sh.engine->chunks_flushed() - chunks_before;
  }
  // Hand the pass's flush records to the GC thread (it submits them to the
  // device model itself — there are no write tickets to stamp); drained
  // either way so the collector never grows across passes.
  if (flushes != nullptr) {
    // Swap (after clearing the caller's scratch) instead of copying: the
    // shard inherits the scratch vector's capacity, so a GC loop reusing
    // one vector allocates nothing in steady state.
    flushes->clear();
    flushes->swap(sh.flushes);
  } else {
    sh.flushes.clear();
  }
  sh.last_ts = ts;
  if (record_ops_) {
    sh.log.push_back(
        RecordedOp{RecordedOp::Kind::kGcStep, 0, 0, ts, watermark});
  }
  return true;
}

void ConcurrentEngine::flush_all() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Shard& sh = *shard;
    LockGuard g(sh.mu);
    // End-of-run pad flushes belong to no batch; drop any stale flow id.
    if (sh.sink != nullptr) sh.engine->set_flow_id(0);
    sh.engine->flush_all();
    // The final drain is a quiesced-only bookkeeping pass; nobody is
    // measuring per-op durability any more, so just empty the collector.
    sh.flushes.clear();
    if (record_ops_) {
      sh.log.push_back(
          RecordedOp{RecordedOp::Kind::kFlushAll, 0, 0, sh.last_ts, 0});
    }
  }
}

LssMetrics ConcurrentEngine::merged_metrics() const {
  const AllShardsLock all(*this);
  return sharded_.merged_metrics();
}

std::uint64_t ConcurrentEngine::chunks_flushed() const {
  const AllShardsLock all(*this);
  return sharded_.chunks_flushed();
}

std::vector<std::uint32_t> ConcurrentEngine::merged_segments_per_group()
    const {
  const AllShardsLock all(*this);
  return sharded_.merged_segments_per_group();
}

std::uint64_t ConcurrentEngine::merged_pending_blocks() const {
  const AllShardsLock all(*this);
  return sharded_.merged_pending_blocks();
}

std::size_t ConcurrentEngine::policy_memory_bytes() const {
  const AllShardsLock all(*this);
  return sharded_.policy_memory_bytes();
}

std::size_t ConcurrentEngine::engine_memory_bytes() const {
  const AllShardsLock all(*this);
  return sharded_.engine_memory_bytes();
}

void ConcurrentEngine::check_invariants(audit::Level level) const {
  const AllShardsLock all(*this);
  sharded_.check_invariants(level);
}

GroupCommitStats ConcurrentEngine::shard_stats(std::uint32_t i) const {
  const Shard& sh = *shards_.at(i);
  LockGuard g(sh.stats_mu);
  return sh.stats;
}

GroupCommitStats ConcurrentEngine::merged_stats() const {
  GroupCommitStats merged;
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    const GroupCommitStats s = shard_stats(i);
    merged.groups += s.groups;
    merged.ops += s.ops;
    merged.max_batch = std::max(merged.max_batch, s.max_batch);
  }
  return merged;
}

LatencyBreakdown ConcurrentEngine::latency_breakdown() const {
  LatencyBreakdown merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    LockGuard g(shard->stats_mu);
    merged.merge_from(shard->breakdown);
  }
  return merged;
}

std::vector<RecordedOp> ConcurrentEngine::recorded_ops(std::uint32_t i) const {
  Shard& sh = *shards_.at(i);
  LockGuard g(sh.mu);
  return sh.log;
}

void ConcurrentEngine::replay_log(LssEngine& engine,
                                  const std::vector<RecordedOp>& log) {
  for (const RecordedOp& op : log) {
    switch (op.kind) {
      case RecordedOp::Kind::kWrite:
        engine.write(op.lba, op.blocks, op.ts_us);
        break;
      case RecordedOp::Kind::kGcStep:
        if (!engine.gc_step(op.ts_us, op.watermark)) {
          throw std::logic_error(
              "replay_log: recorded GC step did no work on replay");
        }
        break;
      case RecordedOp::Kind::kFlushAll:
        engine.flush_all();
        break;
    }
  }
}

}  // namespace adapt::lss
