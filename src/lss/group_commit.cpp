#include "lss/group_commit.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::lss {

ConcurrentEngine::ConcurrentEngine(const LssConfig& config,
                                   std::uint64_t seed,
                                   const ShardFactory& factory,
                                   bool record_ops)
    : record_ops_(record_ops),
      sharded_(config, 1, seed, factory),
      engine_(&sharded_.shard(0)) {
  LockGuard g(mu_);
  // Apply/durable split: every flush the engine performs is recorded in
  // the collector; lead() and gc_step() drain it under the engine lock and
  // model durability outside.
  engine_->set_flush_collector(&flushes_);
}

void ConcurrentEngine::set_trace_sink(TraceSink* sink) {
  LockGuard g(mu_);
  sink_ = sink;
  engine_->set_trace_sink(sink);
}

/// One queued op. Lives on the submitting thread's stack for the duration
/// of write(); the queue links tickets, never owns them (see the lifetime
/// rule in group_commit.h).
struct ConcurrentEngine::WriteTicket {
  enum class State : std::uint8_t { kQueued, kCompleted, kAborted };

  WriteTicket(Lba lba_in, std::uint32_t blocks_in, TimeUs submit_in) noexcept
      : lba(lba_in), blocks(blocks_in), submit_us(submit_in) {}

  WriteTicket(const WriteTicket&) = delete;
  WriteTicket& operator=(const WriteTicket&) = delete;

  Lba lba;
  std::uint32_t blocks;
  TimeUs submit_us;         ///< simulated submit timestamp (monotonised
                            ///< by the leader before applying)
  /// Modeled durable time of this op's batch, stamped by the leader before
  /// it marks the ticket terminal. 0 when the batch flushed nothing.
  TimeUs durable_us = 0;
  /// The monotonised timestamp the leader applied this op at — the op's
  /// "joined" milestone for the phase breakdown.
  TimeUs joined_us = 0;
  // Guarded by queue_mu_. The leader reads `next` without it only inside
  // its captured batch, whose links no writer changes again.
  WriteTicket* next = nullptr;   ///< next newer ticket in the queue
  State state = State::kQueued;  ///< set terminal by the batch leader
  CondVar cv;                    ///< waited on with queue_mu_ held
};

void ConcurrentEngine::write(Lba lba, std::uint32_t blocks, TimeUs submit_us) {
  // Reject a bad span before it can join a batch.
  sharded_.check_span(lba, blocks);
  WriteTicket t(lba, blocks, submit_us);
  std::exception_ptr error;
  const TimeUs durable_us = commit(t, error);
  // Wait out this op's share of its batch's coalesced flush on THIS
  // thread — the leader stamped it into every ticket before completing
  // them.
  if (durable_wait_ && durable_us > 0) durable_wait_(durable_us);
  if (error != nullptr) std::rethrow_exception(error);
}

TimeUs ConcurrentEngine::commit(WriteTicket& t, std::exception_ptr& error) {
  WriteTicket* last = nullptr;
  WriteTicket::State state = WriteTicket::State::kQueued;
  {
    LockGuard q(queue_mu_);
    if (tail_ == nullptr) {
      head_ = &t;
    } else {
      tail_->next = &t;
    }
    tail_ = &t;
    while (t.state == WriteTicket::State::kQueued && head_ != &t) {
      t.cv.wait(queue_mu_, q);
    }
    state = t.state;
    // At the head and not yet committed: lead everything queued so far.
    if (state == WriteTicket::State::kQueued) last = tail_;
  }
  if (last != nullptr) {
    try {
      lead(&t, last);
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

void ConcurrentEngine::lead(WriteTicket* leader, WriteTicket* last) {
  std::uint64_t batch_ops = 0;
  std::uint64_t batch_blocks = 0;
  std::uint64_t flushed_delta = 0;
  std::vector<PendingFlush> flushes;
  std::exception_ptr error;
  // First ticket whose op did NOT apply because the engine threw; it and
  // everything queued after it get marked kAborted so their write() calls
  // fail instead of silently reporting lost writes as durable.
  WriteTicket* aborted_from = nullptr;
  // Applied milestone of the batch: the engine clock after the last
  // applied op (batch-granular — ops in one batch share the apply
  // timestamp).
  TimeUs applied_us = 0;
  // Nonzero only while tracing: the batch counter, the causal-flow id
  // correlating this batch's op, flush and lane events.
  std::uint64_t flow_id = 0;
  {
    LockGuard g(mu_);
    const std::uint64_t chunks_before = engine_->chunks_flushed();
    if (sink_ != nullptr) {
      flow_id = ++batch_seq_;
      engine_->set_flow_id(flow_id);
    }
    WriteTicket* w = leader;
    try {
      for (;; w = w->next) {
        // Engine timestamps must be monotone; arrival order and
        // submit-clock order can disagree under contention, so clamp. The
        // clamped value is what gets recorded — replay needs the ts that
        // was actually applied, not the one the client intended.
        const TimeUs ts = std::max(last_ts_, w->submit_us);
        last_ts_ = ts;
        engine_->write(w->lba, w->blocks, ts);
        w->joined_us = ts;
        if (record_ops_) {
          log_.push_back(
              RecordedOp{RecordedOp::Kind::kWrite, w->lba, w->blocks, ts, 0});
        }
        if (sink_ != nullptr) {
          emit(sink_, TraceEvent{TraceEventKind::kOpSubmit, 0,
                                 engine_->vtime(), ts, w->lba, w->blocks, 0,
                                 flow_id});
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
    applied_us = last_ts_;
    flushed_delta = engine_->chunks_flushed() - chunks_before;
    // Drain the flush records this batch appended while still holding the
    // lock; the device submit happens OUTSIDE the critical section so a GC
    // pass can take the engine while this batch's durability is modeled.
    if (!flushes_.empty()) {
      if (flush_submit_) {
        flushes.swap(flushes_);
      } else {
        flushes_.clear();
      }
    }
    if (sink_ != nullptr) {
      emit(sink_, TraceEvent{TraceEventKind::kGroupCommit, 0,
                             engine_->vtime(), last_ts_, batch_ops,
                             batch_blocks, flushed_delta, flow_id});
    }
  }
  // Model durability outside every lock. Even a batch that failed mid-way
  // submits: the applied prefix's flushes hit the device before the engine
  // threw, and their modeled time must not vanish from the timeline.
  FlushOutcome outcome;
  if (flush_submit_ && !flushes.empty()) outcome = flush_submit_(flushes);
  const TimeUs durable_us = outcome.durable_us;
  // Walk the batch BEFORE any ticket is marked terminal: followers cannot
  // unwind until then, and the queue_mu_ hand-off below makes the durable
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
    LockGuard g(stats_mu_);
    ++stats_.groups;
    stats_.ops += batch_ops;
    stats_.max_batch = std::max(stats_.max_batch, batch_ops);
    breakdown_.merge_from(batch_lat);
  }
  if (batch_ops > 0 && batch_hook_) {
    batch_hook_(BatchSample{batch_ops, batch_blocks, batch_lat});
  }
  // Emit per-op durability events under the re-acquired engine lock (the
  // ring is unsynchronised); no ticket is terminal yet, so every one is
  // alive. Traced runs pay this second lock hop; untraced runs skip it
  // entirely.
  if (flow_id != 0 && durable_us > 0) {
    LockGuard g(mu_);
    bool aborted = false;
    for (WriteTicket* w = leader;; w = w->next) {
      if (w == aborted_from) aborted = true;
      if (!aborted && sink_ != nullptr) {
        emit(sink_, TraceEvent{TraceEventKind::kOpDurable, 0,
                               engine_->vtime(), durable_us, w->lba,
                               w->blocks, durable_us, flow_id});
      }
      if (w == last) break;
    }
  }
  // Complete the batch and hand off leadership: mark each follower
  // terminal and wake it, pop the batch, and wake the new head, which
  // leads the next batch. A woken follower must reacquire queue_mu_ before
  // it can read its state and unwind, so its ticket stays alive for as
  // long as this block holds the mutex. Each op runs its own durable wait
  // after it is completed, so completions never wait on the modeled flush.
  {
    LockGuard q(queue_mu_);
    bool aborted = (aborted_from == leader);
    for (WriteTicket* w = leader; w != last;) {
      w = w->next;
      if (w == aborted_from) aborted = true;
      w->state = aborted ? WriteTicket::State::kAborted
                         : WriteTicket::State::kCompleted;
      w->cv.notify_one();
    }
    head_ = last->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    } else {
      head_->cv.notify_one();
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
}

bool ConcurrentEngine::gc_step(TimeUs now_us, std::uint32_t watermark,
                               std::vector<PendingFlush>* flushes) {
  LockGuard g(mu_);
  // GC flushes are not part of any batch's causal flow; clear the stale
  // flow id a previous traced batch left on the engine.
  if (sink_ != nullptr) engine_->set_flow_id(0);
  const TimeUs ts = std::max(last_ts_, now_us);
  // A false step mutates nothing (GcController::step checks the watermark
  // before run_once), so only steps that worked enter the linearized log.
  if (!engine_->gc_step(ts, watermark)) return false;
  // Hand the pass's flush records to the GC thread (it submits them to the
  // device model itself — there are no write tickets to stamp); drained
  // either way so the collector never grows across passes.
  if (flushes != nullptr) {
    // Swap (after clearing the caller's scratch) instead of copying: the
    // collector inherits the caller vector's capacity, so a GC loop
    // reusing one vector allocates nothing in steady state.
    flushes->clear();
    flushes->swap(flushes_);
  } else {
    flushes_.clear();
  }
  last_ts_ = ts;
  if (record_ops_) {
    log_.push_back(RecordedOp{RecordedOp::Kind::kGcStep, 0, 0, ts, watermark});
  }
  return true;
}

void ConcurrentEngine::flush_all() {
  LockGuard g(mu_);
  // End-of-run pad flushes belong to no batch; drop any stale flow id.
  if (sink_ != nullptr) engine_->set_flow_id(0);
  engine_->flush_all();
  // The final drain is a quiesced-only bookkeeping pass; nobody is
  // measuring per-op durability any more, so just empty the collector.
  flushes_.clear();
  if (record_ops_) {
    log_.push_back(RecordedOp{RecordedOp::Kind::kFlushAll, 0, 0, last_ts_, 0});
  }
}

LssMetrics ConcurrentEngine::metrics() const {
  LockGuard g(mu_);
  return engine_->metrics();
}

std::uint64_t ConcurrentEngine::pending_blocks() const {
  LockGuard g(mu_);
  return sharded_.merged_pending_blocks();
}

std::size_t ConcurrentEngine::policy_memory_bytes() const {
  LockGuard g(mu_);
  return sharded_.policy_memory_bytes();
}

std::size_t ConcurrentEngine::engine_memory_bytes() const {
  LockGuard g(mu_);
  return engine_->memory_usage_bytes();
}

void ConcurrentEngine::check_invariants(audit::Level level) const {
  LockGuard g(mu_);
  engine_->check_invariants(level);
}

GroupCommitStats ConcurrentEngine::stats() const {
  LockGuard g(stats_mu_);
  return stats_;
}

LatencyBreakdown ConcurrentEngine::latency_breakdown() const {
  LockGuard g(stats_mu_);
  return breakdown_;
}

std::vector<RecordedOp> ConcurrentEngine::recorded_ops() const {
  LockGuard g(mu_);
  return log_;
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
