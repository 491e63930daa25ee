#include "lss/group_commit.h"

#include <algorithm>
#include <exception>
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
  // the collector; write() and gc_step() drain it under the engine lock and
  // model durability outside.
  engine_->set_flush_collector(&flushes_);
}

void ConcurrentEngine::set_trace_sink(TraceSink* sink) {
  LockGuard g(mu_);
  sink_ = sink;
  engine_->set_trace_sink(sink);
}

void ConcurrentEngine::write(Lba lba, std::uint32_t blocks, TimeUs submit_us) {
  // Reject a bad span before it reaches the engine.
  sharded_.check_span(lba, blocks);
  std::vector<PendingFlush> flushes;
  std::exception_ptr error;
  // The monotonised timestamp the write is applied at: its joined and
  // applied milestones both (lss/op_timeline.h).
  TimeUs ts = 0;
  // Nonzero only while tracing: the commit counter, the causal-flow id
  // correlating this write's op, flush and lane events.
  std::uint64_t flow_id = 0;
  {
    LockGuard g(mu_);
    const std::uint64_t chunks_before = engine_->chunks_flushed();
    if (sink_ != nullptr) {
      flow_id = ++commit_seq_;
      engine_->set_flow_id(flow_id);
    }
    // Engine timestamps must be monotone; lock order and submit-clock
    // order can disagree under contention, so clamp. The clamped value is
    // what gets recorded — replay needs the ts that was actually applied,
    // not the one the client intended.
    ts = std::max(last_ts_, submit_us);
    last_ts_ = ts;
    try {
      engine_->write(lba, blocks, ts);
      if (record_ops_) {
        log_.push_back(
            RecordedOp{RecordedOp::Kind::kWrite, lba, blocks, ts, 0});
      }
      if (sink_ != nullptr) {
        emit(sink_, TraceEvent{TraceEventKind::kOpSubmit, 0,
                               engine_->vtime(), ts, lba, blocks, 0,
                               flow_id});
        emit(sink_, TraceEvent{TraceEventKind::kGroupCommit, 0,
                               engine_->vtime(), ts, 1, blocks,
                               engine_->chunks_flushed() - chunks_before,
                               flow_id});
      }
    } catch (...) {
      error = std::current_exception();
    }
    // Drain the flush records this write appended while still holding the
    // lock — a failed write too, so they never ride into the next commit.
    // The device submit happens OUTSIDE the critical section so other
    // writes and GC passes can take the engine while this write's
    // durability is modeled.
    if (!flushes_.empty()) {
      if (flush_submit_) {
        flushes.swap(flushes_);
      } else {
        flushes_.clear();
      }
    }
  }
  // Model durability outside every lock. A write that failed mid-way still
  // submits: the flushes it tipped hit the device before the engine threw,
  // and their modeled time must not vanish from the timeline.
  FlushOutcome outcome;
  if (!flushes.empty()) outcome = flush_submit_(flushes);
  if (error != nullptr) std::rethrow_exception(error);
  const TimeUs durable_us = outcome.durable_us;
  {
    LockGuard g(stats_mu_);
    ++stats_.groups;
    ++stats_.ops;
    stats_.max_batch = 1;
    breakdown_.add_op(submit_us, ts, ts, durable_us, outcome.service_us);
  }
  if (batch_hook_) {
    BatchSample sample{1, blocks, {}};
    sample.breakdown.add_op(submit_us, ts, ts, durable_us, outcome.service_us);
    batch_hook_(sample);
  }
  if (flow_id != 0 && durable_us > 0) {
    // The ring is unsynchronised: emit under the re-acquired engine lock.
    // Untraced runs skip this second lock hop entirely.
    LockGuard g(mu_);
    if (sink_ != nullptr) {
      emit(sink_, TraceEvent{TraceEventKind::kOpDurable, 0, engine_->vtime(),
                             durable_us, lba, blocks, durable_us, flow_id});
    }
  }
  if (durable_wait_ && durable_us > 0) durable_wait_(durable_us);
}

bool ConcurrentEngine::gc_step(TimeUs now_us, std::uint32_t watermark,
                               std::vector<PendingFlush>* flushes) {
  LockGuard g(mu_);
  // GC flushes are not part of any write's causal flow; clear the stale
  // flow id a previous traced write left on the engine.
  if (sink_ != nullptr) engine_->set_flow_id(0);
  const TimeUs ts = std::max(last_ts_, now_us);
  // A false step mutates nothing (GcController::step checks the watermark
  // before run_once), so only steps that worked enter the linearized log.
  if (!engine_->gc_step(ts, watermark)) return false;
  // Hand the pass's flush records to the GC thread (it submits them to the
  // device model itself — no writer waits on them); drained
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
  // End-of-run pad flushes belong to no write; drop any stale flow id.
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
