// Live runtime stats: one cumulative RuntimeSnapshot under one Mutex, plus
// the printer that turns it into periodic stderr lines.
//
// The prototype's writers call publish() with a one-op BatchSample
// (group_commit's set_batch_hook), the sim path calls publish_progress()
// through LiveStatsObserver, and a LiveStatsPrinter thread calls
// snapshot() once per interval. All three take the same mutex, so every
// snapshot is a state some writer actually published. The prototype
// publishes once per write, after that write's critical section and
// device submit; the sim path once per stride; the reader once per
// interval.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/annotations.h"
#include "common/histogram.h"
#include "common/sync.h"
#include "lss/engine.h"
#include "lss/op_timeline.h"

namespace adapt::obs {

/// One coherent view of cumulative runtime progress. Phase sums cover only
/// ops published with a full BatchSample; progress published through
/// publish_progress() advances ops/blocks alone.
struct RuntimeSnapshot {
  std::uint64_t ops = 0;
  std::uint64_t blocks = 0;
  std::uint64_t intake_wait_us = 0;     ///< cumulative phase sums (virtual us)
  std::uint64_t batch_apply_us = 0;
  std::uint64_t lane_queue_us = 0;
  std::uint64_t device_service_us = 0;
  Log2Histogram total_us;               ///< submit->durable distribution

  double p99_us() const {
    return total_us.empty() ? 0.0 : total_us.percentile(99.0);
  }
};

class RuntimeStats {
 public:
  RuntimeStats() = default;
  RuntimeStats(const RuntimeStats&) = delete;
  RuntimeStats& operator=(const RuntimeStats&) = delete;

  /// Accumulates one committed sample (thread-safe; called by writers
  /// concurrently). Matches group_commit's batch-hook signature.
  void publish(const lss::BatchSample& sample);

  /// Accumulates bare progress (ops/blocks only) for producers without
  /// phase data — the sim path via LiveStatsObserver.
  void publish_progress(std::uint64_t ops, std::uint64_t blocks);

  /// Copy of the cumulative state. Safe from any thread.
  RuntimeSnapshot snapshot() const;

 private:
  mutable Mutex mu_;
  RuntimeSnapshot snap_ ADAPT_GUARDED_BY(mu_);
};

/// EngineObserver adapter for the sim path: counts user blocks and
/// publishes them into a RuntimeStats every `stride` blocks, so the shared
/// mutex is taken once per stride, not once per block. Forwards every
/// callback to an optional inner observer first, so it stacks on top of
/// the existing EngineSampler without a second observer slot.
class LiveStatsObserver final : public lss::EngineObserver {
 public:
  explicit LiveStatsObserver(RuntimeStats& stats,
                             lss::EngineObserver* inner = nullptr,
                             std::uint64_t stride = 256)
      : stats_(stats), inner_(inner), stride_(stride == 0 ? 1 : stride) {}

  void on_user_block(const lss::LssEngine& engine, TimeUs now_us) override {
    if (inner_ != nullptr) inner_->on_user_block(engine, now_us);
    if (++pending_ >= stride_) flush();
  }

  /// Publishes any sub-stride remainder (call after the end-of-run drain).
  void flush() {
    if (pending_ == 0) return;
    stats_.publish_progress(pending_, pending_);
    pending_ = 0;
  }

 private:
  RuntimeStats& stats_;
  lss::EngineObserver* inner_;
  std::uint64_t stride_;
  std::uint64_t pending_ = 0;
};

/// Renders one live-stats line from two snapshots `elapsed_s` apart. Pure
/// function of its inputs (deterministic, unit-testable):
///   live: ops=N (+dN) blocks=M thpt=R ops/s p99=Pus
///         phase% intake=A apply=B queue=C service=D
/// The phase%% tail is omitted while no phase data has been published.
std::string format_live_line(const RuntimeSnapshot& prev,
                             const RuntimeSnapshot& cur, double elapsed_s);

/// Prints `stats` as format_live_line rows to `out` from its own thread:
/// one line every `interval_s` seconds, then one final line when stopped.
/// Each line spans from the previous line's snapshot to its own, over the
/// host time that really passed between them, so the `(+N)` deltas sum to
/// the final total and a short last interval is not divided by the full
/// one. stop() (or the destructor) wakes the thread at once.
class LiveStatsPrinter {
 public:
  LiveStatsPrinter(const RuntimeStats& stats, double interval_s,
                   std::FILE* out = stderr);
  ~LiveStatsPrinter() { stop(); }
  LiveStatsPrinter(const LiveStatsPrinter&) = delete;
  LiveStatsPrinter& operator=(const LiveStatsPrinter&) = delete;

  /// Prints the final line and joins the thread; idempotent.
  void stop();

 private:
  void run();

  const RuntimeStats& stats_;
  const double interval_s_;
  std::FILE* const out_;
  Mutex mu_;
  CondVar wake_;
  bool stop_ ADAPT_GUARDED_BY(mu_) = false;
  Thread thread_;  // last: starts after every field above is initialised
};

}  // namespace adapt::obs
