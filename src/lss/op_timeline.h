// Op-lifecycle timeline: phase-attributed latency for the concurrent write
// path.
//
// Every op that rides a group-commit batch passes through five milestones,
// all in deterministic virtual time (the simulated microsecond clock, never
// the host clock):
//
//   submit    the client called write()
//   joined    the leader applied the op (its monotonised ts)
//   applied   the whole batch left the engine critical section
//   lane      the batch's flushes started device service on their lanes
//   durable   the last flush of the batch completed
//
// LatencyBreakdown turns consecutive milestone gaps into one Log2Histogram
// per phase. The milestones are clamped into a monotone sequence before
// differencing, so the four phase gaps telescope EXACTLY back to the total:
//
//   intake_wait + batch_apply + lane_queue + device_service == total
//
// holds per op, and therefore sum-for-sum and count-for-count over the
// histograms. validate_manifest_json enforces this additivity identity on
// every exported latency_breakdown block, the same way the provenance
// identity is enforced — a manifest whose phases don't explain its total is
// rejected, not trusted.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/histogram.h"
#include "common/types.h"

namespace adapt::lss {

/// Result of submitting one batch's drained flushes to the device model.
/// `durable_us` is the modeled completion time of the LAST flush (0 when
/// nothing was flushed); `service_us` is that flush's pure device service
/// time, which splits the post-apply wait into lane queueing vs media time.
struct FlushOutcome {
  TimeUs durable_us = 0;
  TimeUs service_us = 0;
};

/// Phase-attributed latency histograms (all microseconds, virtual time).
struct LatencyBreakdown {
  Log2Histogram intake_wait_us;     ///< submit -> joined (link/park wait)
  Log2Histogram batch_apply_us;     ///< joined -> batch applied
  Log2Histogram lane_queue_us;      ///< applied -> device service start
  Log2Histogram device_service_us;  ///< service start -> durable
  Log2Histogram total_us;           ///< submit -> durable

  /// Records one op from its raw milestones. Clamping makes the sequence
  /// monotone (clock skew between a client's submit stamp and the engine
  /// clock otherwise produces negative phases) and keeps the telescoping
  /// identity exact: the five adds always satisfy
  /// intake+apply+queue+service == total, value for value.
  void add_op(TimeUs submit_us, TimeUs joined_us, TimeUs applied_us,
              TimeUs durable_us, TimeUs service_us) noexcept {
    const TimeUs joined = std::max(submit_us, joined_us);
    const TimeUs applied = std::max(joined, applied_us);
    const TimeUs durable = std::max(applied, durable_us);
    const TimeUs service_start = std::clamp(
        durable >= service_us ? durable - service_us : TimeUs{0}, applied,
        durable);
    intake_wait_us.add(joined - submit_us);
    batch_apply_us.add(applied - joined);
    lane_queue_us.add(service_start - applied);
    device_service_us.add(durable - service_start);
    total_us.add(durable - submit_us);
  }

  void merge_from(const LatencyBreakdown& other) noexcept {
    intake_wait_us.merge_from(other.intake_wait_us);
    batch_apply_us.merge_from(other.batch_apply_us);
    lane_queue_us.merge_from(other.lane_queue_us);
    device_service_us.merge_from(other.device_service_us);
    total_us.merge_from(other.total_us);
  }

  bool empty() const noexcept { return total_us.empty(); }
};

/// One committed batch, as published to live observers (obs::RuntimeStats)
/// by the batch leader right after the batch's durable time is known. The
/// breakdown covers exactly this batch's applied ops.
struct BatchSample {
  std::uint64_t ops = 0;
  std::uint64_t blocks = 0;
  LatencyBreakdown breakdown;
};

}  // namespace adapt::lss
