// DeviceLanes: submission/completion queues over a bandwidth-modeled device
// — the one device-timing model of the repo.
//
// Each lane models one device: an io_uring-style bounded submission queue
// (queue_depth entries in flight) in front of a serial service timeline.
// Submissions and completions live entirely in VIRTUAL time:
//
//   * admit:    a submission at wall time `now` enters its lane's queue
//               immediately — unless queue_depth submissions are already
//               outstanding at `now`, in which case admission is delayed to
//               the oldest outstanding completion (modeled backpressure; the
//               submission queue is bounded, never the host thread).
//   * service:  the lane serves admitted submissions in order at its
//               configured bandwidth (DeviceLanes::service_time_us).
//   * complete: complete_us = max(admit_us, lane busy_until) + service.
//               The caller decides what "waiting for durability" means —
//               the prototype sleeps the submitting thread until
//               complete_us; the group-commit engine stamps it into every
//               ticket of the batch so each op waits out its own share.
//
// Determinism: a lane's completion times are a pure function of its
// submission sequence (bytes, now_us in admission order); no host clocks or
// heap addresses enter the math. Completions across lanes are totally
// ordered by (complete_us, lane, seq) — completion_before — so any
// interleaving of per-lane streams replays to the same global completion
// order, and per-lane stats are bit-identical no matter how many worker
// threads drive disjoint lanes (tests/device_lanes_test.cpp pins this for
// 1/2/4 workers).
//
// Thread-safety: one Mutex per lane; submissions to different lanes never
// contend. Stats reads take the lane locks and may run concurrently with
// submitters (the merged histograms are a consistent per-lane snapshot).
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/histogram.h"
#include "common/sync.h"
#include "common/types.h"
#include "lss/trace_sink.h"

namespace adapt::lss {

struct DeviceLanesConfig {
  std::uint32_t lanes = 4;  ///< one per device (SsdArrayConfig::num_devices)
  std::uint32_t queue_depth = 8;  ///< outstanding submissions per lane
  /// Per-lane sustained bandwidth (aggregate bandwidth / lanes).
  double lane_bandwidth_mb_per_s = 500.0;

  /// Throws std::invalid_argument on a non-positive dimension.
  void validate() const;
};

/// One submission's modeled lifecycle on its lane.
struct LaneCompletion {
  std::uint32_t lane = 0;
  std::uint64_t seq = 0;      ///< per-lane submission index (0-based)
  TimeUs submit_us = 0;       ///< caller's wall time at submit
  TimeUs admit_us = 0;        ///< > submit_us iff the bounded queue was full
  TimeUs complete_us = 0;     ///< durable time on the lane's timeline
  TimeUs service_us = 0;      ///< pure device service time of this payload
};

/// The deterministic global completion order: earliest completion first,
/// ties broken by (lane, seq). Total because seq is unique per lane.
constexpr bool completion_before(const LaneCompletion& a,
                                 const LaneCompletion& b) noexcept {
  if (a.complete_us != b.complete_us) return a.complete_us < b.complete_us;
  if (a.lane != b.lane) return a.lane < b.lane;
  return a.seq < b.seq;
}

/// Per-lane counters (snapshot).
struct LaneStats {
  std::uint64_t submits = 0;
  std::uint64_t stalled_submits = 0;  ///< admissions delayed by a full queue
  std::uint64_t busy_us = 0;          ///< total modeled service time
  std::uint64_t inflight_high_water = 0;
  TimeUs busy_until_us = 0;           ///< lane timeline horizon
};

/// Snapshot of every lane plus the merged distributions exported into
/// adapt-manifest-v1's optional "lanes" block.
struct DeviceLanesStats {
  std::uint32_t queue_depth = 0;
  std::vector<LaneStats> per_lane;
  /// Inflight submissions observed at each admit (including the admitted
  /// one), merged over lanes.
  Log2Histogram queue_depth_hist;
  /// Modeled submit→complete latency per submission, microseconds.
  Log2Histogram submit_complete_us;

  bool empty() const noexcept { return per_lane.empty(); }

  std::uint64_t total_submits() const noexcept {
    std::uint64_t n = 0;
    for (const LaneStats& l : per_lane) n += l.submits;
    return n;
  }
  std::uint64_t total_stalled() const noexcept {
    std::uint64_t n = 0;
    for (const LaneStats& l : per_lane) n += l.stalled_submits;
    return n;
  }
  std::uint64_t max_inflight_high_water() const noexcept {
    std::uint64_t hw = 0;
    for (const LaneStats& l : per_lane) {
      if (l.inflight_high_water > hw) hw = l.inflight_high_water;
    }
    return hw;
  }
};

class DeviceLanes {
 public:
  explicit DeviceLanes(const DeviceLanesConfig& config);

  DeviceLanes(const DeviceLanes&) = delete;
  DeviceLanes& operator=(const DeviceLanes&) = delete;

  /// The bandwidth law: time to serve `bytes` at `bandwidth_mb_per_s`,
  /// rounded to the nearest microsecond (1 MB at 100 MB/s is 10,000 us).
  static TimeUs service_time_us(double bandwidth_mb_per_s,
                                std::uint64_t bytes) noexcept {
    const double us =
        static_cast<double>(bytes) / (bandwidth_mb_per_s * 1e6) * 1e6;
    return static_cast<TimeUs>(us + 0.5);
  }

  const DeviceLanesConfig& config() const noexcept { return config_; }
  std::uint32_t lane_count() const noexcept {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  /// Attaches a trace sink to lane `lane` (nullptr detaches). Emission
  /// happens under the lane mutex, so an unsynchronised per-lane ring is
  /// safe, mirroring ConcurrentEngine's sink under its engine lock.
  void set_trace_sink(std::uint32_t lane, TraceSink* sink);

  /// Submits `bytes` to `lane` at wall time `now_us`; thread-safe across
  /// lanes and within a lane. Purely virtual-time: never blocks the host
  /// beyond the lane mutex. The returned completion carries the admission
  /// time (delayed when queue_depth submissions were still outstanding at
  /// `now_us`), the modeled durable time, and the pure service time.
  /// `flow_id` (0 = none) is stamped into the lane's trace events so a
  /// traced submission joins its originating batch's causal flow.
  LaneCompletion submit(std::uint32_t lane, std::uint64_t bytes,
                        TimeUs now_us, std::uint64_t flow_id = 0);

  /// Consistent per-lane snapshot (takes each lane mutex in turn).
  DeviceLanesStats stats() const;

 private:
  struct Lane {
    mutable Mutex mu;
    /// Completion times of outstanding submissions, a FIFO ring of at most
    /// queue_depth entries. Monotone non-decreasing (the lane timeline only
    /// moves forward), so retiring entries <= now is a front scan.
    std::vector<TimeUs> ring ADAPT_GUARDED_BY(mu);
    std::uint32_t head ADAPT_GUARDED_BY(mu) = 0;
    std::uint32_t inflight ADAPT_GUARDED_BY(mu) = 0;
    std::uint64_t next_seq ADAPT_GUARDED_BY(mu) = 0;
    TimeUs busy_until_us ADAPT_GUARDED_BY(mu) = 0;
    LaneStats stats ADAPT_GUARDED_BY(mu);
    Log2Histogram depth_hist ADAPT_GUARDED_BY(mu);
    Log2Histogram latency_hist ADAPT_GUARDED_BY(mu);
    TraceSink* sink ADAPT_GUARDED_BY(mu) = nullptr;
  };

  DeviceLanesConfig config_;
  std::vector<Lane> lanes_;
};

}  // namespace adapt::lss
