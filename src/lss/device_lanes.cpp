#include "lss/device_lanes.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::lss {

void DeviceLanesConfig::validate() const {
  if (lanes == 0) {
    throw std::invalid_argument("DeviceLanes: need at least one lane");
  }
  if (queue_depth == 0) {
    throw std::invalid_argument("DeviceLanes: queue depth must be positive");
  }
  if (!(lane_bandwidth_mb_per_s > 0.0)) {
    throw std::invalid_argument("DeviceLanes: bandwidth must be positive");
  }
}

DeviceLanes::DeviceLanes(const DeviceLanesConfig& config)
    : config_(config), lanes_(config.lanes) {
  config_.validate();
  for (Lane& lane : lanes_) {
    LockGuard g(lane.mu);
    lane.ring.assign(config_.queue_depth, 0);
  }
}

void DeviceLanes::set_trace_sink(std::uint32_t lane, TraceSink* sink) {
  Lane& l = lanes_.at(lane);
  LockGuard g(l.mu);
  l.sink = sink;
}

LaneCompletion DeviceLanes::submit(std::uint32_t lane, std::uint64_t bytes,
                                   TimeUs now_us, std::uint64_t flow_id) {
  if (lane >= lanes_.size()) {
    throw std::out_of_range("DeviceLanes: lane index out of range");
  }
  Lane& l = lanes_[lane];
  const std::uint32_t depth = config_.queue_depth;
  LockGuard g(l.mu);

  // Retire submissions whose modeled completion is in the past: they have
  // left the queue by `now_us`. The ring is monotone (the lane timeline
  // only advances), so this is a front scan.
  while (l.inflight > 0 && l.ring[l.head] <= now_us) {
    l.head = (l.head + 1) % depth;
    --l.inflight;
  }

  // Bounded submission queue: with queue_depth entries still outstanding,
  // admission waits (in virtual time) for the oldest to complete.
  TimeUs admit_us = now_us;
  if (l.inflight == depth) {
    admit_us = l.ring[l.head];
    l.head = (l.head + 1) % depth;
    --l.inflight;
    ++l.stats.stalled_submits;
  }

  const TimeUs service =
      service_time_us(config_.lane_bandwidth_mb_per_s, bytes);
  const TimeUs start = std::max(admit_us, l.busy_until_us);
  const TimeUs complete_us = start + service;
  l.busy_until_us = complete_us;

  l.ring[(l.head + l.inflight) % depth] = complete_us;
  ++l.inflight;

  LaneCompletion c;
  c.lane = lane;
  c.seq = l.next_seq++;
  c.submit_us = now_us;
  c.admit_us = admit_us;
  c.complete_us = complete_us;
  c.service_us = service;

  ++l.stats.submits;
  l.stats.busy_us += service;
  l.stats.busy_until_us = complete_us;
  if (l.inflight > l.stats.inflight_high_water) {
    l.stats.inflight_high_water = l.inflight;
  }
  l.depth_hist.add(l.inflight);
  l.latency_hist.add(complete_us - now_us);

  if (l.sink != nullptr) {
    emit(l.sink, TraceEvent{TraceEventKind::kLaneSubmit,
                            static_cast<GroupId>(lane), c.seq, now_us,
                            c.seq, l.inflight, admit_us, flow_id});
    emit(l.sink, TraceEvent{TraceEventKind::kLaneComplete,
                            static_cast<GroupId>(lane), c.seq, now_us,
                            c.seq, service, complete_us, flow_id});
  }
  return c;
}

DeviceLanesStats DeviceLanes::stats() const {
  DeviceLanesStats out;
  out.queue_depth = config_.queue_depth;
  out.per_lane.reserve(lanes_.size());
  for (const Lane& lane : lanes_) {
    LockGuard g(lane.mu);
    out.per_lane.push_back(lane.stats);
    out.queue_depth_hist.merge_from(lane.depth_hist);
    out.submit_complete_us.merge_from(lane.latency_hist);
  }
  return out;
}

}  // namespace adapt::lss
