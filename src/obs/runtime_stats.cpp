#include "obs/runtime_stats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace adapt::obs {

void RuntimeStats::publish(const lss::BatchSample& sample) {
  LockGuard g(mu_);
  snap_.ops += sample.ops;
  snap_.blocks += sample.blocks;
  snap_.intake_wait_us += sample.breakdown.intake_wait_us.sum();
  snap_.batch_apply_us += sample.breakdown.batch_apply_us.sum();
  snap_.lane_queue_us += sample.breakdown.lane_queue_us.sum();
  snap_.device_service_us += sample.breakdown.device_service_us.sum();
  snap_.total_us.merge_from(sample.breakdown.total_us);
}

void RuntimeStats::publish_progress(std::uint64_t ops, std::uint64_t blocks) {
  LockGuard g(mu_);
  snap_.ops += ops;
  snap_.blocks += blocks;
}

RuntimeSnapshot RuntimeStats::snapshot() const {
  LockGuard g(mu_);
  return snap_;
}

std::string format_live_line(const RuntimeSnapshot& prev,
                             const RuntimeSnapshot& cur, double elapsed_s) {
  const std::uint64_t d_ops = cur.ops - prev.ops;
  const std::uint64_t d_blocks = cur.blocks - prev.blocks;
  const double rate =
      elapsed_s > 0.0 ? static_cast<double>(d_ops) / elapsed_s : 0.0;
  const std::uint64_t d_intake = cur.intake_wait_us - prev.intake_wait_us;
  const std::uint64_t d_apply = cur.batch_apply_us - prev.batch_apply_us;
  const std::uint64_t d_queue = cur.lane_queue_us - prev.lane_queue_us;
  const std::uint64_t d_service =
      cur.device_service_us - prev.device_service_us;
  const std::uint64_t phase_total = d_intake + d_apply + d_queue + d_service;
  char buf[256];
  if (phase_total > 0) {
    const double pt = static_cast<double>(phase_total);
    std::snprintf(
        buf, sizeof buf,
        "live: ops=%llu (+%llu) blocks=%llu thpt=%.1f ops/s p99=%.1fus "
        "phase%% intake=%.1f apply=%.1f queue=%.1f service=%.1f",
        static_cast<unsigned long long>(cur.ops),
        static_cast<unsigned long long>(d_ops),
        static_cast<unsigned long long>(cur.blocks), rate, cur.p99_us(),
        100.0 * static_cast<double>(d_intake) / pt,
        100.0 * static_cast<double>(d_apply) / pt,
        100.0 * static_cast<double>(d_queue) / pt,
        100.0 * static_cast<double>(d_service) / pt);
  } else {
    std::snprintf(buf, sizeof buf,
                  "live: ops=%llu (+%llu) blocks=%llu (+%llu) thpt=%.1f ops/s",
                  static_cast<unsigned long long>(cur.ops),
                  static_cast<unsigned long long>(d_ops),
                  static_cast<unsigned long long>(cur.blocks),
                  static_cast<unsigned long long>(d_blocks), rate);
  }
  return std::string(buf);
}

LiveStatsPrinter::LiveStatsPrinter(const RuntimeStats& stats,
                                   double interval_s, std::FILE* out)
    : stats_(stats),
      interval_s_(interval_s),
      out_(out),
      thread_([this] { run(); }) {}

void LiveStatsPrinter::stop() {
  {
    LockGuard g(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void LiveStatsPrinter::run() {
  using Clock = std::chrono::steady_clock;
  using Seconds = std::chrono::duration<double>;
  RuntimeSnapshot prev;
  Clock::time_point prev_at = Clock::now();
  for (bool stopping = false; !stopping;) {
    {
      LockGuard g(mu_);
      while (!stop_) {
        const double left_s =
            interval_s_ - Seconds(Clock::now() - prev_at).count();
        if (left_s <= 0.0) break;
        // At most an hour per wait, so no interval overflows the
        // microsecond count; stop() cuts any wait short.
        wake_.wait_for_us(mu_, g,
                          static_cast<std::uint64_t>(
                              std::min(3600.0, left_s) * 1e6) + 1);
      }
      stopping = stop_;
    }
    const RuntimeSnapshot cur = stats_.snapshot();
    const Clock::time_point now = Clock::now();
    const std::string line =
        format_live_line(prev, cur, Seconds(now - prev_at).count());
    std::fprintf(out_, "%s\n", line.c_str());
    std::fflush(out_);
    prev = cur;
    prev_at = now;
  }
}

}  // namespace adapt::obs
