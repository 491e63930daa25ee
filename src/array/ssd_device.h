// Per-SSD device model. The simulator only needs accounting (bytes per
// stream, wear); the prototype additionally uses the bandwidth model to
// obtain per-write service latencies so that GC traffic competes with user
// traffic for device bandwidth, which is the effect behind the paper's
// Figure 12a throughput results.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace adapt::array {

struct SsdDeviceConfig {
  std::uint32_t num_streams = 8;
  double bandwidth_mb_per_s = 2000.0;  ///< sustained sequential write BW
};

class SsdDevice {
 public:
  explicit SsdDevice(const SsdDeviceConfig& config);

  const SsdDeviceConfig& config() const noexcept { return config_; }

  /// The bandwidth model's service time for `bytes` at
  /// `bandwidth_mb_per_s`, rounded to the nearest microsecond. This is THE
  /// timing formula of the device layer: write() and lss::DeviceLanes both
  /// derive their service times from it.
  static TimeUs service_time_us(double bandwidth_mb_per_s,
                                std::uint64_t bytes) noexcept {
    const double us =
        static_cast<double>(bytes) / (bandwidth_mb_per_s * 1e6) * 1e6;
    return static_cast<TimeUs>(us + 0.5);
  }

  /// service_time_us at this device's configured bandwidth.
  TimeUs service_us(std::uint64_t bytes) const noexcept {
    return service_time_us(config_.bandwidth_mb_per_s, bytes);
  }

  /// Records a write of `bytes` on `stream` and returns the service time in
  /// microseconds under the bandwidth model.
  TimeUs write(std::uint32_t stream, std::uint64_t bytes);

  std::uint64_t bytes_written() const noexcept {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t stream_bytes(std::uint32_t stream) const;

 private:
  SsdDeviceConfig config_;
  std::atomic<std::uint64_t> bytes_written_{0};
  std::vector<std::atomic<std::uint64_t>> stream_bytes_;
};

}  // namespace adapt::array
