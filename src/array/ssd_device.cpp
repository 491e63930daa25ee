#include "array/ssd_device.h"

#include <stdexcept>

namespace adapt::array {

SsdDevice::SsdDevice(const SsdDeviceConfig& config)
    : config_(config), stream_bytes_(config.num_streams) {
  if (config.num_streams == 0) {
    throw std::invalid_argument("SsdDevice needs at least one stream");
  }
  if (config.bandwidth_mb_per_s <= 0) {
    throw std::invalid_argument("SsdDevice bandwidth must be positive");
  }
}

TimeUs SsdDevice::write(std::uint32_t stream, std::uint64_t bytes) {
  if (stream >= config_.num_streams) {
    throw std::out_of_range("stream index out of range");
  }
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  stream_bytes_[stream].fetch_add(bytes, std::memory_order_relaxed);
  return service_us(bytes);
}

std::uint64_t SsdDevice::stream_bytes(std::uint32_t stream) const {
  if (stream >= config_.num_streams) {
    throw std::out_of_range("stream index out of range");
  }
  return stream_bytes_[stream].load(std::memory_order_relaxed);
}

}  // namespace adapt::array
