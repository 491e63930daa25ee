#include "array/ssd_array.h"

#include <stdexcept>

namespace adapt::array {

SsdArray::SsdArray(const SsdArrayConfig& config)
    : config_(config),
      device_bytes_(config.num_devices, 0),
      stream_stats_(config.num_streams),
      stripe_cursor_(config.num_streams, 0),
      stripe_index_(config.num_streams, 0) {
  if (config.num_devices < 2) {
    throw std::invalid_argument("RAID-5 array needs at least 2 devices");
  }
  if (config.chunk_bytes == 0) {
    throw std::invalid_argument("chunk size must be positive");
  }
  if (config.num_streams == 0) {
    throw std::invalid_argument("array needs at least one stream");
  }
}

void SsdArray::write_chunk(std::uint32_t stream, std::uint64_t data_bytes) {
  if (stream >= config_.num_streams) {
    throw std::out_of_range("stream index out of range");
  }
  if (data_bytes > config_.chunk_bytes) {
    throw std::invalid_argument("chunk payload exceeds chunk size");
  }
  auto& stats = stream_stats_[stream];
  stats.chunks_written += 1;
  stats.data_bytes += data_bytes;
  stats.padding_bytes += config_.chunk_bytes - data_bytes;

  const std::uint32_t columns = data_columns();
  // Rotate parity like RAID-5 left-symmetric: stripe s parks parity on
  // device (num_devices - 1 - s % num_devices).
  const std::uint32_t parity_dev = static_cast<std::uint32_t>(
      (config_.num_devices - 1 -
       stripe_index_[stream] % config_.num_devices) %
      config_.num_devices);
  // Data columns are the remaining devices in order.
  std::uint32_t col = stripe_cursor_[stream];
  std::uint32_t dev = col;
  if (dev >= parity_dev) dev += 1;  // skip the parity device

  device_bytes_[dev] += config_.chunk_bytes;

  stripe_cursor_[stream] = col + 1;
  if (stripe_cursor_[stream] == columns) {
    // Stripe complete: emit the parity chunk.
    stripe_cursor_[stream] = 0;
    stripe_index_[stream] += 1;
    stats.parity_bytes += config_.chunk_bytes;
    device_bytes_[parity_dev] += config_.chunk_bytes;
  }
}

void SsdArray::write_partial(std::uint32_t stream,
                               std::uint64_t data_bytes) {
  if (stream >= config_.num_streams) {
    throw std::out_of_range("stream index out of range");
  }
  if (data_bytes == 0 || data_bytes > config_.chunk_bytes) {
    throw std::invalid_argument("partial write size out of range");
  }
  auto& stats = stream_stats_[stream];
  ++stats.rmw_writes;
  stats.data_bytes += data_bytes;
  // Parity is rewritten whole; the update reads the old data chunk and the
  // old parity chunk first.
  stats.parity_bytes += config_.chunk_bytes;
  stats.rmw_read_bytes += 2ull * config_.chunk_bytes;
  const std::uint32_t dev = static_cast<std::uint32_t>(
      (stripe_index_[stream] + stripe_cursor_[stream]) %
      config_.num_devices);
  device_bytes_[dev] += data_bytes + config_.chunk_bytes;
}

const StreamStats& SsdArray::stream_stats(std::uint32_t stream) const {
  if (stream >= config_.num_streams) {
    throw std::out_of_range("stream index out of range");
  }
  return stream_stats_[stream];
}

StreamStats SsdArray::totals() const {
  StreamStats t;
  for (const auto& s : stream_stats_) {
    t.chunks_written += s.chunks_written;
    t.data_bytes += s.data_bytes;
    t.padding_bytes += s.padding_bytes;
    t.parity_bytes += s.parity_bytes;
    t.rmw_writes += s.rmw_writes;
    t.rmw_read_bytes += s.rmw_read_bytes;
  }
  return t;
}

std::uint64_t SsdArray::device_bytes(std::uint32_t device) const {
  if (device >= config_.num_devices) {
    throw std::out_of_range("device index out of range");
  }
  return device_bytes_[device];
}

}  // namespace adapt::array
