#include "array/ssd_array.h"

#include <algorithm>
#include <stdexcept>

namespace adapt::array {

SsdArray::SsdArray(const SsdArrayConfig& config)
    : config_(config), flash_(config.flash.value_or(FlashBacking{})) {
  if (config_.num_devices < 2) {
    throw std::invalid_argument("RAID-5 array needs at least 2 devices");
  }
  if (config_.chunk_bytes == 0) {
    throw std::invalid_argument("chunk size must be positive");
  }
  if (config_.num_streams == 0) {
    throw std::invalid_argument("array needs at least one stream");
  }
  if (!config_.flash) return;
  if (flash_.page_bytes == 0 || config_.chunk_bytes % flash_.page_bytes != 0) {
    throw std::invalid_argument(
        "chunk size must be a positive multiple of the page size");
  }
  // Stripes needed to host all data chunks; each device stores one chunk
  // per stripe (data or parity).
  const std::uint64_t stripes =
      (flash_.data_chunks + data_columns() - 1) / data_columns();

  flash::FtlConfig ftl_config;
  ftl_config.page_bytes = flash_.page_bytes;
  ftl_config.logical_pages =
      std::max<std::uint64_t>(stripes * chunk_pages(), 1);
  ftl_config.over_provision = flash_.device_over_provision;
  ftl_config.num_streams = flash_.multi_stream ? config_.num_streams + 1 : 1;
  // Size flash blocks so a device holds a reasonable number of them:
  // several chunks per erase block, but never so large that the device
  // cannot host two open blocks per stream plus GC headroom.
  const std::uint32_t desired =
      std::max<std::uint32_t>(chunk_pages() * 4, 64);
  const double logical = static_cast<double>(ftl_config.logical_pages);
  const std::uint32_t parked_blocks =
      2 * ftl_config.num_streams + ftl_config.free_block_reserve + 2;
  // Blocks parked as open/reserve must not eat into the logical capacity:
  // parked * ppb <= logical * over_provision (with a safety factor of 2).
  const auto cap = static_cast<std::uint32_t>(
      logical * ftl_config.over_provision /
      (2.0 * static_cast<double>(parked_blocks)));
  ftl_config.pages_per_block =
      std::max<std::uint32_t>(1, std::min(desired, cap));
  devices_.reserve(config_.num_devices);
  for (std::uint32_t i = 0; i < config_.num_devices; ++i) {
    devices_.emplace_back(ftl_config);
  }
}

void SsdArray::check_stream(std::uint32_t stream) const {
  if (stream >= config_.num_streams) {
    throw std::out_of_range("stream index out of range");
  }
}

SsdArray::Placement SsdArray::locate(std::uint64_t chunk_index) const {
  if (chunk_index >= flash_.data_chunks) {
    throw std::out_of_range("chunk beyond the array's data space");
  }
  const std::uint32_t n = config_.num_devices;
  const std::uint64_t stripe = chunk_index / data_columns();
  const auto column = static_cast<std::uint32_t>(chunk_index % data_columns());
  // Left-symmetric rotation: parity walks backwards across devices.
  const auto parity_device =
      static_cast<std::uint32_t>((n - 1 - stripe % n) % n);
  std::uint32_t data_device = column;
  if (data_device >= parity_device) ++data_device;
  return Placement{data_device, parity_device, stripe * chunk_pages()};
}

void SsdArray::write_devices(std::uint64_t chunk_index, std::uint32_t stream,
                             std::uint32_t first_page, std::uint32_t pages) {
  const Placement p = locate(chunk_index);
  const bool multi = flash_.multi_stream;
  devices_[p.data_device].host_write(p.device_page + first_page, pages,
                                     multi ? stream : 0);
  // Parity gets its own device stream so its in-place churn does not
  // pollute data blocks.
  devices_[p.parity_device].host_write(p.device_page, chunk_pages(),
                                       multi ? config_.num_streams : 0);
}

void SsdArray::write_chunk(std::uint64_t chunk_index, std::uint32_t stream,
                           std::uint64_t data_bytes) {
  check_stream(stream);
  if (data_bytes > config_.chunk_bytes) {
    throw std::invalid_argument("chunk payload exceeds chunk size");
  }
  if (flash_backed()) write_devices(chunk_index, stream, 0, chunk_pages());
  ++totals_.chunks_written;
  totals_.data_bytes += data_bytes;
  totals_.padding_bytes += config_.chunk_bytes - data_bytes;
  totals_.parity_bytes += config_.chunk_bytes;
}

void SsdArray::write_partial(std::uint64_t chunk_index, std::uint32_t stream,
                             std::uint64_t offset_bytes,
                             std::uint64_t data_bytes) {
  check_stream(stream);
  if (data_bytes == 0 || offset_bytes + data_bytes > config_.chunk_bytes) {
    throw std::invalid_argument("partial write out of chunk range");
  }
  if (flash_backed()) {
    const std::uint32_t page = flash_.page_bytes;
    if (offset_bytes % page != 0 || data_bytes % page != 0) {
      throw std::invalid_argument("partial write not page-aligned");
    }
    write_devices(chunk_index, stream,
                  static_cast<std::uint32_t>(offset_bytes / page),
                  static_cast<std::uint32_t>(data_bytes / page));
  }
  totals_.data_bytes += data_bytes;
  totals_.parity_bytes += config_.chunk_bytes;
}

void SsdArray::trim_chunks(std::uint64_t first_chunk, std::uint64_t count) {
  if (!flash_backed() || !flash_.trim_enabled) return;
  for (std::uint64_t c = first_chunk; c < first_chunk + count; ++c) {
    const Placement p = locate(c);
    devices_[p.data_device].trim(p.device_page, chunk_pages());
  }
}

double SsdArray::device_internal_wa() const {
  std::uint64_t host = 0;
  std::uint64_t gc = 0;
  for (const flash::Ftl& d : devices_) {
    host += d.stats().host_pages;
    gc += d.stats().gc_pages;
  }
  return host == 0 ? 0.0
                   : static_cast<double>(host + gc) /
                         static_cast<double>(host);
}

}  // namespace adapt::array
