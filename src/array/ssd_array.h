// RAID-5-style SSD array model.
//
// The array is the persistence substrate below the log-structured store.
// Its write unit is a chunk (default 64 KiB, the Linux mdraid default used
// by the paper). Data chunks of one stripe are spread over num_devices - 1
// devices with a rotating parity chunk on the remaining device. The LSS
// maps each placement group to one array stream so multi-stream SSDs keep
// group data physically separated.
//
// The model tracks valid data bytes, zero-padding bytes (partial chunks
// flushed under SLA pressure) and parity bytes per stream, and the bytes
// each device received. Completion timing lives in lss::DeviceLanes, the
// one device-timing model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace adapt::array {

struct SsdArrayConfig {
  std::uint32_t num_devices = 4;      ///< RAID-5: 3 data + 1 parity/stripe
  std::uint32_t chunk_bytes = kDefaultChunkSize;
  std::uint32_t num_streams = 8;
};

/// Accounting for one stream (== one placement group).
struct StreamStats {
  std::uint64_t chunks_written = 0;
  std::uint64_t data_bytes = 0;     ///< real block payload
  std::uint64_t padding_bytes = 0;  ///< zero fill in partial chunks
  std::uint64_t parity_bytes = 0;
  std::uint64_t rmw_writes = 0;       ///< sub-chunk RMW events
  std::uint64_t rmw_read_bytes = 0;   ///< old data + parity reads for RMW
};

class SsdArray {
 public:
  explicit SsdArray(const SsdArrayConfig& config);

  const SsdArrayConfig& config() const noexcept { return config_; }

  /// Persists one chunk on stream `stream` containing `data_bytes` of real
  /// payload; the rest of the chunk (chunk_bytes - data_bytes) is zero
  /// padding. Completes the stripe parity when the stripe fills.
  void write_chunk(std::uint32_t stream, std::uint64_t data_bytes);

  /// Sub-chunk write under RMW semantics: persists `data_bytes` of payload
  /// and rewrites the stripe's parity chunk in place, charging the
  /// old-data + old-parity reads to rmw_read_bytes.
  void write_partial(std::uint32_t stream, std::uint64_t data_bytes);

  const StreamStats& stream_stats(std::uint32_t stream) const;
  StreamStats totals() const;

  std::uint64_t device_bytes(std::uint32_t device) const;
  std::uint32_t data_columns() const noexcept {
    return config_.num_devices - 1;
  }

 private:
  SsdArrayConfig config_;
  std::vector<std::uint64_t> device_bytes_;  ///< bytes written per device
  std::vector<StreamStats> stream_stats_;
  /// Per-stream rotation cursor: which data column the next chunk lands on.
  std::vector<std::uint32_t> stripe_cursor_;
  /// Per-stream stripe index, used to rotate the parity device.
  std::vector<std::uint64_t> stripe_index_;
};

}  // namespace adapt::array
