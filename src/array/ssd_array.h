// RAID-5 SSD array model: the persistence substrate below the
// log-structured store.
//
// The array's write unit is a chunk (default 64 KiB, the Linux mdraid
// default used by the paper). The LSS's physical space is a linear run of
// chunks: chunk C belongs to stripe C / (n-1) and lands on one of the n-1
// data columns, with left-symmetric parity rotation. The LSS maps each
// placement group to one array stream.
//
// One parity rule: every data-chunk write — full, zero-padded or a
// sub-chunk RMW write — rewrites its stripe's parity chunk in place. The
// LSS flushes chunk by chunk, and md RAID-5 updates parity per request
// (read-modify-write or reconstruct-write) whenever a request covers fewer
// than all data columns of a stripe (DESIGN.md, "One RAID-5 model").
//
// The array always counts the bytes it is asked to write: payload, zero
// padding and parity. The pre-reads of an RMW parity update stay in
// lss::LssMetrics::rmw_read_blocks. With `flash` set, it also writes each
// chunk and its parity to per-device page-mapped FTLs at the chunk's array
// address (device pages [s·chunk_pages, (s+1)·chunk_pages) hold stripe s),
// TRIMs reclaimed ranges, and reports device-internal write amplification.
// Because the LSS reuses segments after GC, the devices see overwrites,
// which is what makes the stream-mapping claim (paper §3.1) measurable.
// Completion timing lives in lss::DeviceLanes, the one device-timing model.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "flash/ftl.h"

namespace adapt::array {

/// Per-device FTLs behind the array.
struct FlashBacking {
  std::uint32_t page_bytes = kDefaultBlockSize;
  /// Exported data capacity in chunks (the LSS physical space).
  std::uint64_t data_chunks = 1024;
  /// Device-internal over-provision handed to each FTL.
  double device_over_provision = 0.10;
  /// Pass TRIMs from the host through to the devices.
  bool trim_enabled = true;
  /// Map stream s to device stream s (true) or funnel every write into
  /// device stream 0 (false) — the paper's multi-stream ablation.
  bool multi_stream = true;
};

struct SsdArrayConfig {
  std::uint32_t num_devices = 4;      ///< RAID-5: 3 data + 1 parity/stripe
  std::uint32_t chunk_bytes = kDefaultChunkSize;
  /// One stream per placement group. With flash backing, parity takes
  /// device stream `num_streams`, so each FTL has num_streams + 1.
  std::uint32_t num_streams = 8;
  std::optional<FlashBacking> flash = std::nullopt;  ///< unset: bytes only
};

/// Bytes written to the array, over all streams.
struct StreamStats {
  std::uint64_t chunks_written = 0;  ///< full and zero-padded chunks
  std::uint64_t data_bytes = 0;      ///< real block payload
  std::uint64_t padding_bytes = 0;   ///< zero fill in partial chunks
  std::uint64_t parity_bytes = 0;    ///< one parity chunk per data write
};

class SsdArray {
 public:
  explicit SsdArray(const SsdArrayConfig& config);

  const SsdArrayConfig& config() const noexcept { return config_; }

  /// Persists data chunk `chunk_index` for `stream` with `data_bytes` of
  /// real payload (the rest of the chunk is zero padding), plus the
  /// in-place parity update of its stripe.
  void write_chunk(std::uint64_t chunk_index, std::uint32_t stream,
                   std::uint64_t data_bytes);

  /// Sub-chunk (RMW) write of `data_bytes` at `offset_bytes` within chunk
  /// `chunk_index`, plus the in-place parity update of its stripe.
  void write_partial(std::uint64_t chunk_index, std::uint32_t stream,
                     std::uint64_t offset_bytes, std::uint64_t data_bytes);

  /// TRIMs `count` data chunks from `first_chunk` (a reclaimed LSS
  /// segment). Parity stays live: other chunks of a stripe may hold data.
  /// A no-op without flash backing or with TRIM disabled.
  void trim_chunks(std::uint64_t first_chunk, std::uint64_t count);

  const StreamStats& totals() const noexcept { return totals_; }

  std::uint32_t data_columns() const noexcept {
    return config_.num_devices - 1;
  }

  bool flash_backed() const noexcept { return !devices_.empty(); }

  /// Flash-backed only: device `index`'s FTL.
  const flash::Ftl& device(std::uint32_t index) const {
    return devices_.at(index);
  }

  /// Aggregate device-internal WA across all devices (0 without flash).
  double device_internal_wa() const;

 private:
  struct Placement {
    std::uint32_t data_device;
    std::uint32_t parity_device;
    std::uint64_t device_page;  ///< first page of the stripe on a device
  };

  std::uint32_t chunk_pages() const noexcept {
    return config_.chunk_bytes / flash_.page_bytes;
  }
  Placement locate(std::uint64_t chunk_index) const;
  void check_stream(std::uint32_t stream) const;
  /// Writes `pages` data pages at `first_page` of the chunk, then the
  /// stripe's parity chunk.
  void write_devices(std::uint64_t chunk_index, std::uint32_t stream,
                     std::uint32_t first_page, std::uint32_t pages);

  SsdArrayConfig config_;
  FlashBacking flash_;  ///< *config_.flash, or unused defaults when unset
  StreamStats totals_;
  std::vector<flash::Ftl> devices_;  ///< empty without flash backing
};

}  // namespace adapt::array
