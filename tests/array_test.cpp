// Tests for src/array: the RAID-5 array's byte accounting and, with flash
// backing, its address mapping onto per-device FTLs.
#include <gtest/gtest.h>

#include "array/ssd_array.h"
#include "common/rng.h"

namespace adapt::array {
namespace {

// ---------------------------------------------------------------------------
// Byte accounting
// ---------------------------------------------------------------------------

SsdArrayConfig small_array() {
  return SsdArrayConfig{
      .num_devices = 4, .chunk_bytes = 64 * 1024, .num_streams = 2};
}

TEST(SsdArrayTest, FullChunkNoPadding) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 0, 64 * 1024);
  const StreamStats& s = arr.totals();
  EXPECT_EQ(s.chunks_written, 1u);
  EXPECT_EQ(s.data_bytes, 64u * 1024);
  EXPECT_EQ(s.padding_bytes, 0u);
}

TEST(SsdArrayTest, PartialChunkAccountsPadding) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 0, 4096);
  const StreamStats& s = arr.totals();
  EXPECT_EQ(s.data_bytes, 4096u);
  EXPECT_EQ(s.padding_bytes, 64u * 1024 - 4096);
}

TEST(SsdArrayTest, ParityPerDataChunk) {
  SsdArray arr(small_array());
  // Every data-chunk write rewrites its stripe's parity chunk, full or
  // padded, whatever the chunk's column.
  for (std::uint64_t c = 0; c < 6; ++c) arr.write_chunk(c, 0, 64 * 1024);
  arr.write_chunk(6, 1, 4096);
  const StreamStats& s = arr.totals();
  EXPECT_EQ(s.chunks_written, 7u);
  EXPECT_EQ(s.parity_bytes, 7u * 64 * 1024);
}

TEST(SsdArrayTest, TotalsAggregateStreams) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 0, 64 * 1024);
  arr.write_chunk(1, 1, 4096);
  const StreamStats& t = arr.totals();
  EXPECT_EQ(t.chunks_written, 2u);
  EXPECT_EQ(t.data_bytes, 64u * 1024 + 4096);
  EXPECT_EQ(t.padding_bytes, 64u * 1024 - 4096);
}

TEST(SsdArrayTest, PartialWriteChargesParity) {
  SsdArray arr(small_array());
  arr.write_partial(0, 0, 8192, 4096);
  const StreamStats& s = arr.totals();
  EXPECT_EQ(s.chunks_written, 0u);       // a sub-chunk write, not a chunk
  EXPECT_EQ(s.data_bytes, 4096u);
  EXPECT_EQ(s.parity_bytes, 64u * 1024);  // parity rewritten whole
  EXPECT_EQ(s.padding_bytes, 0u);         // RMW never pads
}

TEST(SsdArrayTest, PartialWriteValidatesSize) {
  SsdArray arr(small_array());
  EXPECT_THROW(arr.write_partial(0, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(arr.write_partial(0, 0, 0, 64 * 1024 + 1),
               std::invalid_argument);
  EXPECT_THROW(arr.write_partial(0, 0, 64 * 1024 - 4096, 8192),
               std::invalid_argument);
  EXPECT_THROW(arr.write_partial(0, 9, 0, 4096), std::out_of_range);
}

TEST(SsdArrayTest, OversizedPayloadThrows) {
  SsdArray arr(small_array());
  EXPECT_THROW(arr.write_chunk(0, 0, 64 * 1024 + 1), std::invalid_argument);
}

TEST(SsdArrayTest, InvalidStreamThrows) {
  SsdArray arr(small_array());
  EXPECT_THROW(arr.write_chunk(0, 7, 4096), std::out_of_range);
  EXPECT_EQ(arr.totals().chunks_written, 0u);
}

TEST(SsdArrayTest, InvalidConfigThrows) {
  EXPECT_THROW(SsdArray(SsdArrayConfig{.num_devices = 1}),
               std::invalid_argument);
  EXPECT_THROW(SsdArray(SsdArrayConfig{.num_devices = 4, .chunk_bytes = 0}),
               std::invalid_argument);
  EXPECT_THROW(SsdArray(SsdArrayConfig{.num_devices = 4, .num_streams = 0}),
               std::invalid_argument);
}

TEST(SsdArrayTest, TwoDeviceArrayIsMirrorLike) {
  // RAID-5 over 2 devices degenerates to 1 data column + parity.
  SsdArray arr(SsdArrayConfig{
      .num_devices = 2, .chunk_bytes = 4096, .num_streams = 1});
  arr.write_chunk(0, 0, 4096);
  EXPECT_EQ(arr.totals().parity_bytes, 4096u);
}

TEST(SsdArrayTest, WithoutFlashOnlyCounts) {
  SsdArray arr(small_array());
  EXPECT_FALSE(arr.flash_backed());
  arr.write_chunk(1u << 30, 0, 4096);  // no data space to bound the index
  arr.trim_chunks(0, 8);
  EXPECT_EQ(arr.totals().chunks_written, 1u);
  EXPECT_EQ(arr.device_internal_wa(), 0.0);
}

// ---------------------------------------------------------------------------
// Flash backing
// ---------------------------------------------------------------------------

FlashBacking small_backing() {
  return FlashBacking{
      .page_bytes = 4096, .data_chunks = 300, .device_over_provision = 0.3};
}

SsdArrayConfig small_flash(const FlashBacking& backing = small_backing()) {
  SsdArrayConfig c;
  c.num_devices = 4;
  c.chunk_bytes = 16 * 1024;  // 4 pages
  c.num_streams = 4;
  c.flash = backing;
  return c;
}

std::uint64_t host_pages(const SsdArray& arr) {
  std::uint64_t pages = 0;
  for (std::uint32_t d = 0; d < arr.config().num_devices; ++d) {
    pages += arr.device(d).stats().host_pages;
  }
  return pages;
}

std::uint64_t trimmed_pages(const SsdArray& arr) {
  std::uint64_t pages = 0;
  for (std::uint32_t d = 0; d < arr.config().num_devices; ++d) {
    pages += arr.device(d).stats().trimmed_pages;
  }
  return pages;
}

TEST(SsdArrayFlashTest, GeometryChecks) {
  SsdArray arr(small_flash());
  EXPECT_TRUE(arr.flash_backed());
  EXPECT_EQ(arr.data_columns(), 3u);
  // 300 data chunks over 3 columns = 100 stripes of 4 pages per device.
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(arr.device(d).config().logical_pages, 400u);
  }
}

TEST(SsdArrayFlashTest, RejectsBadConfig) {
  SsdArrayConfig c = small_flash();
  c.num_devices = 1;
  EXPECT_THROW(SsdArray a(c), std::invalid_argument);
  c = small_flash();
  c.chunk_bytes = 1000;  // not a multiple of the page size
  EXPECT_THROW(SsdArray a(c), std::invalid_argument);
}

TEST(SsdArrayFlashTest, EachGroupGetsItsOwnDeviceStream) {
  // Six placement groups: streams 0..5 carry data, stream 6 parity.
  SsdArrayConfig c = small_flash();
  c.num_streams = 6;
  SsdArray arr(c);
  for (std::uint32_t d = 0; d < c.num_devices; ++d) {
    EXPECT_EQ(arr.device(d).config().num_streams, 7u) << "device " << d;
  }
  FlashBacking single_stream = small_backing();
  single_stream.multi_stream = false;
  c.flash = single_stream;
  SsdArray single(c);
  EXPECT_EQ(single.device(0).config().num_streams, 1u);
}

TEST(SsdArrayFlashTest, WritesTouchDataAndParity) {
  SsdArray arr(small_flash());
  arr.write_chunk(0, 0, 16 * 1024);
  EXPECT_EQ(arr.totals().chunks_written, 1u);
  EXPECT_EQ(arr.totals().parity_bytes, 16u * 1024);
  EXPECT_EQ(host_pages(arr), 8u);  // one data chunk + one parity chunk
}

TEST(SsdArrayFlashTest, ChunkBeyondSpaceThrows) {
  SsdArray arr(small_flash());
  EXPECT_THROW(arr.write_chunk(300, 0, 0), std::out_of_range);
  EXPECT_EQ(arr.totals().chunks_written, 0u);
}

TEST(SsdArrayFlashTest, ParityRotatesAcrossDevices) {
  SsdArray arr(small_flash());
  // Write one chunk in each of the first 8 stripes; parity must land on
  // different devices over time (left-symmetric rotation).
  for (std::uint64_t stripe = 0; stripe < 8; ++stripe) {
    arr.write_chunk(stripe * arr.data_columns(), 0, 0);
  }
  std::uint32_t devices_touched = 0;
  for (std::uint32_t d = 0; d < 4; ++d) {
    if (arr.device(d).stats().host_pages > 0) ++devices_touched;
  }
  EXPECT_EQ(devices_touched, 4u);
}

TEST(SsdArrayFlashTest, PartialWriteSmallerThanChunk) {
  SsdArray arr(small_flash());
  arr.write_partial(0, 0, 4096, 8192);
  EXPECT_EQ(host_pages(arr), 6u);  // 2 data pages + 4 parity pages
  EXPECT_EQ(arr.totals().parity_bytes, 16u * 1024);
  EXPECT_THROW(arr.write_partial(0, 0, 3 * 4096, 8192),
               std::invalid_argument);
  EXPECT_THROW(arr.write_partial(0, 0, 0, 1000), std::invalid_argument);
}

TEST(SsdArrayFlashTest, TrimForwardsToDevices) {
  SsdArray arr(small_flash());
  arr.write_chunk(5, 0, 16 * 1024);
  arr.trim_chunks(5, 1);
  EXPECT_EQ(trimmed_pages(arr), 4u);  // the data chunk; parity stays live
}

TEST(SsdArrayFlashTest, TrimDisabledIsNoop) {
  FlashBacking no_trim = small_backing();
  no_trim.trim_enabled = false;
  SsdArray arr(small_flash(no_trim));
  arr.write_chunk(5, 0, 16 * 1024);
  arr.trim_chunks(5, 1);
  EXPECT_EQ(trimmed_pages(arr), 0u);
}

TEST(SsdArrayFlashTest, OverwriteChurnRaisesInternalWa) {
  SsdArray arr(small_flash());
  Rng rng(19);
  for (int i = 0; i < 12000; ++i) {
    arr.write_chunk(rng.below(300), 0, 0);
  }
  EXPECT_GE(arr.device_internal_wa(), 1.0);
}

}  // namespace
}  // namespace adapt::array
