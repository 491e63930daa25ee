// Tests for src/array: the RAID-5 array's byte accounting.
#include <gtest/gtest.h>

#include "array/ssd_array.h"

namespace adapt::array {
namespace {

// ---------------------------------------------------------------------------
// SsdArray
// ---------------------------------------------------------------------------

SsdArrayConfig small_array() {
  return SsdArrayConfig{
      .num_devices = 4, .chunk_bytes = 64 * 1024, .num_streams = 2};
}

TEST(SsdArrayTest, FullChunkNoPadding) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 64 * 1024);
  const StreamStats& s = arr.stream_stats(0);
  EXPECT_EQ(s.chunks_written, 1u);
  EXPECT_EQ(s.data_bytes, 64u * 1024);
  EXPECT_EQ(s.padding_bytes, 0u);
}

TEST(SsdArrayTest, PartialChunkAccountsPadding) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 4096);
  const StreamStats& s = arr.stream_stats(0);
  EXPECT_EQ(s.data_bytes, 4096u);
  EXPECT_EQ(s.padding_bytes, 64u * 1024 - 4096);
}

TEST(SsdArrayTest, ParityPerStripe) {
  SsdArray arr(small_array());
  // 3 data columns per stripe -> parity written on every 3rd chunk.
  for (int i = 0; i < 6; ++i) arr.write_chunk(0, 64 * 1024);
  const StreamStats& s = arr.stream_stats(0);
  EXPECT_EQ(s.chunks_written, 6u);
  EXPECT_EQ(s.parity_bytes, 2u * 64 * 1024);
}

TEST(SsdArrayTest, IncompleteStripeNoParityYet) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 64 * 1024);
  arr.write_chunk(0, 64 * 1024);
  EXPECT_EQ(arr.stream_stats(0).parity_bytes, 0u);
}

TEST(SsdArrayTest, StreamsIsolated) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 64 * 1024);
  arr.write_chunk(1, 4096);
  EXPECT_EQ(arr.stream_stats(0).padding_bytes, 0u);
  EXPECT_EQ(arr.stream_stats(1).padding_bytes, 64u * 1024 - 4096);
}

TEST(SsdArrayTest, TotalsAggregateStreams) {
  SsdArray arr(small_array());
  arr.write_chunk(0, 64 * 1024);
  arr.write_chunk(1, 4096);
  const StreamStats t = arr.totals();
  EXPECT_EQ(t.chunks_written, 2u);
  EXPECT_EQ(t.data_bytes, 64u * 1024 + 4096);
}

TEST(SsdArrayTest, DataSpreadsAcrossDevices) {
  SsdArray arr(small_array());
  for (int i = 0; i < 12; ++i) arr.write_chunk(0, 64 * 1024);
  // 12 data chunks + 4 parity chunks over 4 devices; every device should
  // have received something.
  std::uint64_t total = 0;
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_GT(arr.device_bytes(d), 0u) << "device " << d;
    total += arr.device_bytes(d);
  }
  EXPECT_EQ(total, 16u * 64 * 1024);
}

TEST(SsdArrayTest, PartialWriteChargesParityAndReads) {
  SsdArray arr(small_array());
  arr.write_partial(0, 4096);
  const StreamStats& s = arr.stream_stats(0);
  EXPECT_EQ(s.rmw_writes, 1u);
  EXPECT_EQ(s.data_bytes, 4096u);
  EXPECT_EQ(s.parity_bytes, 64u * 1024);           // parity rewritten whole
  EXPECT_EQ(s.rmw_read_bytes, 2u * 64 * 1024);     // old data + old parity
  EXPECT_EQ(s.padding_bytes, 0u);                  // RMW never pads
}

TEST(SsdArrayTest, PartialWriteValidatesSize) {
  SsdArray arr(small_array());
  EXPECT_THROW(arr.write_partial(0, 0), std::invalid_argument);
  EXPECT_THROW(arr.write_partial(0, 64 * 1024 + 1), std::invalid_argument);
  EXPECT_THROW(arr.write_partial(9, 4096), std::out_of_range);
}

TEST(SsdArrayTest, TotalsIncludeRmwFields) {
  SsdArray arr(small_array());
  arr.write_partial(0, 4096);
  arr.write_partial(1, 8192);
  const StreamStats t = arr.totals();
  EXPECT_EQ(t.rmw_writes, 2u);
  EXPECT_EQ(t.rmw_read_bytes, 4u * 64 * 1024);
}

TEST(SsdArrayTest, OversizedPayloadThrows) {
  SsdArray arr(small_array());
  EXPECT_THROW(arr.write_chunk(0, 64 * 1024 + 1), std::invalid_argument);
}

TEST(SsdArrayTest, InvalidStreamThrows) {
  SsdArray arr(small_array());
  EXPECT_THROW(arr.write_chunk(7, 4096), std::out_of_range);
  EXPECT_THROW(arr.stream_stats(7), std::out_of_range);
  EXPECT_THROW(arr.device_bytes(9), std::out_of_range);
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
  arr.write_chunk(0, 4096);
  EXPECT_EQ(arr.stream_stats(0).parity_bytes, 4096u);
}

}  // namespace
}  // namespace adapt::array
