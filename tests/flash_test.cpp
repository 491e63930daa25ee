// Tests for the flash substrate: the page-mapped multi-stream FTL. The
// flash-backed RAID-5 array on top of it is tested in array_test.cpp.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flash/ftl.h"

namespace adapt::flash {
namespace {

FtlConfig small_ftl(std::uint32_t streams = 2) {
  FtlConfig c;
  c.pages_per_block = 16;
  c.logical_pages = 1024;
  c.over_provision = 0.5;
  c.num_streams = streams;
  return c;
}

TEST(FtlTest, ConfigGeometry) {
  const FtlConfig c = small_ftl();
  EXPECT_EQ(c.total_blocks(), 96u);  // 1024 * 1.5 / 16
}

TEST(FtlTest, RejectsBadConfig) {
  FtlConfig c = small_ftl();
  c.pages_per_block = 0;
  EXPECT_THROW(Ftl f(c), std::invalid_argument);
  c = small_ftl();
  c.num_streams = 0;
  EXPECT_THROW(Ftl f(c), std::invalid_argument);
  c = small_ftl(32);
  c.over_provision = 0.01;
  EXPECT_THROW(Ftl f(c), std::invalid_argument);
}

TEST(FtlTest, WriteMapsPages) {
  Ftl ftl(small_ftl());
  ftl.host_write(10, 4, 0);
  for (std::uint64_t lpn = 10; lpn < 14; ++lpn) {
    EXPECT_TRUE(ftl.is_mapped(lpn));
  }
  EXPECT_FALSE(ftl.is_mapped(9));
  EXPECT_EQ(ftl.stats().host_pages, 4u);
  ftl.check_invariants();
}

TEST(FtlTest, OverwriteInvalidatesOldPage) {
  Ftl ftl(small_ftl());
  ftl.host_write(5, 1, 0);
  ftl.host_write(5, 1, 0);
  EXPECT_TRUE(ftl.is_mapped(5));
  EXPECT_EQ(ftl.stats().host_pages, 2u);
  ftl.check_invariants();
}

TEST(FtlTest, TrimUnmaps) {
  Ftl ftl(small_ftl());
  ftl.host_write(0, 8, 0);
  ftl.trim(0, 4);
  EXPECT_FALSE(ftl.is_mapped(0));
  EXPECT_TRUE(ftl.is_mapped(4));
  EXPECT_EQ(ftl.stats().trimmed_pages, 4u);
  // Trimming unmapped pages is a no-op.
  ftl.trim(0, 4);
  EXPECT_EQ(ftl.stats().trimmed_pages, 4u);
  ftl.check_invariants();
}

TEST(FtlTest, OutOfRangeThrows) {
  Ftl ftl(small_ftl());
  EXPECT_THROW(ftl.host_write(1020, 8, 0), std::out_of_range);
  EXPECT_THROW(ftl.trim(1024, 1), std::out_of_range);
  EXPECT_THROW(ftl.is_mapped(2048), std::out_of_range);
}

TEST(FtlTest, GcReclaimsAndPreservesData) {
  Ftl ftl(small_ftl());
  Rng rng(7);
  std::vector<bool> written(1024, false);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t lpn = rng.below(1024);
    ftl.host_write(lpn, 1, 0);
    written[lpn] = true;
  }
  ftl.check_invariants();
  for (std::uint64_t lpn = 0; lpn < 1024; ++lpn) {
    EXPECT_EQ(ftl.is_mapped(lpn), written[lpn]);
  }
  EXPECT_GT(ftl.stats().gc_runs, 0u);
  EXPECT_GT(ftl.stats().erases, 0u);
  EXPECT_GE(ftl.stats().internal_wa(), 1.0);
}

TEST(FtlTest, StreamsSeparatePhysically) {
  // Two interleaved write streams with different overwrite behaviour: the
  // hot stream churns a small range, the cold stream is written once.
  // Stream separation should keep internal WA lower than funnelling both
  // into one stream.
  auto run = [](std::uint32_t streams) {
    FtlConfig c = small_ftl(streams);
    Ftl ftl(c);
    Rng rng(11);
    for (int i = 0; i < 30000; ++i) {
      if (rng.chance(0.7)) {
        ftl.host_write(rng.below(64), 1, 0);  // hot
      } else {
        ftl.host_write(64 + rng.below(640), 1, streams - 1);  // colder
      }
    }
    return ftl.stats().internal_wa();
  };
  const double separated = run(2);
  const double funneled = run(1);
  EXPECT_LE(separated, funneled);
}

TEST(FtlTest, WearTracksErases) {
  Ftl ftl(small_ftl());
  Rng rng(13);
  for (int i = 0; i < 30000; ++i) {
    ftl.host_write(rng.below(1024), 1, 0);
  }
  const Ftl::WearStats w = ftl.wear();
  EXPECT_GT(w.mean_erases, 0.0);
  EXPECT_GE(w.max_erases, w.min_erases);
}

TEST(FtlTest, TrimReducesInternalWa) {
  auto run = [](bool use_trim) {
    Ftl ftl(small_ftl());
    Rng rng(17);
    // Circular log over the whole space: write 64-page extents, and (when
    // trimming) discard the extent before rewriting it.
    std::uint64_t cursor = 0;
    for (int i = 0; i < 2000; ++i) {
      if (use_trim) ftl.trim(cursor, 16);
      ftl.host_write(cursor, 16, 0);
      cursor = (cursor + 16) % 1024;
    }
    return ftl.stats().internal_wa();
  };
  EXPECT_LE(run(true), run(false));
}

}  // namespace
}  // namespace adapt::flash
