// Unit and property tests for src/common: PRNG, Zipfian generators,
// packed bitmaps, zero-page arrays, histograms, thread pool, strict number
// parsing.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/packed_bitmap.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/zero_page_array.h"
#include "common/zipf.h"

namespace adapt {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  double sum = 0;
  double sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.3, 0.8), 0.0);
  }
}

TEST(RngTest, ChanceProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Mix64Test, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // Low bits should change even for adjacent inputs.
  int low_bit_flips = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if ((mix64(i) & 1) != (mix64(i + 1) & 1)) ++low_bit_flips;
  }
  EXPECT_GT(low_bit_flips, 16);
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

class ZipfAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaTest, RanksInRange) {
  const double alpha = GetParam();
  ZipfianGenerator zipf(1000, alpha);
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LT(zipf.next(rng), 1000u);
  }
}

TEST_P(ZipfAlphaTest, SkewIncreasesWithAlpha) {
  const double alpha = GetParam();
  ZipfianGenerator zipf(1000, alpha);
  Rng rng(37);
  int rank0 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.next(rng) == 0) ++rank0;
  }
  const double p0 = static_cast<double>(rank0) / n;
  if (alpha == 0.0) {
    EXPECT_NEAR(p0, 1.0 / 1000, 0.002);
  } else {
    // P(rank 0) = 1 / zeta(n, alpha); just check monotone bounds.
    EXPECT_GT(p0, 1.0 / 1000);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9, 0.99, 1.1));

TEST(ZipfTest, AlphaOneDoesNotBlowUp) {
  ZipfianGenerator zipf(100, 1.0);
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.next(rng), 100u);
  }
}

TEST(ZipfTest, HotSetConcentration) {
  // At alpha ~1, ~top 20% of ranks should carry well over half the draws.
  ZipfianGenerator zipf(10000, 0.99);
  Rng rng(43);
  int top = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.next(rng) < 2000) ++top;
  }
  EXPECT_GT(static_cast<double>(top) / n, 0.6);
}

// The zeta sum behind a generator is kept process-wide for recent (n,
// alpha) pairs. A generator rebuilt from the memo, one rebuilt after 64
// other pairs evicted it, and four missing the memo at once on separate
// threads all draw exactly the first one's ranks.
TEST(ZipfTest, RebuiltGeneratorDrawsTheSameRanks) {
  constexpr std::uint64_t kItems = 4099;
  constexpr double kAlpha = 0.77;
  const auto draws = [&] {
    ZipfianGenerator zipf(kItems, kAlpha);
    Rng rng(53);
    std::vector<std::uint64_t> out(2000);
    for (std::uint64_t& rank : out) rank = zipf.next(rng);
    return out;
  };
  const auto evict = [&] {
    for (std::uint64_t n = 1; n <= 70; ++n) ZipfianGenerator other(n, kAlpha);
  };
  const std::vector<std::uint64_t> first = draws();
  EXPECT_EQ(draws(), first);
  evict();
  EXPECT_EQ(draws(), first);
  evict();
  std::vector<std::vector<std::uint64_t>> parallel(4);
  {
    std::vector<std::thread> threads;
    for (auto& out : parallel) threads.emplace_back([&] { out = draws(); });
    for (std::thread& t : threads) t.join();
  }
  for (const auto& out : parallel) EXPECT_EQ(out, first);
}

TEST(ScrambledZipfTest, SpreadsHotKeys) {
  ScrambledZipfianGenerator zipf(10000, 0.99);
  Rng rng(47);
  // The most frequent key should not be key 0 systematically; draws still
  // hit a small set of hot keys.
  std::map<std::uint64_t, int> freq;
  for (int i = 0; i < 50000; ++i) ++freq[zipf.next(rng)];
  auto hottest = std::max_element(
      freq.begin(), freq.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_GT(hottest->second, 50000 / 10000 * 10);
}

// ---------------------------------------------------------------------------
// PackedBitmap
// ---------------------------------------------------------------------------

TEST(PackedBitmapTest, AssignSetsSizeAndValue) {
  PackedBitmap b;
  b.assign(100, false);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(0, 100), 0u);
  b.assign(100, true);
  EXPECT_EQ(b.count(0, 100), 100u);
  // The tail beyond size must stay masked for word-level scans.
  EXPECT_EQ(b.word(1), (std::uint64_t{1} << 36) - 1);
}

TEST(PackedBitmapTest, SetResetTest) {
  PackedBitmap b;
  b.assign(130, false);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(0, 130), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(0, 130), 2u);
}

TEST(PackedBitmapTest, RangeCountMatchesNaive) {
  PackedBitmap b;
  std::vector<bool> naive(200, false);
  b.assign(200, false);
  Rng rng(67);
  for (int op = 0; op < 500; ++op) {
    const std::size_t i = rng.below(200);
    if (naive[i]) {
      b.reset(i);
      naive[i] = false;
    } else {
      b.set(i);
      naive[i] = true;
    }
    const std::size_t lo = rng.below(201);
    const std::size_t hi = lo + rng.below(201 - lo);
    std::size_t expect = 0;
    for (std::size_t p = lo; p < hi; ++p) expect += naive[p];
    ASSERT_EQ(b.count(lo, hi), expect) << "[" << lo << "," << hi << ")";
  }
}

TEST(PackedBitmapTest, WordExposesRawBits) {
  PackedBitmap b;
  b.assign(128, false);
  EXPECT_EQ(b.word_count(), 2u);
  b.set(3);
  b.set(65);
  EXPECT_EQ(b.word(0), std::uint64_t{1} << 3);
  EXPECT_EQ(b.word(1), std::uint64_t{1} << 1);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 3.0);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h;
  h.add(0.0);
  h.add(10.0);
  EXPECT_NEAR(h.percentile(50), 5.0, 1e-9);
  EXPECT_NEAR(h.percentile(25), 2.5, 1e-9);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram h;
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 7.0);
}

TEST(HistogramTest, EmptyThrows) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_THROW(h.percentile(50), std::out_of_range);
  EXPECT_THROW(h.min(), std::out_of_range);
  EXPECT_THROW(h.max(), std::out_of_range);
}

TEST(HistogramTest, CdfMonotone) {
  Histogram h;
  Rng rng(59);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform(0, 100));
  double prev = -1;
  for (double x = 0; x <= 100; x += 5) {
    const double c = h.cdf_at(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.cdf_at(100.0), 1.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(-1.0), 0.0);
}

TEST(HistogramTest, CdfCountsInclusive) {
  Histogram h;
  h.add(1.0);
  h.add(2.0);
  h.add(2.0);
  h.add(3.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(h.cdf_at(1.9), 0.25);
}

TEST(BoxStatsTest, QuartilesAndOutliers) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  h.add(1000.0);  // a clear outlier
  const BoxStats b = box_stats(h);
  EXPECT_NEAR(b.median, 51.0, 1.0);
  EXPECT_LT(b.q1, b.median);
  EXPECT_GT(b.q3, b.median);
  EXPECT_EQ(b.outliers, 1u);
  EXPECT_LE(b.whisker_hi, 1000.0 - 1.0);
}

TEST(BoxStatsTest, EmptyIsZeroed) {
  Histogram h;
  const BoxStats b = box_stats(h);
  EXPECT_EQ(b.outliers, 0u);
  EXPECT_DOUBLE_EQ(b.median, 0.0);
}

TEST(FormatCdfTest, ProducesRequestedSteps) {
  Histogram h;
  h.add(1.0);
  h.add(2.0);
  const std::string out = format_cdf(h, 0, 4, 4);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

// ---------------------------------------------------------------------------
// ZeroPageArray
// ---------------------------------------------------------------------------

TEST(ZeroPageArrayTest, StartsAtZeroAcrossPages) {
  ZeroPageArray<std::uint64_t> a(3000);  // six pages
  EXPECT_EQ(a.size(), 3000u);
  EXPECT_EQ(a.bytes(), 3000u * sizeof(std::uint64_t));
  EXPECT_TRUE(std::all_of(a.data(), a.data() + a.size(),
                          [](std::uint64_t v) { return v == 0; }));
  a[0] = 1;
  a[2999] = ~std::uint64_t{0};
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[2999], ~std::uint64_t{0});
}

TEST(ZeroPageArrayTest, MoveHandsOverTheMapping) {
  ZeroPageArray<std::uint8_t> a(100);
  a[99] = 7;
  const std::uint8_t* mapping = a.data();
  ZeroPageArray<std::uint8_t> b(std::move(a));
  EXPECT_EQ(b.data(), mapping);
  EXPECT_EQ(b[99], 7u);
  ZeroPageArray<std::uint8_t> c(5);
  c = std::move(b);
  EXPECT_EQ(c.data(), mapping);
  EXPECT_EQ(c.size(), 100u);
}

TEST(ZeroPageArrayTest, EmptyHoldsNoMapping) {
  const ZeroPageArray<std::uint32_t> empty(0);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.bytes(), 0u);
  EXPECT_THROW(ZeroPageArray<std::uint64_t>(~std::size_t{0}), std::bad_alloc);
}

// ---------------------------------------------------------------------------
// parse_uint / parse_positive
// ---------------------------------------------------------------------------

TEST(ParseUintTest, AcceptsDecimalCounts) {
  EXPECT_EQ(parse_uint("1", 1, 4096), 1u);
  EXPECT_EQ(parse_uint("4", 1, 4096), 4u);
  EXPECT_EQ(parse_uint("42", 1, 4096), 42u);
  EXPECT_EQ(parse_uint("4096", 1, 4096), 4096u);
  EXPECT_EQ(parse_uint("0", 0, 4096), 0u);
  EXPECT_EQ(parse_uint("007", 1, 4096), 7u);
  EXPECT_EQ(parse_uint("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
}

TEST(ParseUintTest, RejectsMalformedText) {
  EXPECT_THROW(parse_uint("", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("0", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("4097", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("-1", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("+4", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint(" 4", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("4 ", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("4x", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("12x", 0, UINT64_MAX), std::invalid_argument);
  EXPECT_THROW(parse_uint("4.0", 1, 4096), std::invalid_argument);
  EXPECT_THROW(parse_uint("0x10", 0, UINT64_MAX), std::invalid_argument);
  EXPECT_THROW(parse_uint("1e3", 0, UINT64_MAX), std::invalid_argument);
  EXPECT_THROW(parse_uint("99999999999", 1, 4096), std::invalid_argument);
  // One past 2^64 - 1 overflows rather than saturating.
  EXPECT_THROW(parse_uint("18446744073709551616", 0, UINT64_MAX),
               std::invalid_argument);
}

TEST(ParsePositiveTest, AcceptsFinitePositiveNumbers) {
  EXPECT_DOUBLE_EQ(parse_positive("3"), 3.0);
  EXPECT_DOUBLE_EQ(parse_positive("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_positive("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_positive("2e-1"), 0.2);
}

TEST(ParsePositiveTest, RejectsMalformedOrNonPositiveText) {
  for (const char* text : {"", "abc", "1.5x", "x1.5", " 1", "1 ", "+1", "-1",
                           "0", "0.0", "inf", "nan", "1e999", "0x1p3"}) {
    EXPECT_THROW(parse_positive(text), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace adapt
