// Histogram edge cases: empty/single-value behaviour and the argument
// guards on percentile (NaN p) and format_cdf (non-positive steps); plus
// the Log2Histogram percentile accuracy bound against exact percentiles.
#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace adapt {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(1.0), 0.0);
  EXPECT_THROW(h.min(), std::out_of_range);
  EXPECT_THROW(h.max(), std::out_of_range);
  EXPECT_THROW(h.percentile(50), std::out_of_range);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.min(), 7.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
  for (const double p : {0.0, 25.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 7.0) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(h.cdf_at(6.9), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(7.0), 1.0);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h;
  h.add(0.0);
  h.add(10.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(-3), 0.0);   // clamps low
  EXPECT_DOUBLE_EQ(h.percentile(250), 10.0); // clamps high
}

// Regression: NaN compares false against both clamp bounds (p <= 0 and
// p >= 100), so before the guard it fell through to the interpolation and
// indexed the sorted array with a NaN-derived rank.
TEST(HistogramTest, PercentileRejectsNanP) {
  Histogram h;
  h.add(1.0);
  h.add(2.0);
  EXPECT_THROW(h.percentile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// Regression: steps == 0 divided by zero when computing the x grid (and a
// negative steps value silently produced an empty table).
TEST(HistogramTest, FormatCdfRejectsNonPositiveSteps) {
  Histogram h;
  h.add(1.0);
  EXPECT_THROW(format_cdf(h, 0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(format_cdf(h, 0.0, 1.0, -4), std::invalid_argument);
}

TEST(HistogramTest, FormatCdfRowsAndEndpoints) {
  Histogram h;
  h.add(0.5);
  const std::string table = format_cdf(h, 0.0, 1.0, 2);
  EXPECT_EQ(table, "0\t0\n0.5\t1\n1\t1\n");
}

TEST(HistogramTest, BoxStatsOnEmptyIsZeroed) {
  const BoxStats b = box_stats(Histogram{});
  EXPECT_DOUBLE_EQ(b.median, 0.0);
  EXPECT_EQ(b.outliers, 0u);
}

// ---------------------------------------------------------------------------
// Log2Histogram::percentile — the fixed-memory estimator that replaced the
// store-every-sample Histogram on the prototype's per-op latency path.

TEST(Log2HistogramPercentileTest, ThrowsLikeExactHistogram) {
  const Log2Histogram empty;
  EXPECT_THROW(empty.percentile(50), std::out_of_range);
  Log2Histogram h;
  h.add(1);
  EXPECT_THROW(h.percentile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Log2HistogramPercentileTest, SingleValueAndClamping) {
  Log2Histogram h;
  h.add(1000);
  for (const double p : {0.0, 50.0, 99.9, 100.0, -5.0, 200.0}) {
    // One sample occupies one bucket; interpolation lands on its ceiling,
    // which is capped at the observed max — exact for a singleton.
    EXPECT_DOUBLE_EQ(h.percentile(p), 1000.0) << "p=" << p;
  }
}

TEST(Log2HistogramPercentileTest, MonotoneInP) {
  Log2Histogram h;
  for (std::uint64_t v = 0; v < 4096; v += 3) h.add(v);
  double prev = h.percentile(0);
  for (double p = 1; p <= 100; p += 1) {
    const double cur = h.percentile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
}

// Accuracy bound: the exact nearest-rank percentile lands inside the same
// power-of-two bucket as the estimate, so estimate/exact must stay within
// a factor of 2 (both directions). Checked on a seeded heavy-tailed sample
// shaped like op latency — most values small, a long 2^10..2^20 tail.
TEST(Log2HistogramPercentileTest, WithinFactorTwoOfExactPercentiles) {
  Rng rng(42);
  Log2Histogram approx;
  Histogram exact;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform();
    std::uint64_t v;
    if (u < 0.9) {
      v = 200 + static_cast<std::uint64_t>(rng.uniform() * 800.0);
    } else {
      v = static_cast<std::uint64_t>(
          std::exp2(10.0 + rng.uniform() * 10.0));
    }
    approx.add(v);
    exact.add(static_cast<double>(v));
  }
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double est = approx.percentile(p);
    const double ref = exact.percentile(p);
    ASSERT_GT(ref, 0.0);
    EXPECT_LE(est / ref, 2.0) << "p=" << p;
    EXPECT_GE(est / ref, 0.5) << "p=" << p;
  }
}

TEST(Log2HistogramPercentileTest, SurvivesMerge) {
  Log2Histogram a, b;
  for (std::uint64_t v = 1; v <= 64; ++v) a.add(v);
  for (std::uint64_t v = 65; v <= 128; ++v) b.add(v);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 128u);
  // Median of 1..128 is 64; the estimate must stay in its bucket.
  const double p50 = a.percentile(50);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 128.0);
}

// Merging shards with DISJOINT value ranges must behave as if every sample
// had been added to one histogram: bucket-for-bucket, count, sum, and max
// all accumulate exactly (the property the per-shard latency_breakdown
// merge in ConcurrentEngine::latency_breakdown relies on).
TEST(Log2HistogramMergeTest, DisjointRangesMergeExactly) {
  Log2Histogram lo, hi, reference;
  for (std::uint64_t v = 0; v <= 15; ++v) {
    lo.add(v);
    reference.add(v);
  }
  for (std::uint64_t v = 1000; v <= 1015; ++v) {
    hi.add(v);
    reference.add(v);
  }
  lo.merge_from(hi);
  EXPECT_EQ(lo.count(), reference.count());
  EXPECT_EQ(lo.sum(), reference.sum());
  EXPECT_EQ(lo.max_value(), reference.max_value());
  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    EXPECT_EQ(lo.bucket(b), reference.bucket(b)) << "bucket " << b;
  }
  // Identical buckets ⇒ identical percentile estimates at every p.
  for (const double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(lo.percentile(p), reference.percentile(p)) << p;
  }
}

// merge-then-percentile vs percentile-then-merge: the merged estimate can
// differ from any aggregation of the parts' estimates, but it must stay
// bracketed by them — merging never manufactures a tail outside the parts.
TEST(Log2HistogramMergeTest, MergedPercentileBracketedByParts) {
  Log2Histogram fast, slow;
  for (std::uint64_t i = 0; i < 1000; ++i) fast.add(10 + (i % 5));
  for (std::uint64_t i = 0; i < 1000; ++i) slow.add(5000 + (i % 7) * 100);
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double lo_est = fast.percentile(p);
    const double hi_est = slow.percentile(p);
    Log2Histogram merged = fast;
    merged.merge_from(slow);
    const double m = merged.percentile(p);
    EXPECT_GE(m, std::min(lo_est, hi_est)) << "p=" << p;
    EXPECT_LE(m, std::max(lo_est, hi_est)) << "p=" << p;
  }
}

}  // namespace
}  // namespace adapt
