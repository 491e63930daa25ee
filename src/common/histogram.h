// Simple value-accumulating histogram with exact percentile queries, plus a
// CDF builder used by the figure-reproduction benches, and a fixed-footprint
// power-of-two histogram for hot-path distributions (block lifetimes,
// GC pause durations).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace adapt {

/// Constant-time, fixed-memory histogram over unsigned values: bucket b
/// counts values whose bit width is b (bucket 0 holds zeros, bucket b >= 1
/// covers [2^(b-1), 2^b)), plus exact count/sum/max. Suitable for per-block
/// hot paths — add() is a shift, three adds, and a max — and mergeable
/// across shards like the other LssMetrics counters.
class Log2Histogram {
 public:
  /// bit_width of a uint64 ranges over [0, 64].
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v) noexcept {
    ++buckets_[std::bit_width(v)];
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t max_value() const noexcept { return max_; }
  bool empty() const noexcept { return count_ == 0; }

  std::uint64_t bucket(std::size_t b) const { return buckets_.at(b); }

  /// Smallest value bucket `b` can hold (0 for the zero bucket).
  static constexpr std::uint64_t bucket_floor(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Largest value bucket `b` can hold (capped by the observed maximum so
  /// the top bucket never extrapolates past real data).
  std::uint64_t bucket_ceil(std::size_t b) const noexcept {
    const std::uint64_t hi =
        b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
    return std::min(hi, max_);
  }

  /// Estimated percentile via nearest-rank over the power-of-two buckets
  /// with linear interpolation inside the containing bucket. The exact
  /// nearest-rank percentile lands in the same bucket, so the estimate is
  /// within a factor of 2 of it (tests/histogram_test.cpp asserts this
  /// bound against exact percentiles) while add() stays O(1) and the
  /// footprint stays fixed — unlike Histogram, which stores every sample.
  /// p in [0, 100]; throws like Histogram::percentile on empty/NaN input.
  double percentile(double p) const {
    if (count_ == 0) {
      throw std::out_of_range("Log2Histogram::percentile on empty");
    }
    if (std::isnan(p)) {
      throw std::invalid_argument("Log2Histogram::percentile: p is NaN");
    }
    p = std::clamp(p, 0.0, 100.0);
    // Nearest-rank target (1-based): the smallest value v such that at
    // least `rank` samples are <= v.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      if (cum + buckets_[b] < rank) {
        cum += buckets_[b];
        continue;
      }
      const double lo = static_cast<double>(bucket_floor(b));
      const double hi = static_cast<double>(bucket_ceil(b));
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * frac;
    }
    return static_cast<double>(max_);
  }

  /// Element-wise accumulation (shard-merge).
  void merge_from(const Log2Histogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Stores every sample; suitable for per-volume metric distributions (tens
/// of thousands of points), not per-I/O hot paths.
class Histogram {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  double sum() const noexcept;
  double mean() const noexcept;
  double min() const;
  double max() const;

  /// Exact percentile via nearest-rank; p in [0, 100]. Throws
  /// std::out_of_range on an empty histogram and std::invalid_argument when
  /// p is NaN (NaN compares false against both clamp bounds and would
  /// otherwise reach the interpolation with a NaN rank).
  double percentile(double p) const;

  /// Fraction of samples <= x (empirical CDF).
  double cdf_at(double x) const;

  const std::vector<double>& values() const noexcept { return values_; }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_values_;
  mutable bool sorted_ = false;
};

/// Boxplot summary matching the paper's per-volume WA plots.
struct BoxStats {
  double min = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double max = 0;
  double whisker_lo = 0;   ///< lowest sample >= q1 - 1.5*IQR
  double whisker_hi = 0;   ///< highest sample <= q3 + 1.5*IQR
  std::size_t outliers = 0;
};

BoxStats box_stats(const Histogram& h);

/// Renders "x<TAB>cdf" rows over evenly spaced x for textual figure output.
/// Throws std::invalid_argument unless steps > 0.
std::string format_cdf(const Histogram& h, double x_lo, double x_hi,
                       int steps);

}  // namespace adapt
