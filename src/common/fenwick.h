// Fenwick (binary indexed) tree over a fixed index range, sized at
// construction. Used by the GC victim index (occupancy counts with
// order-statistic queries).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace adapt {

class FenwickTree {
 public:
  FenwickTree() = default;
  explicit FenwickTree(std::size_t n) : tree_(n + 1, 0) {}

  std::size_t size() const noexcept {
    return tree_.empty() ? 0 : tree_.size() - 1;
  }

  /// Adds `delta` at position `i` (0-indexed); requires i < size().
  void add(std::size_t i, std::int64_t delta) {
    assert(i < size());
    for (std::size_t x = i + 1; x < tree_.size(); x += x & (~x + 1)) {
      tree_[x] += delta;
    }
  }

  /// Sum of positions [0, i] (0-indexed). i >= size() clamps to total.
  std::int64_t prefix_sum(std::size_t i) const noexcept {
    std::size_t x = i + 1;
    if (x > size()) x = size();
    std::int64_t sum = 0;
    for (; x > 0; x -= x & (~x + 1)) sum += tree_[x];
    return sum;
  }

  /// Sum of all positions.
  std::int64_t total() const noexcept {
    return size() == 0 ? 0 : prefix_sum(size() - 1);
  }

  /// Order statistic: the smallest 0-indexed position p such that
  /// prefix_sum(p) >= k (k >= 1), assuming every point value is
  /// non-negative. Returns size() when the total is below k. One
  /// binary-lifting descent, O(log size).
  std::size_t lower_bound(std::int64_t k) const noexcept {
    std::size_t pos = 0;  // 1-indexed: positions proven to hold sum < k
    std::int64_t remaining = k;
    for (std::size_t step = std::bit_floor(size()); step != 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= size() && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
    }
    return pos;  // first 0-indexed position with cumulative sum >= k
  }

 private:
  std::vector<std::int64_t> tree_;
};

}  // namespace adapt
