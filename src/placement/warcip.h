// WARCIP [Yang, Pei, Yang; SYSTOR'19]: clusters pages by rewrite interval
// so that pages with similar update cadence share segments.
//
// We keep the paper's evaluation configuration (five user-write clusters +
// one GC rewrite group) and model the clustering as online 1-D k-means in
// log2(interval) space: each write is assigned to the nearest centroid and
// pulls it by an EWMA step. Blocks without history join the coldest
// cluster.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/zero_page_array.h"
#include "lss/placement_policy.h"

namespace adapt::placement {

class WarcipPolicy final : public lss::PlacementPolicy {
 public:
  WarcipPolicy(std::uint64_t logical_blocks, std::uint32_t segment_blocks,
               GroupId user_clusters = 5)
      : user_clusters_(user_clusters),
        last_write_(logical_blocks) {
    // Spread initial centroids geometrically from one segment's worth of
    // writes upwards (x16 per cluster).
    centroids_.reserve(user_clusters_);
    double c = std::log2(static_cast<double>(segment_blocks));
    for (GroupId i = 0; i < user_clusters_; ++i) {
      centroids_.push_back(c);
      c += 4.0;  // 16x interval steps
    }
  }

  std::string_view name() const override { return "warcip"; }
  GroupId group_count() const override { return user_clusters_ + 1; }
  bool is_user_group(GroupId g) const override { return g < user_clusters_; }

  GroupId place_user_write(Lba lba, VTime now) override {
    const VTime last = ~last_write_[lba];
    last_write_[lba] = ~now;
    if (last == kNeverWritten) return user_clusters_ - 1;  // coldest
    const double log_interval =
        std::log2(static_cast<double>(now - last) + 1.0);
    // Nearest centroid; centroids stay sorted because they only move
    // towards points assigned to them.
    GroupId best = 0;
    double best_dist = std::abs(log_interval - centroids_[0]);
    for (GroupId i = 1; i < user_clusters_; ++i) {
      const double d = std::abs(log_interval - centroids_[i]);
      if (d < best_dist) {
        best_dist = d;
        best = i;
      }
    }
    centroids_[best] += kLearningRate * (log_interval - centroids_[best]);
    return best;
  }

  GroupId place_gc_rewrite(Lba /*lba*/, GroupId /*victim_group*/,
                           VTime /*now*/) override {
    return user_clusters_;  // single rewrite group
  }

  std::size_t memory_usage_bytes() const override {
    return last_write_.bytes() +
           centroids_.capacity() * sizeof(double);
  }

 private:
  static constexpr VTime kNeverWritten = ~VTime{0};
  static constexpr double kLearningRate = 0.05;

  GroupId user_clusters_;
  /// last_write_[lba] = ~(vtime of lba's last write), so the zero page
  /// reads as kNeverWritten.
  ZeroPageArray<VTime> last_write_;
  std::vector<double> centroids_;
};

}  // namespace adapt::placement
