// MiDA [Park, Lee, Kim, Noh; APSys'21]: lightweight lifetime classification
// by migration count. A block that keeps surviving GC migrations is cold
// and climbs to higher-numbered groups; every group accepts both user and
// GC writes (the property behind the paper's Observation 3 padding costs).
//
// Approximation note: the original work tracks per-page migration counts on
// an SSD; we track them per LBA and apply a one-step decay on user updates
// so overwritten-then-idle blocks can warm up again. The paper's evaluation
// uses eight groups.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/zero_page_array.h"
#include "lss/placement_policy.h"

namespace adapt::placement {

class MidaPolicy final : public lss::PlacementPolicy {
 public:
  explicit MidaPolicy(std::uint64_t logical_blocks, GroupId num_groups = 8)
      : num_groups_(num_groups), migrations_(logical_blocks) {}

  std::string_view name() const override { return "mida"; }
  GroupId group_count() const override { return num_groups_; }
  bool is_user_group(GroupId) const override { return true; }

  GroupId place_user_write(Lba lba, VTime /*now*/) override {
    std::uint8_t& count = migrations_[lba];
    const GroupId g = std::min<GroupId>(count, num_groups_ - 1);
    if (count > 0) --count;  // an update is evidence of heat
    return g;
  }

  GroupId place_gc_rewrite(Lba lba, GroupId /*victim_group*/,
                           VTime /*now*/) override {
    std::uint8_t& count = migrations_[lba];
    if (count < 0xff) ++count;
    return std::min<GroupId>(count, num_groups_ - 1);
  }

  std::size_t memory_usage_bytes() const override {
    return migrations_.bytes();
  }

 private:
  GroupId num_groups_;
  /// Per-LBA GC migration count; every count starts at 0.
  ZeroPageArray<std::uint8_t> migrations_;
};

}  // namespace adapt::placement
