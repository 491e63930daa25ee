// DAC — Dynamic dAta Clustering [Chiang, Lee, Chang; SP&E'99].
//
// Temperature ladder of N regions. A block promotes one region hotter each
// time the user updates it and demotes one region colder each time GC has
// to migrate it (a migration means it survived a whole segment lifetime
// without being overwritten). User and GC writes share the groups; the
// paper configures five.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/zero_page_array.h"
#include "lss/placement_policy.h"

namespace adapt::placement {

class DacPolicy final : public lss::PlacementPolicy {
 public:
  DacPolicy(std::uint64_t logical_blocks, GroupId num_groups = 5)
      : num_groups_(num_groups), level_(logical_blocks) {}

  std::string_view name() const override { return "dac"; }
  GroupId group_count() const override { return num_groups_; }
  bool is_user_group(GroupId) const override { return true; }

  GroupId place_user_write(Lba lba, VTime /*now*/) override {
    std::uint8_t level = level_of(lba);
    if (level == kNever) {
      level = 0;  // first write: coldest region
    } else if (static_cast<GroupId>(level) + 1 < num_groups_) {
      ++level;  // update: promote one region hotter
    }
    set_level(lba, level);
    return level;
  }

  GroupId place_gc_rewrite(Lba lba, GroupId /*victim_group*/,
                           VTime /*now*/) override {
    std::uint8_t level = level_of(lba);
    if (level == kNever) return 0;
    if (level > 0) set_level(lba, --level);  // survivor: demote
    return level;
  }

  std::size_t memory_usage_bytes() const override { return level_.bytes(); }

 private:
  static constexpr std::uint8_t kNever = 0xff;

  /// level_ stores each region's complement, so the zero page reads as
  /// kNever.
  std::uint8_t level_of(Lba lba) const {
    return static_cast<std::uint8_t>(~level_[lba]);
  }
  void set_level(Lba lba, std::uint8_t level) {
    level_[lba] = static_cast<std::uint8_t>(~level);
  }

  GroupId num_groups_;
  ZeroPageArray<std::uint8_t> level_;
};

}  // namespace adapt::placement
