// SepBIT [Wang et al.; FAST'22]: separates blocks by inferred Block
// Invalidation Time.
//
// User writes: when a write overwrites a previous version, the previous
// version's lifespan v = now - last_write is an inferred BIT sample; the
// new version is predicted short-lived (Class 1, hot) if v < l, where l is
// the running average lifespan of Class-1 segments, else Class 2 (cold).
// GC rewrites: residual lifespan is estimated from the block age
// (now - version birth); classes 3-6 hold progressively older blocks with
// geometric boundaries in multiples of l.
//
// The inference also takes l as a parameter (user_class / gc_class), so
// ADAPT (adapt/adapt_policy.h) classifies through it under its own
// threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/annotations.h"
#include "common/prefetch.h"
#include "common/zero_page_array.h"
#include "lss/placement_policy.h"

namespace adapt::placement {

class SepBitPolicy final : public lss::PlacementPolicy {
 public:
  static constexpr GroupId kHotUser = 0;   // Class 1
  static constexpr GroupId kColdUser = 1;  // Class 2
  static constexpr GroupId kFirstGcGroup = 2;  // Classes 3-6 -> groups 2-5.
  static constexpr GroupId kGcGroups = 4;
  /// last_write() of a block no user write has reached yet.
  static constexpr VTime kNeverWritten = ~VTime{0};

  SepBitPolicy(std::uint64_t logical_blocks, std::uint32_t segment_blocks)
      : last_write_(logical_blocks),
        threshold_(static_cast<double>(segment_blocks) * 4.0) {}

  std::string_view name() const override { return "sepbit"; }
  GroupId group_count() const override { return kFirstGcGroup + kGcGroups; }
  bool is_user_group(GroupId g) const override { return g <= kColdUser; }

  GroupId place_user_write(Lba lba, VTime now) override {
    return user_class(lba, now, threshold_);
  }

  /// user_class reads and rewrites lba's last-write slot: one entry of an
  /// array as large as the logical space.
  ADAPT_HOT void prefetch_user_write(Lba lba) const noexcept override {
    if (lba < last_write_.size()) prefetch_for_write(last_write_.data() + lba);
  }

  GroupId place_gc_rewrite(Lba lba, GroupId /*victim_group*/,
                           VTime now) override {
    return gc_class(lba, now, threshold_);
  }

  void note_segment_reclaimed(GroupId group, VTime create_vtime,
                              VTime now) override {
    if (group != kHotUser) return;
    // l <- running average lifespan of Class-1 segments.
    const auto lifespan = static_cast<double>(now - create_vtime);
    threshold_ = (1.0 - kEwma) * threshold_ + kEwma * lifespan;
  }

  /// Records a user write of `lba` at `now` and classifies the new version
  /// under threshold `l`: hot if the version it overwrites lived less than l.
  GroupId user_class(Lba lba, VTime now, double l) {
    const VTime last = last_write(lba);
    last_write_[lba] = ~now;
    if (last == kNeverWritten) return kColdUser;
    const auto lifespan = static_cast<double>(now - last);
    return lifespan < l ? kHotUser : kColdUser;
  }

  /// GC class of `lba`'s current version under threshold `l`, from the age
  /// since its user write.
  GroupId gc_class(Lba lba, VTime now, double l) const {
    const VTime birth = last_write(lba);
    const auto age = static_cast<double>(
        birth == kNeverWritten ? now : now - birth);
    if (age < 4.0 * l) return kFirstGcGroup;
    if (age < 16.0 * l) return kFirstGcGroup + 1;
    if (age < 64.0 * l) return kFirstGcGroup + 2;
    return kFirstGcGroup + 3;
  }

  VTime last_write(Lba lba) const { return ~last_write_[lba]; }

  /// l: the running average lifespan of Class-1 segments.
  double threshold() const noexcept { return threshold_; }

  std::size_t memory_usage_bytes() const override {
    return last_write_.bytes();
  }

 private:
  static constexpr double kEwma = 0.125;

  /// last_write_[lba] = ~(vtime of lba's last user write), so the zero
  /// page reads as kNeverWritten.
  ZeroPageArray<VTime> last_write_;
  double threshold_;
};

}  // namespace adapt::placement
