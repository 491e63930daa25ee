// The cascading Bloom-filter re-access identifier of Proactive Demotion
// Placement (paper §3.4).
//
// Each GC-rewritten group owns a cascade of filters. During GC, blocks that
// migrate *back into their own group* are inserted (their observed lifetime
// matches that group's segment lifetime). At user-write time the score of a
// group is the number of filters in its cascade that contain the LBA; a
// high score identifies a long-lived cold block that can skip the
// user-written groups entirely. Filters rotate FIFO through a fixed ring to
// bound memory and age out stale evidence.
//
// All groups' filters share one geometry and live in one bit-sliced bank:
// one 16-bit plane per bit position, whose bit 4g + f is filter f of group
// g. An LBA is hashed once into a BloomProbe (its bit positions), and the
// seven planes it names, ANDed, say which filters of every group hold it.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "audit/audit.h"
#include "common/types.h"

namespace adapt::core {

inline constexpr std::uint32_t kBloomHashes = 7;

/// The kBloomHashes bit positions of one LBA in filters of one geometry.
struct BloomProbe {
  std::uint64_t bit[kBloomHashes];
};

/// Bit count of a filter sized for `capacity` insertions, and the exact
/// remainder by it without a divide (Lemire, Kaser & Kurz fastmod: a
/// 128-bit reciprocal gives `x % bit_count` for every 64-bit x).
class BloomGeometry {
 public:
  /// Throws std::invalid_argument when capacity is 0.
  explicit BloomGeometry(std::uint32_t capacity);

  std::uint64_t bit_count() const noexcept { return bit_count_; }

  /// Positions (h1 + i·h2) mod bit_count for i < kBloomHashes.
  BloomProbe probe(Lba lba) const noexcept;

 private:
  std::uint64_t bit_count_;
  unsigned __int128 reciprocal_;  // ceil(2^128 / bit_count_)
};

/// The cascades of all kGroups GC groups, bit-sliced. Each group's cascade
/// is a ring of kFilters filters of `capacity` insertions at 10 bits each
/// (with 7 hashes the analytical false-positive rate at capacity is
/// ~0.8%); its newest filter takes the inserts, and when it is full the
/// next slot opens, or the oldest filter is cleared in place. Every
/// retained filter but the newest is full, so a ring is two counters: the
/// filters it has opened and the newest one's fill. The planes take 2
/// bytes per bit position: 20,480 B for filters of 1024, as 16 separate
/// filters would.
class CascadeBank {
 public:
  static constexpr std::size_t kGroups = 4;
  /// Filters per group: a 16-bit plane holds kGroups rings of kFilters.
  static constexpr std::uint32_t kFilters = 16 / kGroups;
  /// The score a demotion needs. Conservative: mis-demotions cost shadow
  /// and padding traffic that the avoided ladder migrations must pay back.
  static constexpr std::uint32_t kDemotionScore = 3;

  /// Throws std::invalid_argument when capacity is 0.
  explicit CascadeBank(std::uint32_t capacity);

  /// Records `lba` in group `group`'s newest filter, rotating its ring
  /// first when that filter is full.
  void insert(std::size_t group, Lba lba) noexcept;

  /// The §3.4 demotion choice: the first group with the strictly highest
  /// score, when that score reaches kDemotionScore, else kGroups. The LBA
  /// is not hashed while no ring has opened kDemotionScore filters.
  std::size_t pick(Lba lba) const noexcept;

  /// Number of group `group`'s filters that (probably) contain lba.
  std::uint32_t score(std::size_t group, Lba lba) const noexcept;

  std::uint64_t filter_count(std::size_t group) const noexcept {
    return std::min<std::uint64_t>(rings_[group].opened, kFilters);
  }
  std::size_t memory_usage_bytes() const noexcept {
    return planes_.capacity() * sizeof(std::uint16_t);
  }

  /// Self-audit; throws std::logic_error on violation. kCounters checks
  /// each ring's fill and the demotion gate in O(groups); kFull also scans
  /// the planes: no plane holds a bit of a slot without a filter, and no
  /// filter holds more set bits than kBloomHashes per insertion (so a
  /// freshly cleared one holds only its new insertions' bits). Which bits
  /// are set has no independently checkable ground truth.
  void check_invariants(audit::Level level) const;

 private:
  struct Ring {
    std::uint64_t opened = 0;  // filters opened, the newest in slot
                               // (opened - 1) % kFilters
    std::uint32_t fill = 0;    // insertions into the newest filter
  };

  /// Plane bit of group `group`'s newest filter.
  std::uint16_t newest_bit(std::size_t group) const noexcept {
    const auto slot = static_cast<std::uint32_t>((rings_[group].opened - 1) %
                                                 kFilters);
    return static_cast<std::uint16_t>(1u << (group * kFilters + slot));
  }
  /// Group `group`'s score in the nibbles of scores().
  static std::uint32_t group_score(std::uint32_t scores, std::size_t group) {
    return (scores >> (group * kFilters)) & 0xfu;
  }

  /// Every group's score of lba, group g's in bits [4g, 4g + 4): the AND
  /// of the planes lba hashes to, one popcount per nibble.
  std::uint32_t scores(Lba lba) const noexcept;

  BloomGeometry geometry_;
  std::uint32_t capacity_;
  bool armed_ = false;  // some ring has opened kDemotionScore filters
  std::array<Ring, kGroups> rings_{};
  std::vector<std::uint16_t> planes_;  // one per bit position
};

}  // namespace adapt::core
