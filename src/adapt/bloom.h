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
/// is a ring of up to `filters` filters of `capacity` insertions at 10 bits
/// each (with 7 hashes the analytical false-positive rate at capacity is
/// ~0.8%); its newest filter takes the inserts, and when it is full the
/// next slot opens, or the oldest filter is cleared in place. The planes
/// take 2 bytes per bit position whatever `filters` is: 20,480 B for 4
/// filters of 1024, as 16 separate filters would, but 4× the bytes of
/// four one-filter rings.
class CascadeBank {
 public:
  static constexpr std::size_t kGroups = 4;
  /// Filters per group that a 16-bit plane holds for kGroups groups.
  static constexpr std::uint32_t kMaxFilters = 16 / kGroups;

  /// Throws std::invalid_argument unless 1 <= filters <= kMaxFilters and
  /// capacity >= 1.
  CascadeBank(std::uint32_t filters, std::uint32_t capacity);

  /// Records `lba` in group `group`'s newest filter, rotating its ring
  /// first when that filter is full.
  void insert(std::size_t group, Lba lba) noexcept;

  /// The §3.4 demotion choice: the first group with the strictly highest
  /// score, when that score reaches `threshold` (>= 1), else kGroups. The
  /// LBA is not hashed while no ring holds `threshold` filters.
  std::size_t pick(Lba lba, std::uint32_t threshold) const noexcept;

  /// Number of group `group`'s filters that (probably) contain lba.
  std::uint32_t score(std::size_t group, Lba lba) const noexcept;

  std::uint32_t filter_count(std::size_t group) const noexcept {
    return rings_[group].used;
  }
  std::uint64_t total_inserted(std::size_t group) const noexcept {
    return rings_[group].total_inserted;
  }
  std::size_t memory_usage_bytes() const noexcept {
    return planes_.capacity() * sizeof(std::uint16_t);
  }

  /// Self-audit; throws std::logic_error on violation. kCounters checks
  /// each ring's FIFO discipline in O(groups · filters); kFull also scans
  /// the planes: no plane holds a bit of a slot without a filter, and no
  /// filter holds more set bits than kBloomHashes per insertion (so a
  /// freshly cleared one holds only its new insertions' bits). Which bits
  /// are set has no independently checkable ground truth.
  void check_invariants(audit::Level level) const;

 private:
  struct Ring {
    std::uint32_t used = 0;    // slots [0, used) hold filters
    std::uint32_t newest = 0;  // the slot inserts go to
    std::uint64_t total_inserted = 0;
    std::array<std::uint32_t, kMaxFilters> inserted{};  // per slot
  };

  /// Plane bit of group `group`'s slot `slot`.
  static std::uint16_t slot_bit(std::size_t group, std::uint32_t slot) {
    return static_cast<std::uint16_t>(1u << (group * kMaxFilters + slot));
  }
  /// Group `group`'s score in the nibbles of scores().
  static std::uint32_t group_score(std::uint32_t scores, std::size_t group) {
    return (scores >> (group * kMaxFilters)) & 0xfu;
  }

  /// Every group's score of lba, group g's in bits [4g, 4g + 4): the AND
  /// of the planes lba hashes to, one popcount per nibble.
  std::uint32_t scores(Lba lba) const noexcept;

  BloomGeometry geometry_;
  std::uint32_t filters_;
  std::uint32_t capacity_;
  std::uint32_t longest_ring_ = 0;  // max over the rings' `used`
  std::array<Ring, kGroups> rings_{};
  std::vector<std::uint16_t> planes_;  // one per bit position
};

}  // namespace adapt::core
