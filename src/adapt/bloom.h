// Bloom filter and the cascading discriminator used by Proactive Demotion
// Placement (paper §3.4).
//
// Each GC-rewritten group owns one CascadeDiscriminator. During GC, blocks
// that migrate *back into their own group* are inserted (their observed
// lifetime matches that group's segment lifetime). At user-write time the
// score of a group is the number of filters in its cascade that contain the
// LBA; a high score identifies a long-lived cold block that can skip the
// user-written groups entirely. Filters rotate FIFO through a fixed ring to
// bound memory and age out stale evidence.
//
// Every filter of one capacity shares one geometry, so an LBA is hashed
// once into a BloomProbe (its bit positions) and every filter that probe
// meets only tests or sets bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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
  std::size_t words() const noexcept { return bit_count_ / 64; }

  /// Positions (h1 + i·h2) mod bit_count for i < kBloomHashes.
  BloomProbe probe(Lba lba) const noexcept;

 private:
  std::uint64_t bit_count_;
  unsigned __int128 reciprocal_;  // ceil(2^128 / bit_count_)
};

class BloomFilter {
 public:
  /// `capacity` expected insertions at 10 bits each; with 7 hashes the
  /// analytical false-positive rate at capacity is ~0.8%.
  explicit BloomFilter(std::uint32_t capacity);

  void insert(Lba lba) noexcept { insert(geometry_.probe(lba)); }
  bool maybe_contains(Lba lba) const noexcept {
    return maybe_contains(geometry_.probe(lba));
  }

  /// `probe` must come from a filter of the same capacity.
  void insert(const BloomProbe& probe) noexcept;
  bool maybe_contains(const BloomProbe& probe) const noexcept;

  /// Empties the filter in place, keeping its bit array.
  void clear() noexcept;

  const BloomGeometry& geometry() const noexcept { return geometry_; }
  std::uint32_t inserted() const noexcept { return inserted_; }
  std::uint32_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return inserted_ >= capacity_; }
  std::uint64_t bits_set() const noexcept;

  std::size_t memory_usage_bytes() const noexcept {
    return bits_.capacity() * sizeof(std::uint64_t);
  }

 private:
  BloomGeometry geometry_;
  std::uint32_t capacity_;
  std::uint32_t inserted_ = 0;
  std::vector<std::uint64_t> bits_;
};

class CascadeDiscriminator {
 public:
  /// Keeps at most `max_filters` filters of `filter_capacity` LBAs each in
  /// a ring allocated here; a rotation clears the oldest filter in place.
  /// Throws std::invalid_argument when either argument is 0.
  CascadeDiscriminator(std::uint32_t max_filters,
                       std::uint32_t filter_capacity);

  BloomProbe probe(Lba lba) const noexcept {
    return ring_.front().geometry().probe(lba);
  }

  void insert(Lba lba) noexcept { insert(probe(lba)); }
  void insert(const BloomProbe& probe) noexcept;

  /// Number of filters that (probably) contain lba — in [0, max_filters].
  std::uint32_t score(Lba lba) const noexcept {
    return score_at_least(probe(lba), 0);
  }

  /// The score of `probe` when it is at least `need`, else 0. Stops
  /// probing filters once `need` is out of reach.
  std::uint32_t score_at_least(const BloomProbe& probe,
                               std::uint32_t need) const noexcept;

  std::size_t filter_count() const noexcept { return used_; }
  std::uint64_t total_inserted() const noexcept { return total_inserted_; }
  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks the
  /// FIFO rotation discipline in O(filters); kFull additionally verifies
  /// every slot's geometry and that no slot holds more set bits than
  /// kBloomHashes per insertion (so an unused or freshly cleared slot has
  /// none). Which bits are set has no independently checkable ground truth.
  void check_invariants(audit::Level level) const;

 private:
  std::vector<BloomFilter> ring_;  // slots [0, used_) hold filters
  std::uint32_t used_ = 0;
  std::uint32_t newest_ = 0;
  std::uint64_t total_inserted_ = 0;
};

/// The §3.4 demotion choice: the index of the first cascade with the
/// strictly highest score, when that score reaches `threshold` (>= 1), else
/// cascades.size(). All cascades must share one filter capacity. The LBA
/// is hashed at most once, and only what can still win is probed: a
/// cascade holding fewer filters than the score it must reach is skipped
/// (so after a full-ring score nothing more is probed), and a count stops
/// once that score is out of reach.
std::size_t pick_cascade(std::span<const CascadeDiscriminator> cascades,
                         Lba lba, std::uint32_t threshold) noexcept;

}  // namespace adapt::core
