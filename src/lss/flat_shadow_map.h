// FlatShadowMap: open-addressing hash table for the BlockMap shadow index.
//
// The shadow map is small (bounded by the pending blocks across open
// chunks) but sits on the per-write hot path: every user write probes it in
// invalidate(), every flushed slot probes it in the shadow-expiry scan, and
// GC probes it per migrated block. std::unordered_map pays a prime-modulus
// division plus a node pointer chase per probe; this table is a power-of-two
// robin-hood array with backward-shift deletion, so a probe is one mix, one
// mask, and (at the load factors we run) almost always one contiguous slot
// read. No tombstones: erase backshifts the displaced run, so the layout
// (and with it the iteration order) is a pure function of the insert/erase
// sequence — no pointer-keyed or allocation-order state — which keeps
// iteration deterministic for the pinned fixed-seed regressions.
//
// Empty slots are keyed kInvalidLba, which no real logical block can use
// (LBAs are bounded by logical_blocks), so occupancy needs no separate
// metadata. Each slot carries its key's mixed hash: probe-distance
// comparisons (the robin-hood displacement rule and the early-exit on
// lookup misses) then cost one subtract-and-mask instead of re-mixing the
// occupant's key on every probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "lss/segment.h"

namespace adapt::lss {

class FlatShadowMap {
 public:
  FlatShadowMap() = default;

  /// Grows capacity so `expected` entries fit without rehashing. Existing
  /// entries are preserved. Sizing hint: shadows exist only while their
  /// lazy-append originals are pending, so group_count * chunk_blocks
  /// bounds the live set and makes steady state rehash-free.
  void reserve(std::size_t expected) {
    const std::size_t needed = capacity_for(expected);
    if (needed > slots_.size()) rehash(needed);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t memory_usage_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

  ADAPT_HOT bool contains(Lba lba) const noexcept {
    return find_index(lba) != kNpos;
  }

  /// Where lba's shadow copy sits, or kNowhere when it has none.
  ADAPT_HOT BlockLocation find(Lba lba) const noexcept {
    const std::size_t i = find_index(lba);
    return i == kNpos ? kNowhere : slots_[i].loc;
  }

  /// Hot-path contract: steady state never grows (reserve() pre-sizes to
  /// the live-shadow bound), so the rehash slow path below stays outlined
  /// and this body allocates nothing once warmed.
  ADAPT_HOT void insert_or_assign(Lba lba, BlockLocation loc) {
    if (lba == kInvalidLba) {
      throw std::invalid_argument("FlatShadowMap: reserved key");
    }
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    place(Slot{lba, mix(lba), loc});
  }

  /// Removes lba's entry via backward-shift deletion; returns whether an
  /// entry existed.
  ADAPT_HOT bool erase(Lba lba) noexcept {
    std::size_t i = find_index(lba);
    if (i == kNpos) return false;
    // Shift the displaced run back one slot until a hole or a home slot.
    std::size_t j = (i + 1) & mask_;
    while (slots_[j].key != kInvalidLba && probe_distance(j) > 0) {
      slots_[i] = slots_[j];
      i = j;
      j = (j + 1) & mask_;
    }
    slots_[i].key = kInvalidLba;
    --size_;
    return true;
  }

  /// Deterministic iteration in slot order, yielding (lba, location) pairs
  /// like the std::unordered_map interface this table replaced.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::pair<Lba, BlockLocation>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator(const FlatShadowMap* map, std::size_t index) noexcept
        : map_(map), index_(index) {
      skip_empty();
    }

    std::pair<Lba, BlockLocation> operator*() const noexcept {
      return {map_->slots_[index_].key, map_->slots_[index_].loc};
    }

    const_iterator& operator++() noexcept {
      ++index_;
      skip_empty();
      return *this;
    }

    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    void skip_empty() noexcept {
      while (index_ < map_->slots_.size() &&
             map_->slots_[index_].key == kInvalidLba) {
        ++index_;
      }
    }

    const FlatShadowMap* map_;
    std::size_t index_;
  };

  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, slots_.size()}; }

  /// Counters-tier self-audit: the occupancy count must match size_ and
  /// every stored key must be reachable by its own probe sequence (the
  /// robin-hood layout invariant). Throws std::logic_error on violation.
  void check_counters() const {
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].key == kInvalidLba) continue;
      ++occupied;
      if (find_index(slots_[i].key) != i) {
        throw std::logic_error("FlatShadowMap: unreachable stored key");
      }
    }
    if (occupied != size_) {
      throw std::logic_error("FlatShadowMap: size out of sync");
    }
  }

 private:
  struct Slot {
    Lba key = kInvalidLba;
    std::uint64_t hash = 0;  ///< mix(key), cached so probes never re-mix
    BlockLocation loc;
  };

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  /// Fibonacci (multiplicative) hash: one multiply by 2^64/phi, with the
  /// well-mixed high bits selected by `home()`'s down-shift. Sequential or
  /// strided LBAs land uniformly; cheaper than a full avalanche finalizer
  /// on a path probed several times per write.
  static std::uint64_t mix(Lba lba) noexcept {
    return lba * 0x9e3779b97f4a7c15ULL;
  }

  /// Smallest power-of-two capacity keeping `expected` under 7/8 load.
  static std::size_t capacity_for(std::size_t expected) noexcept {
    std::size_t cap = kMinCapacity;
    while (expected * 8 > cap * 7) cap *= 2;
    return cap;
  }

  /// Home slot for a mixed hash: the high log2(capacity) bits.
  std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> shift_);
  }

  /// How far slot `i`'s occupant sits from its home slot.
  std::size_t probe_distance(std::size_t i) const noexcept {
    return (i - home(slots_[i].hash)) & mask_;
  }

  /// Index of lba's slot, or kNpos. The robin-hood invariant (stored
  /// distances never decrease along a probe run) lets the scan stop as
  /// soon as it passes a slot closer to its home than we are to ours.
  ADAPT_HOT std::size_t find_index(Lba lba) const noexcept {
    if (size_ == 0) return kNpos;
    std::size_t i = home(mix(lba));
    for (std::size_t d = 0;; ++d, i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == lba) return i;
      if (s.key == kInvalidLba || probe_distance(i) < d) return kNpos;
    }
  }

  /// Robin-hood insert of `incoming` (capacity already ensured). Assigns in
  /// place when the key exists: the invariant guarantees the existing entry
  /// is met before any swap can trigger.
  ADAPT_HOT void place(Slot incoming) {
    std::size_t i = home(incoming.hash);
    for (std::size_t d = 0;; ++d, i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == kInvalidLba) {
        s = incoming;
        ++size_;
        return;
      }
      if (s.key == incoming.key) {
        s.loc = incoming.loc;
        return;
      }
      const std::size_t held = probe_distance(i);
      if (held < d) {
        std::swap(s, incoming);
        d = held;
      }
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    shift_ = 64;
    for (std::size_t c = new_capacity; c > 1; c /= 2) --shift_;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kInvalidLba) place(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(capacity); home() down-shift
  std::size_t size_ = 0;
};

}  // namespace adapt::lss
