#include "adapt/bloom.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "common/annotations.h"
#include "common/rng.h"

namespace adapt::core {

BloomGeometry::BloomGeometry(std::uint32_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("BloomGeometry: capacity must be >= 1");
  }
  const std::uint64_t bits = std::uint64_t{capacity} * 10;
  bit_count_ = (bits + 63) / 64 * 64;
  reciprocal_ = ~static_cast<unsigned __int128>(0) / bit_count_ + 1;
}

ADAPT_HOT BloomProbe BloomGeometry::probe(Lba lba) const noexcept {
  const std::uint64_t h1 = mix64(lba);
  const std::uint64_t h2 = mix64(lba ^ 0x9e3779b97f4a7c15ULL) | 1;
  BloomProbe p{};
  std::uint64_t x = h1;  // h1 + i·h2, wrapping mod 2^64
  for (std::uint32_t i = 0; i < kBloomHashes; ++i, x += h2) {
    // x mod bit_count = high 64 bits of (low 128 bits of x·reciprocal)
    // times bit_count, exact for every 64-bit x.
    const unsigned __int128 frac = reciprocal_ * x;
    const unsigned __int128 low_part =
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(frac)) *
         bit_count_) >>
        64;
    p.bit[i] = static_cast<std::uint64_t>(
        (low_part + (frac >> 64) * bit_count_) >> 64);
  }
  return p;
}

CascadeBank::CascadeBank(std::uint32_t capacity)
    : geometry_(capacity), capacity_(capacity) {
  planes_.assign(geometry_.bit_count(), 0);
}

ADAPT_HOT void CascadeBank::insert(std::size_t group, Lba lba) noexcept {
  Ring& ring = rings_[group];
  if (ring.opened == 0 || ring.fill == capacity_) {
    // Rotate: open the next slot; once all are open, that is the oldest,
    // cleared in place.
    ++ring.opened;
    ring.fill = 0;
    if (ring.opened > kFilters) {
      const auto keep = static_cast<std::uint16_t>(~newest_bit(group));
      for (std::uint16_t& plane : planes_) plane &= keep;
    }
    if (ring.opened == kDemotionScore) armed_ = true;
  }
  const std::uint16_t bit = newest_bit(group);
  for (const std::uint64_t b : geometry_.probe(lba).bit) planes_[b] |= bit;
  ++ring.fill;
}

ADAPT_HOT std::uint32_t CascadeBank::scores(Lba lba) const noexcept {
  std::uint32_t hits = 0xffff;
  for (const std::uint64_t b : geometry_.probe(lba).bit) hits &= planes_[b];
  // Two SWAR steps leave each nibble holding its own popcount.
  hits -= (hits >> 1) & 0x5555u;
  return (hits & 0x3333u) + ((hits >> 2) & 0x3333u);
}

ADAPT_HOT std::size_t CascadeBank::pick(Lba lba) const noexcept {
  if (!armed_) return kGroups;
  const std::uint32_t all = scores(lba);
  std::size_t best = kGroups;
  std::uint32_t need = kDemotionScore;  // the score a later group must reach
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::uint32_t s = group_score(all, g);
    if (s >= need) {
      best = g;
      need = s + 1;
    }
  }
  return best;
}

std::uint32_t CascadeBank::score(std::size_t group, Lba lba) const noexcept {
  return group_score(scores(lba), group);
}

void CascadeBank::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("CascadeBank invariant violated: ") +
                           what);
  };
  if (planes_.size() != geometry_.bit_count()) fail("plane count drifted");
  bool armed = false;
  for (const Ring& ring : rings_) {
    // An opened filter holds at least the insert that opened it.
    if ((ring.opened == 0) != (ring.fill == 0)) fail("fill without a filter");
    if (ring.fill > capacity_) fail("filter filled past its capacity");
    armed = armed || ring.opened >= kDemotionScore;
  }
  if (armed != armed_) fail("demotion gate out of step with the rings");
  if (level != audit::Level::kFull) return;
  // Set bits per slot, over every plane.
  std::array<std::uint64_t, kGroups * kFilters> bits_set{};
  for (std::uint16_t plane : planes_) {
    for (; plane != 0; plane &= static_cast<std::uint16_t>(plane - 1)) {
      ++bits_set[static_cast<std::size_t>(std::countr_zero(plane))];
    }
  }
  for (std::size_t g = 0; g < kGroups; ++g) {
    const Ring& ring = rings_[g];
    for (std::uint32_t f = 0; f < kFilters; ++f) {
      // Each insertion sets at most kBloomHashes bits, so a slot without a
      // filter has none. Every opened slot but the newest is full.
      std::uint64_t inserted = 0;
      if (f < ring.opened) {
        inserted = f == (ring.opened - 1) % kFilters ? ring.fill : capacity_;
      }
      if (bits_set[g * kFilters + f] > kBloomHashes * inserted) {
        fail(inserted == 0 ? "plane holds a bit of an empty slot"
                           : "filter holds more bits than its insertions set");
      }
    }
  }
}

}  // namespace adapt::core
