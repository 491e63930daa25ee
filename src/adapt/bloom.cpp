#include "adapt/bloom.h"

#include <algorithm>
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

BloomFilter::BloomFilter(std::uint32_t capacity)
    : geometry_(capacity),
      capacity_(capacity),
      bits_(geometry_.words(), 0) {}

ADAPT_HOT void BloomFilter::insert(const BloomProbe& probe) noexcept {
  for (const std::uint64_t bit : probe.bit) {
    bits_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  ++inserted_;
}

ADAPT_HOT bool BloomFilter::maybe_contains(
    const BloomProbe& probe) const noexcept {
  for (const std::uint64_t bit : probe.bit) {
    if ((bits_[bit >> 6] & (std::uint64_t{1} << (bit & 63))) == 0) {
      return false;
    }
  }
  return true;
}

ADAPT_HOT void BloomFilter::clear() noexcept {
  std::fill(bits_.begin(), bits_.end(), std::uint64_t{0});
  inserted_ = 0;
}

std::uint64_t BloomFilter::bits_set() const noexcept {
  std::uint64_t set = 0;
  for (const std::uint64_t word : bits_) {
    set += static_cast<std::uint64_t>(std::popcount(word));
  }
  return set;
}

CascadeDiscriminator::CascadeDiscriminator(std::uint32_t max_filters,
                                           std::uint32_t filter_capacity) {
  if (max_filters == 0) {
    throw std::invalid_argument(
        "CascadeDiscriminator: max_filters must be >= 1");
  }
  ring_.assign(max_filters, BloomFilter(filter_capacity));
}

ADAPT_HOT void CascadeDiscriminator::insert(
    const BloomProbe& probe) noexcept {
  if (used_ == 0 || ring_[newest_].full()) {
    // Rotate: take the next unused slot, or clear the oldest in place.
    if (used_ < ring_.size()) {
      newest_ = used_++;
    } else {
      newest_ = newest_ + 1 == used_ ? 0 : newest_ + 1;
      ring_[newest_].clear();
    }
  }
  // BloomFilter::insert sets bits in its fixed array; it never allocates.
  ring_[newest_].insert(probe);  // ADAPT_LINT_ALLOW(hot-alloc)
  ++total_inserted_;
}

ADAPT_HOT std::uint32_t CascadeDiscriminator::score_at_least(
    const BloomProbe& probe, std::uint32_t need) const noexcept {
  // `reachable` is the hits so far plus the filters not yet probed.
  std::uint32_t reachable = used_;
  if (reachable < need) return 0;
  std::uint32_t hits = 0;
  for (std::uint32_t i = 0; i < used_; ++i) {
    if (ring_[i].maybe_contains(probe)) {
      ++hits;
    } else if (--reachable < need) {
      return 0;
    }
  }
  return hits;
}

ADAPT_HOT std::size_t pick_cascade(
    std::span<const CascadeDiscriminator> cascades, Lba lba,
    std::uint32_t threshold) noexcept {
  std::size_t best = cascades.size();
  std::uint32_t need = threshold;  // the score a later cascade must reach
  BloomProbe probe{};
  bool probed = false;
  for (std::size_t g = 0; g < cascades.size(); ++g) {
    const CascadeDiscriminator& cascade = cascades[g];
    if (cascade.filter_count() < need) continue;
    if (!probed) {
      probe = cascade.probe(lba);
      probed = true;
    }
    const std::uint32_t s = cascade.score_at_least(probe, need);
    if (s != 0) {
      best = g;
      need = s + 1;
    }
  }
  return best;
}

void CascadeDiscriminator::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(
        std::string("CascadeDiscriminator invariant violated: ") + what);
  };
  const std::size_t slots = ring_.size();
  if (slots == 0) fail("empty ring");
  if (used_ > slots) fail("more filters than ring slots");
  if (used_ < slots && used_ != 0 && newest_ + 1 != used_) {
    fail("ring filled out of slot order");
  }
  if (used_ != 0 && newest_ >= used_) fail("newest filter in an unused slot");
  // Age order starts one past the newest slot once the ring has wrapped.
  const std::size_t oldest = used_ < slots ? 0 : (newest_ + 1) % slots;
  std::uint64_t retained = 0;
  for (std::size_t k = 0; k < slots; ++k) {
    const BloomFilter& f = ring_[(oldest + k) % slots];
    // FIFO fill discipline: only the newest filter may be partial.
    if (k + 1 < used_ && !f.full()) {
      fail("partial filter that is not the newest");
    }
    if (k >= used_ && f.inserted() != 0) fail("unused slot holds insertions");
    if (f.inserted() > f.capacity()) fail("filter filled past its capacity");
    retained += f.inserted();
  }
  if (retained > total_inserted_) {
    fail("retained insertions exceed the running total");
  }
  if (level != audit::Level::kFull) return;
  const BloomFilter& front = ring_.front();
  for (const BloomFilter& f : ring_) {
    if (f.capacity() != front.capacity() ||
        f.geometry().bit_count() != front.geometry().bit_count()) {
      fail("filter geometry drifted");
    }
    if (f.memory_usage_bytes() == 0) fail("filter lost its bit array");
    // Each insertion sets at most kBloomHashes bits, so an unused or
    // cleared slot has none.
    if (f.bits_set() > std::uint64_t{kBloomHashes} * f.inserted()) {
      fail("filter holds more bits than its insertions set");
    }
  }
}

std::size_t CascadeDiscriminator::memory_usage_bytes() const noexcept {
  std::size_t total = 0;
  for (const BloomFilter& f : ring_) total += f.memory_usage_bytes();
  return total;
}

}  // namespace adapt::core
