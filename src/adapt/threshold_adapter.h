// Density-Aware Threshold Adaptation (paper §3.2).
//
// Blocks are sampled by a uniform hash of their LBA, after SHARDS
// [Waldspurger et al., FAST'15]. The adapter numbers each sampled block
// densely on its first write (an insert-only open-addressing index), keeps
// its last-write time in an array by that number, and feeds a bank of
// ghost sets the number and the raw interval since the previous write —
// user blocks written, the unit SepBIT measures lifespans in and the
// placement threshold is applied in. Each ghost set
// simulates the user-written groups under a different hot/cold threshold.
// Thresholds start on an exponentially growing window (segment_size * 2^i);
// after the first adoption the window switches to linear steps
// (granularity = one segment) spanning the neighbours of the previous
// winner, and falls back to the exponential window when the winner sits on
// the window edge (monotone WA). A new configuration is adopted when the
// write volume since the last adoption exceeds 10% of capacity and the
// ghosts are stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adapt/ghost_set.h"
#include "audit/audit.h"
#include "common/rng.h"
#include "common/types.h"

namespace adapt::core {

/// Uniform spatial sampler: an LBA is in-sample iff hash(lba) < rate * 2^64.
class SpatialSampler {
 public:
  explicit SpatialSampler(double rate);

  double rate() const noexcept { return rate_; }
  bool sampled(Lba lba) const noexcept {
    return mix64(lba ^ kSalt) < cutoff_;
  }

 private:
  static constexpr std::uint64_t kSalt = 0x5bd1e995u;

  double rate_;
  std::uint64_t cutoff_;
};

struct AdapterConfig {
  /// Spatial sampling rate; <= 0 auto-sizes so that roughly 4096 blocks of
  /// the logical space are sampled (the paper uses 0.001 on multi-TB
  /// volumes; small simulated volumes need a proportionally higher rate to
  /// keep the ghost statistics meaningful).
  double sample_rate = 0.0;
  std::uint32_t num_ghosts = 7;
  std::uint32_t segment_blocks = 1024;  ///< real segment size
  std::uint64_t logical_blocks = 1u << 20;
  double over_provision = 0.25;
  /// Adoption cadence: paper uses 10% of storage capacity.
  double update_fraction = 0.10;
};

class ThresholdAdapter {
 public:
  enum class Phase { kExponential, kLinear };

  explicit ThresholdAdapter(const AdapterConfig& config);

  /// Feeds one user write. Returns true if the adopted threshold changed.
  bool on_user_write(Lba lba, VTime now);

  /// Currently adopted hot/cold threshold, in blocks of write interval.
  std::uint64_t threshold() const noexcept { return current_threshold_; }

  /// True once at least one adoption happened (before that, callers should
  /// fall back to their cold-start heuristic).
  bool adopted() const noexcept { return adoptions_ > 0; }
  std::uint64_t adoptions() const noexcept { return adoptions_; }

  Phase phase() const noexcept { return phase_; }
  std::vector<std::uint64_t> ghost_thresholds() const;
  const std::vector<GhostSet>& ghosts() const noexcept { return ghosts_; }
  std::uint64_t sampled_writes() const noexcept { return sampled_writes_; }

  /// Models the paper's §4.4 hash layout like GhostSet does: 40 B per
  /// sampled block for a last-write hash map (paper: ≈44 B) plus every
  /// ghost's modelled footprint. It is not what the flat index allocates.
  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks
  /// the ghost-bank shape and sampling counters in O(ghosts); kFull also
  /// runs every ghost's structural audit.
  void check_invariants(audit::Level level) const;

 private:
  /// One slot of the sampled-block index; lba == kInvalidLba when empty.
  struct IndexSlot {
    Lba lba = kInvalidLba;
    std::uint32_t id = 0;
  };

  std::size_t home_slot(Lba lba) const noexcept {
    return static_cast<std::size_t>((lba * 0x9e3779b97f4a7c15ull) >>
                                    index_shift_);
  }
  std::uint32_t add_block(Lba lba, VTime now);
  void grow_index();
  void place(IndexSlot slot);  // into the first empty slot of its probe
  void configure_exponential(std::uint64_t center);
  void configure_linear(std::uint64_t lo, std::uint64_t hi);
  void maybe_adopt();

  AdapterConfig config_;
  SpatialSampler sampler_;
  std::uint64_t update_volume_ = 1;  // user writes per adoption attempt
  // Sampled LBA -> dense block id: insert-only linear probing over a
  // power-of-two table kept at most half full, Fibonacci-hashed.
  std::vector<IndexSlot> index_;
  unsigned index_shift_ = 64;
  std::vector<VTime> last_write_;  // by block id
  std::vector<GhostSet> ghosts_;
  Phase phase_ = Phase::kExponential;
  std::uint64_t current_threshold_;
  std::uint64_t writes_since_adoption_ = 0;
  std::uint64_t sampled_writes_ = 0;
  std::uint64_t sampled_since_reconfigure_ = 0;
  std::uint64_t ghost_capacity_blocks_ = 0;
  std::uint64_t adoptions_ = 0;
};

}  // namespace adapt::core
