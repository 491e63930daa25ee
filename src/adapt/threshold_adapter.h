// Density-Aware Threshold Adaptation (paper §3.2).
//
// Blocks are sampled by a uniform hash of their LBA, after SHARDS
// [Waldspurger et al., FAST'15]. For each sampled write the adapter keeps
// the block's last-write time and feeds a bank of ghost sets the raw
// interval since that write — user blocks written, the unit SepBIT measures
// lifespans in and the placement threshold is applied in. Each ghost set
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
#include <unordered_map>
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

  /// Modelled like GhostSet's maps: 40 B per sampled block for the
  /// last-write map (paper §4.4: ≈44 B) plus every ghost's footprint.
  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks
  /// the ghost-bank shape and sampling counters in O(ghosts); kFull also
  /// runs every ghost's structural audit.
  void check_invariants(audit::Level level) const;

 private:
  void configure_exponential(std::uint64_t center);
  void configure_linear(std::uint64_t lo, std::uint64_t hi);
  void maybe_adopt();

  AdapterConfig config_;
  SpatialSampler sampler_;
  std::unordered_map<Lba, VTime> last_write_;  // per sampled block
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
