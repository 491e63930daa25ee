// Ghost-set GC simulation (paper §3.2).
//
// A ghost set replays sampled user writes through a miniature two-group
// (hot/cold) log-structured layout with its own hot/cold threshold,
// tracking only LBAs. Segment sizes are scaled by the sampling rate. GC
// uses greedy selection but — unlike the real system — *discards* victim
// valid blocks instead of rewriting them, because in the real system those
// blocks would leave the user-written groups for GC-rewritten groups. The
// ratio of discarded to written blocks is the ghost's WA proxy; the
// threshold whose ghost discards least wins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "common/types.h"

namespace adapt::core {

struct GhostConfig {
  std::uint32_t segment_blocks = 16;   ///< scaled segment size
  std::uint32_t capacity_segments = 64;  ///< user-group capacity budget
};

class GhostSet {
 public:
  /// Interval of a block's first write: no history, so it places cold.
  static constexpr std::uint64_t kNoHistory =
      std::numeric_limits<std::uint64_t>::max();
  /// Modelled overhead of one hash-map node (next ptr + cached hash), used
  /// by the memory models of these maps and the adapter's last-write map.
  static constexpr std::size_t kHashNodeBytes = 24;

  GhostSet(const GhostConfig& config, std::uint64_t threshold);

  std::uint64_t threshold() const noexcept { return threshold_; }

  /// Changes the hot/cold threshold and restarts WA accounting (placement
  /// state is kept so the set stays warm).
  void set_threshold(std::uint64_t threshold) noexcept {
    threshold_ = threshold;
    reset_metrics();
  }

  void reset_metrics() noexcept {
    written_ = 0;
    discarded_ = 0;
    gc_runs_ = 0;
  }

  /// Feeds one sampled user write with its write interval, or kNoHistory.
  void write(Lba lba, std::uint64_t interval);

  std::uint64_t written() const noexcept { return written_; }
  std::uint64_t discarded() const noexcept { return discarded_; }
  std::uint64_t gc_runs() const noexcept { return gc_runs_; }

  /// WA proxy: discarded valid blocks per written block (lower is better).
  double discard_ratio() const noexcept {
    return written_ == 0
               ? 0.0
               : static_cast<double>(discarded_) /
                     static_cast<double>(written_);
  }

  /// "Authentic" once GC has churned enough for the ratio to mean anything.
  bool stable() const noexcept { return gc_runs_ >= 2; }

  std::size_t segment_count() const noexcept { return segments_.size(); }
  std::size_t memory_usage_bytes() const noexcept;

  /// Self-audit; throws std::logic_error on violation. kCounters checks the
  /// open-segment bookkeeping in O(1); kFull re-derives every segment's
  /// valid count and cross-checks the LBA map in O(tracked blocks).
  void check_invariants(audit::Level level) const;

 private:
  struct GhostSegment {
    std::vector<Lba> lbas;
    std::vector<bool> valid;
    std::uint32_t valid_count = 0;
    bool sealed = false;
  };

  struct Location {
    std::uint64_t segment_key;
    std::uint32_t slot;
  };

  void append(Lba lba, bool hot);
  void maybe_gc();

  GhostConfig config_;
  std::uint64_t threshold_;
  std::uint64_t written_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t next_segment_key_ = 0;
  std::uint64_t open_key_[2] = {~0ull, ~0ull};  // hot, cold open segments
  std::unordered_map<std::uint64_t, GhostSegment> segments_;
  std::unordered_map<Lba, Location> map_;
};

}  // namespace adapt::core
