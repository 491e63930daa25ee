// ADAPT placement policy (paper §3): six groups — hot/cold user-written
// plus four GC-rewritten — combining:
//   * Density-Aware Threshold Adaptation (§3.2): the hot/cold separation
//     threshold is adopted from ghost-set simulation; until the first
//     adoption a SepBIT-style segment-lifespan EWMA is the cold-start
//     threshold.
//   * Cross-Group Dynamic Aggregation (§3.3): the engine's AggregationHook,
//     answered by AggregationRule (adapt/aggregation.h) with the cold user
//     group hosting the hot group's shadow appends.
//   * Proactive Demotion Placement (§3.4): per-GC-group cascading Bloom
//     filters record blocks that GC migrated back into their own group;
//     user writes scoring high are placed straight into that GC group.
//
// Every mechanism can be disabled independently for the ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "adapt/aggregation.h"
#include "adapt/bloom.h"
#include "adapt/threshold_adapter.h"
#include "lss/engine.h"
#include "lss/placement_policy.h"

namespace adapt::core {

struct AdaptConfig {
  std::uint64_t logical_blocks = 1u << 20;
  std::uint32_t segment_blocks = 1024;
  std::uint32_t chunk_blocks = 16;
  double over_provision = 0.25;

  // §3.2 — threshold adaptation
  bool enable_threshold_adaptation = true;
  /// <= 0 auto-sizes from the logical capacity (see AdapterConfig).
  double sample_rate = 0.0;
  std::uint32_t num_ghosts = 7;
  double update_fraction = 0.10;

  // §3.3 — cross-group aggregation
  bool enable_cross_group_aggregation = true;

  // §3.4 — proactive demotion
  bool enable_proactive_demotion = true;
  std::uint32_t bloom_filters_per_group = 4;
  std::uint32_t bloom_filter_capacity = 1024;
  /// Minimum re-access score for a demotion. Conservative by default:
  /// mis-demotions cost shadow + padding traffic that the avoided ladder
  /// migrations must pay back.
  std::uint32_t demotion_score_threshold = 3;
};

class AdaptPolicy final : public lss::PlacementPolicy,
                          public lss::AggregationHook {
 public:
  static constexpr GroupId kHotUser = 0;
  static constexpr GroupId kColdUser = 1;
  static constexpr GroupId kFirstGcGroup = 2;
  static constexpr GroupId kGcGroups = 4;

  explicit AdaptPolicy(const AdaptConfig& config);

  // -- PlacementPolicy -------------------------------------------------------
  std::string_view name() const override { return "adapt"; }
  GroupId group_count() const override { return kFirstGcGroup + kGcGroups; }
  bool is_user_group(GroupId g) const override { return g <= kColdUser; }
  GroupId place_user_write(Lba lba, VTime now) override;
  GroupId place_gc_rewrite(Lba lba, GroupId victim_group, VTime now) override;
  void note_segment_sealed(GroupId group, VTime now) override;
  void note_segment_reclaimed(GroupId group, VTime create_vtime,
                              VTime now) override;
  std::size_t memory_usage_bytes() const override;

  // -- AggregationHook -------------------------------------------------------
  lss::AggregationDecision on_chunk_deadline(
      GroupId group, const lss::LssEngine& engine) override;

  // -- tracing ---------------------------------------------------------------
  /// Attaches a trace sink for threshold re-adaptation events (nullptr
  /// detaches). Emitted events carry the adopted threshold and total
  /// adoptions; their clock is vtime only (the policy never sees the wall
  /// clock, so wall_us is 0).
  void set_trace_sink(lss::TraceSink* sink) noexcept { trace_ = sink; }

  // -- introspection ---------------------------------------------------------
  const AdaptConfig& config() const noexcept { return config_; }
  double threshold() const noexcept;
  const ThresholdAdapter* adapter() const noexcept { return adapter_.get(); }
  std::uint64_t demotions() const noexcept { return demotions_; }
  std::uint64_t shadow_decisions() const noexcept {
    return rule_.shadow_decisions();
  }
  std::uint64_t pad_decisions() const noexcept { return rule_.pad_decisions(); }

 private:
  static constexpr VTime kNeverWritten = ~VTime{0};

  AdaptConfig config_;
  lss::TraceSink* trace_ = nullptr;
  std::unique_ptr<ThresholdAdapter> adapter_;
  std::vector<CascadeDiscriminator> discriminators_;  // one per GC group
  std::vector<VTime> last_write_;
  /// Cold-start threshold: EWMA over hot-group segment lifespans.
  double fallback_threshold_;
  AggregationRule rule_;

  std::uint64_t demotions_ = 0;
};

/// Convenience factory mirroring make_baseline_policy.
std::unique_ptr<AdaptPolicy> make_adapt_policy(const AdaptConfig& config);

}  // namespace adapt::core
