// ADAPT placement policy (paper §3): SepBIT's block-invalidation-time
// inference (placement::SepBitPolicy: hot/cold user groups plus four GC
// groups by version age) changed in three places:
//   * Density-Aware Threshold Adaptation (§3.2): the hot/cold separation
//     threshold is adopted from ghost-set simulation; until the first
//     adoption SepBIT's own segment-lifespan EWMA is the threshold.
//   * Cross-Group Dynamic Aggregation (§3.3): the engine's AggregationHook,
//     answered by AggregationRule (adapt/aggregation.h) with the cold user
//     group hosting the hot group's shadow appends.
//   * Proactive Demotion Placement (§3.4): per-GC-group cascading Bloom
//     filters (one CascadeBank) record blocks that GC migrated back into
//     their own group; user writes scoring high are placed straight into
//     that GC group, and GC never moves a block back toward hotter GC
//     groups.
//
// Every mechanism can be disabled independently for the ablation bench;
// with all three off the policy places exactly as SepBitPolicy does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "adapt/aggregation.h"
#include "adapt/bloom.h"
#include "adapt/threshold_adapter.h"
#include "common/annotations.h"
#include "lss/engine.h"
#include "lss/placement_policy.h"
#include "placement/sepbit.h"

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

  // §3.4 — proactive demotion (CascadeBank fixes the cascade's shape)
  bool enable_proactive_demotion = true;
  std::uint32_t bloom_filter_capacity = 1024;
};

class AdaptPolicy final : public lss::PlacementPolicy,
                          public lss::AggregationHook {
 public:
  static constexpr GroupId kHotUser = placement::SepBitPolicy::kHotUser;
  static constexpr GroupId kColdUser = placement::SepBitPolicy::kColdUser;
  static constexpr GroupId kFirstGcGroup =
      placement::SepBitPolicy::kFirstGcGroup;
  static constexpr GroupId kGcGroups = placement::SepBitPolicy::kGcGroups;

  explicit AdaptPolicy(const AdaptConfig& config);

  // -- PlacementPolicy -------------------------------------------------------
  std::string_view name() const override { return "adapt"; }
  GroupId group_count() const override { return kFirstGcGroup + kGcGroups; }
  bool is_user_group(GroupId g) const override { return g <= kColdUser; }
  GroupId place_user_write(Lba lba, VTime now) override;
  ADAPT_HOT void prefetch_user_write(Lba lba) const noexcept override {
    sepbit_.prefetch_user_write(lba);
  }
  GroupId place_gc_rewrite(Lba lba, GroupId victim_group, VTime now) override;
  void note_segment_sealed(GroupId group, VTime now) override;
  void note_segment_reclaimed(GroupId group, VTime create_vtime,
                              VTime now) override {
    sepbit_.note_segment_reclaimed(group, create_vtime, now);
  }
  std::size_t memory_usage_bytes() const override;
  /// Audits the aggregation rule, the threshold adapter and the cascade
  /// bank at `level`; throws std::logic_error on a violation.
  void check_invariants(audit::Level level) const override;

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
  AdaptConfig config_;
  lss::TraceSink* trace_ = nullptr;
  /// The inference; its EWMA is the threshold until §3.2 adopts one.
  placement::SepBitPolicy sepbit_;
  std::unique_ptr<ThresholdAdapter> adapter_;
  std::optional<CascadeBank> cascades_;  // §3.4, one cascade per GC group
  AggregationRule rule_;

  std::uint64_t demotions_ = 0;
};

/// Convenience factory mirroring make_baseline_policy.
std::unique_ptr<AdaptPolicy> make_adapt_policy(const AdaptConfig& config);

}  // namespace adapt::core
