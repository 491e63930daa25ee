// Cross-group dynamic aggregation (paper §3.3), written once.
//
// When a coalescing deadline fires on a partial chunk, AggregationRule
// decides between zero-padding it and shadow-appending a user group's
// pending blocks into the *host* user group's chunk, so one flush serves
// two deadlines (the originals stay pending: "lazy append"). AdaptPolicy
// and the "+agg" wrapper (AggregatingPolicy, the paper's §5 extension
// claim) both delegate to it, so extension E1x measures ADAPT's rule.
//
// The host is the highest-indexed user group: the coldest for ADAPT,
// SepBIT, WARCIP and MiDA, which number user groups hot-to-cold. DAC
// numbers its regions cold-to-hot, so `dac+agg` hosts in DAC's hottest
// region, which measured better than its coldest (EXPERIMENTS.md E1x).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "audit/audit.h"
#include "common/annotations.h"
#include "lss/engine.h"
#include "lss/placement_policy.h"

namespace adapt::core {

class AggregationRule {
 public:
  /// Prediction gate: with at least this many flushes, a donor that padded
  /// fewer than kMinUnfilledRatio of them fills its chunks on its own.
  static constexpr std::uint64_t kMinPredictionFlushes = 16;
  static constexpr double kMinUnfilledRatio = 0.02;
  /// Floor of the stop rule's shadow budget, in chunks.
  static constexpr std::uint64_t kBudgetFloorChunks = 4;

  /// Copies `policy`'s user groups (plain data: the owner may move).
  /// Throws std::invalid_argument when it has fewer than two user groups
  /// or more than 64 groups.
  AggregationRule(const lss::PlacementPolicy& policy,
                  std::uint32_t chunk_blocks);

  /// The decision for `fired`'s deadline, in order: a non-user group
  /// shadows into the host. Otherwise the donor is `fired`, or when the
  /// host fired, the lowest-indexed other user group with unshadowed
  /// pending blocks; pad unless donor and host pending blocks are both
  /// non-zero and fit one chunk; pad when the donor fired, has >= 16
  /// flushes and padded < 2% of them; pad when the merge would push the
  /// spend since the last non-host user seal past max(donor padding per
  /// sealed segment, 4 chunks); otherwise shadow the donor into the host.
  lss::AggregationDecision decide(GroupId fired, const lss::LssEngine& engine);

  /// Records a pad decision taken without the rule (aggregation off).
  lss::AggregationDecision pad() noexcept {
    ++pad_decisions_;
    return {};
  }

  /// A non-host user group's seal restarts the stop rule's spend.
  void note_segment_sealed(GroupId group) noexcept {
    if (group != host_ && is_user(group)) spent_ = 0;
  }

  GroupId host() const noexcept { return host_; }
  std::uint64_t shadow_decisions() const noexcept { return shadow_decisions_; }
  std::uint64_t pad_decisions() const noexcept { return pad_decisions_; }

  /// Throws std::logic_error unless the rule's user groups (and so its
  /// host) are `policy`'s and the spend is within the budget granted at
  /// the last shadow.
  void check_invariants(const lss::PlacementPolicy& policy) const;

 private:
  bool is_user(GroupId g) const noexcept { return (user_groups_ >> g) & 1u; }

  /// Bit g set when group g is a user group. A heap-held set measured
  /// about 10 ns slower per deadline (traced perfbench `cloud`, 4-core
  /// x86-64 VM).
  std::uint64_t user_groups_;
  GroupId host_;  ///< highest user group
  std::uint32_t chunk_blocks_;
  std::uint64_t spent_ = 0;    ///< shadow blocks since the last donor seal
  std::uint64_t granted_ = 0;  ///< budget at the last shadow decision
  std::uint64_t shadow_decisions_ = 0;
  std::uint64_t pad_decisions_ = 0;
};

/// Wraps a placement policy with at least two user groups: placement and
/// lifecycle calls go to it unchanged, deadlines to the AggregationRule.
class AggregatingPolicy final : public lss::PlacementPolicy,
                                public lss::AggregationHook {
 public:
  AggregatingPolicy(std::unique_ptr<lss::PlacementPolicy> inner,
                    std::uint32_t chunk_blocks);

  // -- PlacementPolicy (delegates to the wrapped policy) ---------------------
  std::string_view name() const override { return name_; }
  GroupId group_count() const override { return inner_->group_count(); }
  bool is_user_group(GroupId g) const override {
    return inner_->is_user_group(g);
  }
  GroupId place_user_write(Lba lba, VTime now) override {
    return inner_->place_user_write(lba, now);
  }
  ADAPT_HOT void prefetch_user_write(Lba lba) const noexcept override {
    inner_->prefetch_user_write(lba);
  }
  GroupId place_gc_rewrite(Lba lba, GroupId victim_group,
                           VTime now) override {
    return inner_->place_gc_rewrite(lba, victim_group, now);
  }
  void note_segment_sealed(GroupId group, VTime now) override {
    inner_->note_segment_sealed(group, now);
    rule_.note_segment_sealed(group);
  }
  void note_segment_reclaimed(GroupId group, VTime create_vtime,
                              VTime now) override {
    inner_->note_segment_reclaimed(group, create_vtime, now);
  }
  std::size_t memory_usage_bytes() const override {
    return inner_->memory_usage_bytes();
  }

  // -- AggregationHook --------------------------------------------------------
  lss::AggregationDecision on_chunk_deadline(
      GroupId group, const lss::LssEngine& engine) override {
    return rule_.decide(group, engine);
  }

  const AggregationRule& aggregation() const noexcept { return rule_; }

  /// Audits the rule (O(groups)) and then the wrapped policy at `level`;
  /// throws std::logic_error.
  void check_invariants(audit::Level level) const override {
    if (level == audit::Level::kOff) return;
    rule_.check_invariants(*inner_);
    inner_->check_invariants(level);
  }

 private:
  std::unique_ptr<lss::PlacementPolicy> inner_;
  AggregationRule rule_;
  std::string name_;
};

}  // namespace adapt::core
