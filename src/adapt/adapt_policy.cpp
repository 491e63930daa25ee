#include "adapt/adapt_policy.h"

#include <algorithm>

namespace adapt::core {

AdaptPolicy::AdaptPolicy(const AdaptConfig& config)
    : config_(config),
      sepbit_(config.logical_blocks, config.segment_blocks),
      // AdaptPolicy is final, so the rule's group queries reach this
      // class's overrides even during construction.
      rule_(*this, config.chunk_blocks) {
  if (config_.enable_threshold_adaptation) {
    AdapterConfig ac;
    ac.sample_rate = config_.sample_rate;
    ac.num_ghosts = config_.num_ghosts;
    ac.segment_blocks = config_.segment_blocks;
    ac.logical_blocks = config_.logical_blocks;
    ac.over_provision = config_.over_provision;
    ac.update_fraction = config_.update_fraction;
    adapter_ = std::make_unique<ThresholdAdapter>(ac);
  }
  if (config_.enable_proactive_demotion) {
    static_assert(CascadeBank::kGroups == kGcGroups);
    cascades_.emplace(config_.bloom_filter_capacity);
  }
}

double AdaptPolicy::threshold() const noexcept {
  if (adapter_ != nullptr && adapter_->adopted()) {
    return static_cast<double>(adapter_->threshold());
  }
  return sepbit_.threshold();
}

GroupId AdaptPolicy::place_user_write(Lba lba, VTime now) {
  if (adapter_ != nullptr && adapter_->on_user_write(lba, now)) {
    // The adapter just adopted a new threshold (§3.2 re-adaptation).
    if (trace_ != nullptr) {
      lss::emit(trace_,
                lss::TraceEvent{lss::TraceEventKind::kThresholdAdapt,
                                kInvalidGroup, now, 0, adapter_->threshold(),
                                adapter_->adoptions(), 0});
    }
  }

  // §3.4: long-lived blocks skip the user groups entirely when the
  // re-access identifier is confident about their destination. Demotion is
  // gated on the block's *prior lifespan* (the correlation the paper
  // builds on): only a version that just demonstrated a cold-group-scale
  // lifetime, one SepBIT would age past its hottest GC class, is a
  // demotion candidate — that filters out warm blocks that merely churned
  // through the GC ladder. Read before user_class records this write.
  const double l = threshold();
  const bool long_lived =
      config_.enable_proactive_demotion &&
      sepbit_.last_write(lba) != placement::SepBitPolicy::kNeverWritten &&
      sepbit_.gc_class(lba, now, l) != kFirstGcGroup;
  const GroupId user = sepbit_.user_class(lba, now, l);
  if (long_lived) {
    const std::size_t g = cascades_->pick(lba);
    if (g < CascadeBank::kGroups) {
      ++demotions_;
      return kFirstGcGroup + static_cast<GroupId>(g);
    }
  }
  return user;
}

GroupId AdaptPolicy::place_gc_rewrite(Lba lba, GroupId victim_group,
                                      VTime now) {
  GroupId target = sepbit_.gc_class(lba, now, threshold());
  if (!config_.enable_proactive_demotion) return target;
  // §3.4: a block never climbs back toward hotter GC groups: its residual
  // lifespan only shrinks. Without this, a proactively demoted block
  // (young version age, cold group) would bounce to the hottest GC group
  // at its first GC and re-pay the whole ladder.
  if (victim_group >= kFirstGcGroup && victim_group < group_count()) {
    target = std::max(target, victim_group);
    // A block GC re-places into its *own* group has demonstrated a
    // lifetime matching that group — record it in the group's identifier.
    if (target == victim_group) {
      cascades_->insert(target - kFirstGcGroup, lba);
    }
  }
  return target;
}

void AdaptPolicy::note_segment_sealed(GroupId group, VTime /*now*/) {
  rule_.note_segment_sealed(group);
}

lss::AggregationDecision AdaptPolicy::on_chunk_deadline(
    GroupId group, const lss::LssEngine& engine) {
  if (!config_.enable_cross_group_aggregation) return rule_.pad();
  return rule_.decide(group, engine);
}

std::size_t AdaptPolicy::memory_usage_bytes() const {
  std::size_t total = sepbit_.memory_usage_bytes();
  if (adapter_ != nullptr) total += adapter_->memory_usage_bytes();
  if (cascades_.has_value()) total += cascades_->memory_usage_bytes();
  return total;
}

void AdaptPolicy::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  rule_.check_invariants(*this);
  if (adapter_ != nullptr) adapter_->check_invariants(level);
  if (cascades_.has_value()) cascades_->check_invariants(level);
}

std::unique_ptr<AdaptPolicy> make_adapt_policy(const AdaptConfig& config) {
  return std::make_unique<AdaptPolicy>(config);
}

}  // namespace adapt::core
