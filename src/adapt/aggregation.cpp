#include "adapt/aggregation.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace adapt::core {
namespace {

/// Bit g set when group g of `policy` is a user group.
std::uint64_t user_group_bits(const lss::PlacementPolicy& policy) {
  if (policy.group_count() > 64) {
    throw std::invalid_argument("AggregationRule supports <= 64 groups");
  }
  std::uint64_t bits = 0;
  for (GroupId g = 0; g < policy.group_count(); ++g) {
    if (policy.is_user_group(g)) bits |= std::uint64_t{1} << g;
  }
  return bits;
}

}  // namespace

AggregationRule::AggregationRule(const lss::PlacementPolicy& policy,
                                 std::uint32_t chunk_blocks)
    : user_groups_(user_group_bits(policy)),
      host_(static_cast<GroupId>(std::bit_width(user_groups_)) - 1),
      chunk_blocks_(chunk_blocks) {
  if (std::popcount(user_groups_) < 2) {
    throw std::invalid_argument(
        "AggregationRule needs >= 2 user-written groups");
  }
}

lss::AggregationDecision AggregationRule::decide(
    GroupId fired, const lss::LssEngine& engine) {
  // Rather than padding a bulk GC chunk for a demoted user block, shadow
  // it into the host; the GC chunk keeps filling with GC traffic.
  if (!is_user(fired)) {
    ++shadow_decisions_;
    return {.donor = fired, .host = host_};
  }
  GroupId donor = fired;
  std::uint32_t donor_pending = 0;
  if (fired == host_) {
    // Every other user group sits below the host.
    for (GroupId g = 0; g < host_ && donor_pending == 0; ++g) {
      if (!is_user(g)) continue;
      donor = g;
      donor_pending = engine.pending_unshadowed_valid(g);
    }
  } else {
    donor_pending = engine.pending_unshadowed_valid(donor);
  }
  // Without overlap there is nothing to merge: a lone donor would pay the
  // same padding in the host plus the later lazy rewrite. A merged payload
  // that overflows one chunk would force an extra padded host chunk.
  const std::uint32_t host_pending = engine.pending_blocks(host_);
  if (donor_pending == 0 || host_pending == 0 ||
      donor_pending + host_pending > chunk_blocks_) {
    return pad();
  }

  // Prediction: access density is continuous, so a donor whose chunks keep
  // filling inside the window will fill this one too. With too little
  // history, aggregate optimistically.
  const lss::GroupTraffic& traffic = engine.group_traffic(donor);
  const std::uint64_t flushes = traffic.full_flushes + traffic.padded_flushes;
  if (donor == fired && flushes >= kMinPredictionFlushes &&
      static_cast<double>(traffic.padded_flushes) /
              static_cast<double>(flushes) <
          kMinUnfilledRatio) {
    return pad();
  }

  // Stop rule: beyond the donor's average padding per segment, shadows
  // cost more than the padding they avoid. The floor keeps the rule from
  // strangling itself once aggregation has removed most padding.
  const std::uint64_t floor = kBudgetFloorChunks * chunk_blocks_;
  const std::uint64_t budget =
      traffic.segments_sealed == 0
          ? floor
          : std::max(traffic.padding_blocks / traffic.segments_sealed, floor);
  if (spent_ + donor_pending > budget) return pad();

  spent_ += donor_pending;
  granted_ = budget;
  ++shadow_decisions_;
  return {.donor = donor, .host = host_};
}

void AggregationRule::check_invariants(
    const lss::PlacementPolicy& policy) const {
  if (user_group_bits(policy) != user_groups_) {
    throw std::logic_error("AggregationRule: user groups differ from policy");
  }
  if (spent_ > granted_) {
    throw std::logic_error("AggregationRule: shadow spend exceeds budget");
  }
}

AggregatingPolicy::AggregatingPolicy(
    std::unique_ptr<lss::PlacementPolicy> inner, std::uint32_t chunk_blocks)
    : inner_(std::move(inner)),
      rule_(inner_ != nullptr ? *inner_
                              : throw std::invalid_argument(
                                    "AggregatingPolicy: null inner policy"),
            chunk_blocks),
      name_(std::string(inner_->name()) + "+agg") {}

}  // namespace adapt::core
