#include "adapt/shard_stack.h"

#include <memory>
#include <utility>

#include "adapt/aggregation.h"
#include "array/ssd_array.h"
#include "lss/victim_policy.h"
#include "placement/factory.h"

namespace adapt::core {

lss::ShardParts make_shard_parts(const StackSpec& spec,
                                 const lss::LssConfig& shard_lss) {
  lss::ShardParts parts;
  constexpr std::string_view kAggSuffix = "+agg";
  if (spec.policy == "adapt") {
    AdaptConfig ac = spec.adapt;
    ac.logical_blocks = shard_lss.logical_blocks;
    ac.segment_blocks = shard_lss.segment_blocks();
    ac.chunk_blocks = shard_lss.chunk_blocks;
    ac.over_provision = shard_lss.over_provision;
    auto p = make_adapt_policy(ac);
    parts.hook = p.get();
    parts.policy = std::move(p);
  } else {
    placement::PolicyConfig pc;
    pc.logical_blocks = shard_lss.logical_blocks;
    pc.segment_blocks = shard_lss.segment_blocks();
    if (spec.policy.size() > kAggSuffix.size() &&
        spec.policy.ends_with(kAggSuffix)) {
      auto wrapped = std::make_unique<AggregatingPolicy>(
          placement::make_baseline_policy(
              spec.policy.substr(0, spec.policy.size() - kAggSuffix.size()),
              pc),
          shard_lss.chunk_blocks);
      parts.hook = wrapped.get();
      parts.policy = std::move(wrapped);
    } else {
      parts.policy = placement::make_baseline_policy(spec.policy, pc);
    }
  }

  parts.victim = lss::make_victim_policy(spec.victim);

  if (spec.with_array) {
    array::SsdArrayConfig arr;
    arr.chunk_bytes = shard_lss.chunk_blocks * shard_lss.block_bytes;
    arr.num_streams = parts.policy->group_count();
    parts.array = std::make_unique<array::SsdArray>(arr);
  }
  return parts;
}

void check_stack_names(const StackSpec& spec) {
  // Name errors do not depend on the geometry, so a stack for the default
  // one fails exactly where a run's would, including a "+agg" wrapper
  // around a baseline with a single user group.
  make_shard_parts(spec, lss::LssConfig{});
}

}  // namespace adapt::core
