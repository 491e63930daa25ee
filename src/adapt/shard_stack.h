// One engine shard's stack built from a policy name: the one mapping from
// a policy name to its placement policy, aggregation hook, victim policy
// and optional array model, shared by sim::run_volume,
// proto::run_prototype and the tests that rebuild their engines.
#pragma once

#include <string_view>

#include "adapt/adapt_policy.h"
#include "lss/config.h"
#include "lss/sharded_engine.h"

namespace adapt::core {

struct StackSpec {
  /// "adapt", a baseline name (placement::baseline_names()), or
  /// "<baseline>+agg": the baseline wrapped with ADAPT's cross-group
  /// aggregation rule (see adapt/aggregation.h). Not owned.
  std::string_view policy = "adapt";
  /// Victim policy spec for lss::make_victim_policy. Not owned.
  std::string_view victim = "greedy";
  /// Attach an array::SsdArray with one stream per placement group.
  bool with_array = false;
  /// ADAPT's mechanism switches and sample rate. The geometry fields are
  /// ignored: each shard takes them from its own config.
  AdaptConfig adapt;
};

/// Builds the stack `spec` names, sized for `shard_lss`. Throws
/// std::invalid_argument for an unknown policy or victim name.
lss::ShardParts make_shard_parts(const StackSpec& spec,
                                 const lss::LssConfig& shard_lss);

}  // namespace adapt::core
