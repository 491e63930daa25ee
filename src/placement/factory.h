// Factory for baseline placement policies. ADAPT has its own factory in
// src/adapt (it layers extra machinery); adapt/shard_stack.h maps every
// policy name, ADAPT and the "+agg" wrappers included, to its stack.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "lss/placement_policy.h"

namespace adapt::placement {

struct PolicyConfig {
  std::uint64_t logical_blocks = 0;
  std::uint32_t segment_blocks = 0;
};

/// Known baseline names: "sepgc", "dac", "warcip", "mida", "sepbit".
/// Throws std::invalid_argument for anything else.
std::unique_ptr<lss::PlacementPolicy> make_baseline_policy(
    std::string_view name, const PolicyConfig& config);

/// The baseline roster in the paper's presentation order.
const std::vector<std::string_view>& baseline_names();

}  // namespace adapt::placement
