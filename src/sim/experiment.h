// Multi-volume experiment runner: evaluates a matrix of
// (placement policy x victim policy) over a shared set of volumes, in
// parallel across a thread pool, and aggregates the distributions the
// paper's figures report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "sim/simulator.h"
#include "trace/record.h"

namespace adapt::sim {

struct CellKey {
  std::string policy;
  std::string victim;
  auto operator<=>(const CellKey&) const = default;
};

/// Aggregated results of one (policy, victim) cell across all volumes.
struct CellResult {
  CellKey key;
  std::vector<VolumeResult> volumes;

  /// Overall WA: traffic-weighted across volumes (matches the paper's
  /// "overall WA" bars).
  double overall_wa() const;
  double overall_padding_ratio() const;
  Histogram per_volume_wa() const;
  Histogram per_volume_padding_ratio() const;
  /// Cell-level manifest: records / user blocks / worker wall seconds
  /// summed across volumes, counter registries merged, peak RSS maxed.
  obs::RunManifest aggregate_manifest() const;
};

struct ExperimentSpec {
  std::vector<std::string> policies;
  std::vector<std::string> victims = {"greedy"};
  SimConfig base;  ///< victim_policy field is overridden per cell
  std::size_t threads = 0;  ///< 0 = hardware concurrency
};

/// Runs the full matrix; results keyed by (policy, victim).
std::map<CellKey, CellResult> run_experiment(
    const ExperimentSpec& spec, const std::vector<trace::Volume>& volumes);

}  // namespace adapt::sim
