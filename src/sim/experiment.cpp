#include "sim/experiment.h"

#include <algorithm>

#include "common/annotations.h"
#include "common/sync.h"
#include "common/thread_pool.h"

namespace adapt::sim {

double CellResult::overall_wa() const {
  std::uint64_t total = 0;
  std::uint64_t user = 0;
  for (const VolumeResult& v : volumes) {
    total += v.metrics.total_blocks();
    user += v.metrics.user_blocks;
  }
  return user == 0 ? 0.0
                   : static_cast<double>(total) / static_cast<double>(user);
}

double CellResult::overall_padding_ratio() const {
  std::uint64_t total = 0;
  std::uint64_t padding = 0;
  for (const VolumeResult& v : volumes) {
    total += v.metrics.total_blocks();
    padding += v.metrics.padding_blocks;
  }
  return total == 0
             ? 0.0
             : static_cast<double>(padding) / static_cast<double>(total);
}

Histogram CellResult::per_volume_wa() const {
  Histogram h;
  for (const VolumeResult& v : volumes) h.add(v.wa());
  return h;
}

Histogram CellResult::per_volume_padding_ratio() const {
  Histogram h;
  for (const VolumeResult& v : volumes) h.add(v.padding_ratio());
  return h;
}

obs::RunManifest CellResult::aggregate_manifest() const {
  obs::RunManifest m;
  m.tool = "experiment";
  m.policy = key.policy;
  m.victim = key.victim;
  for (const VolumeResult& v : volumes) {
    m.records += v.manifest.records;
    m.user_blocks += v.manifest.user_blocks;
    m.wall_seconds += v.manifest.wall_seconds;
    m.peak_rss_bytes = std::max(m.peak_rss_bytes, v.manifest.peak_rss_bytes);
    m.counters.merge_from(v.manifest.counters);
    m.provenance.merge_from(v.manifest.provenance);
    m.block_lifetime.merge_from(v.manifest.block_lifetime);
    m.gc_pause_us.merge_from(v.manifest.gc_pause_us);
    // Geometry and seed are uniform across a cell; keep the last seen.
    m.seed = v.manifest.seed;
    m.chunk_blocks = v.manifest.chunk_blocks;
    m.segment_chunks = v.manifest.segment_chunks;
    m.logical_blocks = v.manifest.logical_blocks;
    m.over_provision = v.manifest.over_provision;
  }
  m.records_per_sec =
      m.wall_seconds > 0.0
          ? static_cast<double>(m.records) / m.wall_seconds
          : 0.0;
  return m;
}

std::map<CellKey, CellResult> run_experiment(
    const ExperimentSpec& spec, const std::vector<trace::Volume>& volumes) {
  std::map<CellKey, CellResult> results;
  for (const auto& policy : spec.policies) {
    for (const auto& victim : spec.victims) {
      const CellKey key{policy, victim};
      results[key].key = key;
      results[key].volumes.resize(volumes.size());
    }
  }

  const std::size_t threads =
      spec.threads != 0 ? spec.threads : hardware_concurrency();
  ThreadPool pool(threads);

  // State shared across worker tasks, with each piece tied to its mutex by
  // a capability annotation (checked by the clang -Wthread-safety CI job).
  struct ErrorSink {
    Mutex mu;
    std::exception_ptr first ADAPT_GUARDED_BY(mu);
  } errors;

  for (const auto& policy : spec.policies) {
    for (const auto& victim : spec.victims) {
      CellResult& cell = results[CellKey{policy, victim}];
      for (std::size_t i = 0; i < volumes.size(); ++i) {
        pool.submit([&, i] {
          try {
            SimConfig config = spec.base;
            config.victim_policy = victim;
            cell.volumes[i] = run_volume(volumes[i], policy, config);
          } catch (...) {
            LockGuard lock(errors.mu);
            if (!errors.first) errors.first = std::current_exception();
          }
        });
      }
    }
  }
  pool.wait_idle();
  {
    LockGuard lock(errors.mu);
    if (errors.first) std::rethrow_exception(errors.first);
  }
  return results;
}

}  // namespace adapt::sim
