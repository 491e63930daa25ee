// Per-physical-write provenance attribution for run manifests.
//
// Every block the engine appends is tagged with its cause — user payload,
// GC migration (attributed to the victim's source group), shadow copy,
// padding, or RMW persist — and rolled into one ProvenanceRow per
// destination group. The rows carry enough flush counts that the PR-2
// write-accounting identity
//
//   user + gc + shadow + padding ==
//       chunk_blocks * (full + padded flushes) + rmw_blocks + pending
//
// is checkable from the manifest alone; validate_manifest_json enforces it,
// together with the per-group tiling  sum(gc_from) == gc_blocks.
// Log2Histogram JSON helpers live here too: block-lifetime and GC-pause
// distributions ride in the same manifest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "lss/metrics.h"

namespace adapt::obs {

namespace json {
class Value;
}  // namespace json

/// Write provenance of one destination group, all counts in blocks.
struct ProvenanceRow {
  std::uint64_t user_blocks = 0;
  std::uint64_t gc_blocks = 0;
  std::uint64_t shadow_blocks = 0;
  std::uint64_t padding_blocks = 0;
  std::uint64_t rmw_blocks = 0;
  std::uint64_t full_flushes = 0;
  std::uint64_t padded_flushes = 0;
  std::uint64_t rmw_flushes = 0;
  /// gc_from[g] = migrated blocks whose victim belonged to group g; sized
  /// to the group count, sums to gc_blocks.
  std::vector<std::uint64_t> gc_from;

  void merge_from(const ProvenanceRow& other);
};

/// Per-group provenance matrix of one run (or a cell aggregate).
struct ManifestProvenance {
  std::vector<ProvenanceRow> groups;
  /// Blocks appended but not yet persisted when the manifest was taken
  /// (0 after an end-of-run drain); closes the accounting identity.
  std::uint64_t pending_blocks = 0;

  void merge_from(const ManifestProvenance& other);
};

/// Builds the provenance matrix from merged engine metrics. `pending_blocks`
/// is the caller-measured sum of open-chunk pending blocks across groups
/// and shards (sim::run_volume measures it after the final drain).
ManifestProvenance provenance_of(const lss::LssMetrics& metrics,
                                 std::uint64_t pending_blocks);

/// Appends `"<key>":{...}` rendering the provenance matrix as a member of
/// the object open at the end of `out` (json::Writer places the ',').
void append_provenance_json(std::string& out, const char* key,
                            const ManifestProvenance& provenance);

/// Appends the member `"<key>":{"count":..,"sum":..,"max":..,"buckets":
/// [{"b":..,"floor":..,"count":..},...]}` — nonzero buckets only.
void append_histogram_json(std::string& out, const char* key,
                           const Log2Histogram& histogram);

/// Validators for the fragments above (called by validate_manifest_json).
/// `chunk_blocks` feeds the write-accounting identity check; both throw
/// std::invalid_argument with a reason.
void validate_provenance_json(const json::Value& provenance,
                              std::uint64_t chunk_blocks);
void validate_histogram_json(const json::Value& histogram,
                             const std::string& name);

}  // namespace adapt::obs
