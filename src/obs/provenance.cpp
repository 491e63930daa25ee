#include "obs/provenance.h"

#include <stdexcept>

#include "obs/json.h"

namespace adapt::obs {

namespace {

void grow_merge(std::vector<std::uint64_t>& into,
                const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

}  // namespace

void ProvenanceRow::merge_from(const ProvenanceRow& other) {
  user_blocks += other.user_blocks;
  gc_blocks += other.gc_blocks;
  shadow_blocks += other.shadow_blocks;
  padding_blocks += other.padding_blocks;
  rmw_blocks += other.rmw_blocks;
  full_flushes += other.full_flushes;
  padded_flushes += other.padded_flushes;
  rmw_flushes += other.rmw_flushes;
  grow_merge(gc_from, other.gc_from);
}

void ManifestProvenance::merge_from(const ManifestProvenance& other) {
  if (groups.size() < other.groups.size()) {
    groups.resize(other.groups.size());
  }
  for (std::size_t g = 0; g < other.groups.size(); ++g) {
    groups[g].merge_from(other.groups[g]);
  }
  pending_blocks += other.pending_blocks;
}

ManifestProvenance provenance_of(const lss::LssMetrics& metrics,
                                 std::uint64_t pending_blocks) {
  ManifestProvenance p;
  p.pending_blocks = pending_blocks;
  p.groups.resize(metrics.groups.size());
  for (std::size_t g = 0; g < metrics.groups.size(); ++g) {
    const lss::GroupTraffic& gt = metrics.groups[g];
    ProvenanceRow& row = p.groups[g];
    row.user_blocks = gt.user_blocks;
    row.gc_blocks = gt.gc_blocks;
    row.shadow_blocks = gt.shadow_blocks;
    row.padding_blocks = gt.padding_blocks;
    row.rmw_blocks = gt.rmw_blocks;
    row.full_flushes = gt.full_flushes;
    row.padded_flushes = gt.padded_flushes;
    row.rmw_flushes = gt.rmw_flushes;
    row.gc_from = gt.gc_from;
    row.gc_from.resize(metrics.groups.size());
  }
  return p;
}

void append_provenance_json(std::string& out, const char* key,
                            const ManifestProvenance& provenance) {
  json::Writer w(out);
  w.begin_object(key)
      .field("pending_blocks", provenance.pending_blocks)
      .begin_array("groups");
  for (std::size_t g = 0; g < provenance.groups.size(); ++g) {
    const ProvenanceRow& row = provenance.groups[g];
    w.begin_object()
        .field("group", g)
        .field("user", row.user_blocks)
        .field("gc", row.gc_blocks)
        .field("shadow", row.shadow_blocks)
        .field("padding", row.padding_blocks)
        .field("rmw", row.rmw_blocks)
        .field("full_flushes", row.full_flushes)
        .field("padded_flushes", row.padded_flushes)
        .field("rmw_flushes", row.rmw_flushes)
        .field("gc_from", row.gc_from)
        .end_object();
  }
  w.end_array().end_object();
}

void append_histogram_json(std::string& out, const char* key,
                           const Log2Histogram& histogram) {
  json::Writer w(out);
  w.begin_object(key)
      .field("count", histogram.count())
      .field("sum", histogram.sum())
      .field("max", histogram.max_value())
      .begin_array("buckets");
  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    if (histogram.bucket(b) == 0) continue;
    w.begin_object()
        .field("b", b)
        .field("floor", Log2Histogram::bucket_floor(b))
        .field("count", histogram.bucket(b))
        .end_object();
  }
  w.end_array().end_object();
}

void validate_provenance_json(const json::Value& provenance,
                              std::uint64_t chunk_blocks) {
  constexpr std::string_view kGroups = "provenance.groups";
  const double pending =
      json::require_number(provenance, "pending_blocks", "provenance");
  double appended = 0;
  double chunks_flushed = 0;
  double rmw_blocks = 0;
  for (const json::Value& row :
       json::require_array(provenance, "groups", "provenance").items()) {
    for (const char* key : {"user", "gc", "shadow", "padding"}) {
      appended += json::require_number(row, key, kGroups);
    }
    rmw_blocks += json::require_number(row, "rmw", kGroups);
    for (const char* key : {"full_flushes", "padded_flushes"}) {
      chunks_flushed += json::require_number(row, key, kGroups);
    }
    json::require_number(row, "rmw_flushes", kGroups);
    json::require_number(row, "group", kGroups);
    // The group's rows of the matrix tile its GC traffic.
    json::require_sum(row, "gc_from", "gc", kGroups);
  }
  // The PR-2 write-accounting identity, checked from the artifact alone.
  if (appended != static_cast<double>(chunk_blocks) * chunks_flushed +
                      rmw_blocks + pending) {
    throw std::invalid_argument(
        "schema: provenance breaks the write-accounting identity "
        "(user+gc+shadow+padding != chunk_blocks*chunks_flushed + "
        "rmw_blocks + pending)");
  }
}

void validate_histogram_json(const json::Value& histogram,
                             const std::string& name) {
  const double count = json::require_number(histogram, "count", name);
  json::require_number(histogram, "sum", name);
  json::require_number(histogram, "max", name);
  const std::string buckets = name + ".buckets";
  double bucket_total = 0;
  for (const json::Value& b :
       json::require_array(histogram, "buckets", name).items()) {
    json::require_number(b, "b", buckets);
    json::require_number(b, "floor", buckets);
    bucket_total += json::require_number(b, "count", buckets);
  }
  if (bucket_total != count) {
    throw std::invalid_argument("schema: " + name +
                                " bucket counts do not sum to count");
  }
}

}  // namespace adapt::obs
