#include "lss/engine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/annotations.h"

namespace adapt::lss {
namespace {

void check_array(const array::SsdArray* array, const LssConfig& config,
                 GroupId group_count) {
  if (array == nullptr) return;
  const array::SsdArrayConfig& ac = array->config();
  if (ac.num_streams < group_count) {
    throw std::invalid_argument("array has fewer streams than groups");
  }
  if (ac.chunk_bytes != config.chunk_blocks * config.block_bytes) {
    throw std::invalid_argument("array chunk size mismatch");
  }
  if (ac.flash && ac.flash->page_bytes != config.block_bytes) {
    throw std::invalid_argument("array page size != LSS block size");
  }
  if (ac.flash && ac.flash->data_chunks <
                      static_cast<std::uint64_t>(config.total_segments()) *
                          config.segment_chunks) {
    throw std::invalid_argument(
        "flash-backed array smaller than the LSS physical space");
  }
}

/// Validates the config, and the array against it, before any component
/// is built (the pool re-binds the victim index on construction).
LssConfig validated(LssConfig config, GroupId group_count,
                    const array::SsdArray* array) {
  config.validate(group_count);
  check_array(array, config, group_count);
  return config;
}

}  // namespace

LssEngine::LssEngine(const LssConfig& config, PlacementPolicy& policy,
                     VictimPolicy& victim, array::SsdArray* array,
                     std::uint64_t seed)
    : config_(validated(config, policy.group_count(), array)),
      policy_(policy),
      victim_(victim),
      rng_(seed),
      audit_level_(audit::level_from_env(config.audit_level)),
      pool_(config_, policy.group_count(), victim),
      // Live shadows are bounded by the pending blocks across open chunks:
      // pre-sizing to group_count * chunk_blocks keeps the flat shadow
      // table rehash-free in steady state.
      map_(config_.logical_blocks,
           static_cast<std::size_t>(policy.group_count()) *
               config_.chunk_blocks),
      writer_(config_, policy.group_count(), pool_, map_, policy, metrics_,
              vtime_, wall_us_, array),
      gc_(config_, pool_, map_, writer_, policy, victim, metrics_, rng_,
          vtime_) {
  metrics_.groups.resize(policy.group_count());
  map_.bind_lifetime(vtime_, &metrics_.block_lifetime);
}

void LssEngine::write(Lba lba, std::uint32_t blocks, TimeUs now_us) {
  if (lba >= config_.logical_blocks ||
      blocks > config_.logical_blocks - lba) {
    throw std::out_of_range("write beyond logical capacity");
  }
  for (std::uint32_t i = 0; i < blocks; ++i) {
    write_block(lba + i, now_us);
  }
}

ADAPT_HOT void LssEngine::write_block(Lba lba, TimeUs now_us) {
  if (lba >= config_.logical_blocks) {
    throw std::out_of_range("write beyond logical capacity");
  }
  // Start the primary-map line towards the cache while time advance and
  // placement run; invalidate() below reads and rewrites it.
  map_.prefetch_primary(lba);
  advance_time(now_us);
  const GroupId g = policy_.place_user_write(lba, vtime_);
  if (g >= group_count()) {
    throw std::logic_error("placement policy returned bad group");
  }
  // Guarded at the call site: the compiler will not sink the event's
  // stack stores behind emit()'s null check on its own, and this runs
  // once per user block.
  if (trace_ != nullptr) {
    emit(trace_, TraceEvent{TraceEventKind::kUserWrite, g, vtime_, wall_us_,
                            lba, 0, 0});
  }
  map_.invalidate(lba, pool_);
  writer_.append(g, lba, AppendSource::kUser, now_us);
  ++vtime_;
  gc_.maybe_gc(now_us);
  audit_point();
  if (observer_ != nullptr) observer_->on_user_block(*this, now_us);
}

ADAPT_HOT void LssEngine::read(Lba lba, std::uint32_t blocks, TimeUs now_us) {
  if (lba >= config_.logical_blocks ||
      blocks > config_.logical_blocks - lba) {
    throw std::out_of_range("read beyond logical capacity");
  }
  advance_time(now_us);
  // Distinct chunks fetched by this request (chunk = segment id + chunk
  // index within it); consecutive blocks usually share a chunk.
  std::uint64_t last_chunk = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t i = 0; i < blocks; ++i) {
    ++metrics_.read_blocks;
    if (!map_.is_mapped(lba + i)) {
      ++metrics_.read_unmapped;
      continue;
    }
    const BlockLocation loc = map_.locate(lba + i);
    const GroupId group = pool_.segment(loc.segment).group;
    if (writer_.slot_pending(group, loc)) {
      ++metrics_.read_buffer_hits;  // still pending in the open chunk
      continue;
    }
    const std::uint64_t chunk =
        writer_.global_chunk_index(loc.segment, loc.slot);
    if (chunk != last_chunk) {
      ++metrics_.read_chunk_fetches;
      last_chunk = chunk;
    }
  }
}

ADAPT_HOT void LssEngine::advance_time(TimeUs now_us) {
  wall_us_ = std::max(wall_us_, now_us);
  // One-compare fast path: the writer's earliest-deadline bound is never
  // stale high, so nothing can be due when it lies in the future.
  if (writer_.earliest_deadline() > wall_us_) return;
  // Fire expired deadlines earliest-first so multi-group interleavings are
  // deterministic.
  for (;;) {
    GroupId next = kInvalidGroup;
    TimeUs earliest = std::numeric_limits<TimeUs>::max();
    for (GroupId g = 0; g < group_count(); ++g) {
      if (writer_.deadline_armed(g) &&
          writer_.chunk_deadline(g) <= wall_us_ &&
          writer_.chunk_deadline(g) < earliest) {
        earliest = writer_.chunk_deadline(g);
        next = g;
      }
    }
    if (next == kInvalidGroup) break;
    fire_deadline(next, earliest);
  }
  writer_.recompute_earliest_deadline();
}

void LssEngine::flush_all() {
  for (GroupId g = 0; g < group_count(); ++g) {
    if (writer_.pending_blocks(g) > 0) {
      if (config_.partial_write_mode == PartialWriteMode::kZeroPad) {
        writer_.pad_flush(g);
      } else {
        writer_.rmw_flush(g);
      }
    }
    writer_.disarm_deadline(g);
  }
  audit_point();
}

bool LssEngine::is_pending(Lba lba) const {
  const BlockLocation loc = map_.locate(lba);
  if (loc == kNowhere) return false;
  const GroupId g = pool_.segment(loc.segment).group;
  return writer_.slot_pending(g, loc);
}

void LssEngine::fire_deadline(GroupId g, TimeUs now_us) {
  writer_.disarm_deadline(g);
  const std::uint32_t pending = writer_.pending_blocks(g);
  if (pending == 0) return;
  // Only live, not-yet-shadowed blocks carry a durability obligation:
  // overwritten pending blocks are stale and shadowed ones are already on
  // disk, so a chunk with none of either can keep waiting for more data.
  if (writer_.pending_unshadowed_valid(g) == 0) return;

  if (config_.partial_write_mode == PartialWriteMode::kReadModifyWrite) {
    // RMW persists sub-chunks directly; aggregation targets padding and
    // does not apply.
    writer_.rmw_flush(g);
    return;
  }

  AggregationDecision decision;
  if (hook_ != nullptr) {
    decision = hook_->on_chunk_deadline(g, *this);
  }
  if (decision.aggregate() && decision.donor != decision.host &&
      decision.donor < group_count() && decision.host < group_count() &&
      (g == decision.donor || g == decision.host)) {
    writer_.shadow_append(decision.donor, decision.host, now_us);
    // The constructed chunk must persist now: it carries either the shadow
    // copies (g == donor) or g's own pending blocks (g == host).
    if (writer_.pending_blocks(decision.host) > 0) {
      writer_.pad_flush(decision.host);
    }
  } else {
    writer_.pad_flush(g);
  }
}

bool LssEngine::gc_step(TimeUs now_us, std::uint32_t watermark) {
  if (!gc_.step(now_us, watermark)) return false;
  audit_point();
  return true;
}

void LssEngine::check_counters() const {
  pool_.check_counters();
  map_.check_counters();
  writer_.check_counters();
  gc_.check_counters();
  if (vtime_ != metrics_.user_blocks) {
    throw std::logic_error("vtime desynchronised from user block counter");
  }
}

void LssEngine::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  check_counters();
  policy_.check_invariants(level);
  if (level != audit::Level::kFull) return;
  const std::span<const Segment> segments = pool_.segments();
  std::uint64_t live_primaries = 0;
  for (Lba lba = 0; lba < map_.logical_blocks(); ++lba) {
    if (!map_.is_mapped(lba)) continue;
    ++live_primaries;
    const BlockLocation loc = map_.locate(lba);
    if (loc.segment >= segments.size()) {
      throw std::logic_error("primary maps outside the segment pool");
    }
    const Segment& seg = segments[loc.segment];
    if (seg.free) throw std::logic_error("primary maps into a free segment");
    if (loc.slot >= seg.write_ptr) {
      throw std::logic_error("primary maps past the write pointer");
    }
    if (pool_.slot_lba(loc) != lba) {
      throw std::logic_error("slot lba does not match block map");
    }
    if (!seg.slot_valid.test(loc.slot)) {
      throw std::logic_error("primary maps to an invalid slot");
    }
  }
  for (const auto [lba, loc] : map_.shadows()) {
    if (loc.segment >= segments.size()) {
      throw std::logic_error("shadow maps outside the segment pool");
    }
    const Segment& seg = segments[loc.segment];
    if (seg.free) throw std::logic_error("shadow maps into a free segment");
    if (pool_.slot_lba(loc) != lba || !seg.slot_valid.test(loc.slot)) {
      throw std::logic_error("shadow slot inconsistent");
    }
    if (!map_.is_mapped(lba)) {
      throw std::logic_error("shadow without a live primary");
    }
    // §3.3 pairing rules: the shadow lives in another group's chunk, and
    // only while its lazy-append original is still pending.
    const BlockLocation prim = map_.locate(lba);
    if (segments[prim.segment].group == seg.group) {
      throw std::logic_error("shadow hosted by its original's own group");
    }
    if (!is_pending(lba)) {
      throw std::logic_error("shadow outlived its persisted original");
    }
  }
  std::uint64_t valid_total = 0;
  std::uint32_t free_seen = 0;
  std::vector<std::uint32_t> group_counts(group_count(), 0);
  for (SegmentId id = 0; id < segments.size(); ++id) {
    const Segment& seg = segments[id];
    // Victim-index membership must mirror pool state exactly: sealed
    // in-use segments are candidates, everything else is not.
    const bool should_be_candidate = !seg.free && seg.sealed;
    if (victim_.is_candidate(id) != should_be_candidate) {
      throw std::logic_error(
          should_be_candidate
              ? "sealed segment missing from the victim index"
              : "victim index holds a free or open segment");
    }
    if (seg.free) {
      ++free_seen;
      continue;
    }
    if (seg.group < group_counts.size()) ++group_counts[seg.group];
    const std::uint32_t valid_here = static_cast<std::uint32_t>(
        seg.slot_valid.count(0, seg.write_ptr));
    if (valid_here != seg.valid_count) {
      throw std::logic_error("segment valid_count out of sync");
    }
    valid_total += valid_here;
  }
  if (free_seen != pool_.free_count()) {
    throw std::logic_error("free segment count out of sync");
  }
  if (valid_total != live_primaries + map_.live_shadow_count()) {
    throw std::logic_error("valid slots != primaries + shadows");
  }
  if (group_counts != pool_.group_segments()) {
    throw std::logic_error("per-group segment counters out of sync");
  }
}

}  // namespace adapt::lss
