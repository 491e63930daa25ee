#include "lss/gc_controller.h"

#include <chrono>
#include <stdexcept>

#include "common/annotations.h"
#include "common/packed_bitmap.h"

namespace adapt::lss {

GcController::GcController(const LssConfig& config, SegmentPool& pool,
                           BlockMap& map, ChunkWriter& writer,
                           PlacementPolicy& policy, VictimPolicy& victim,
                           LssMetrics& metrics, Rng& rng, const VTime& vtime)
    : config_(config),
      pool_(pool),
      map_(map),
      writer_(writer),
      policy_(policy),
      victim_(victim),
      metrics_(metrics),
      rng_(rng),
      vtime_(vtime) {
  migrate_scratch_.reserve(config_.segment_blocks());
}

void GcController::maybe_gc(TimeUs now_us) {
  const std::uint32_t watermark =
      config_.free_segment_reserve + writer_.group_count();
  std::uint32_t spins = 0;
  while (pool_.free_count() < watermark) {
    run_once(now_us);
    if (++spins > pool_.size() * 4) {
      throw std::runtime_error("LssEngine: GC made no progress");
    }
  }
}

bool GcController::step(TimeUs now_us, std::uint32_t watermark) {
  if (pool_.free_count() >= watermark) return false;
  run_once(now_us);
  return true;
}

ADAPT_HOT void GcController::run_once(TimeUs now_us) {
  // Host-clock pause timing only (nondeterministic); everything the trace
  // records below uses the simulated clocks.
  const auto pause_begin = std::chrono::steady_clock::now();
  // The victim policy follows the pool through seal / valid-delta / free
  // notifications, so selection rebuilds no candidate list: greedy reads
  // its bucket frontier, the other policies pass once over their sealed
  // candidates.
  const SegmentId victim = victim_.select(pool_.segments(), vtime_, rng_);
  if (victim == kInvalidSegment) {
    throw std::runtime_error("LssEngine: no GC victim available");
  }
  ++metrics_.gc_runs;
  const std::uint64_t forced_before = metrics_.forced_lazy_flushes;
  const std::uint64_t migrated_before = metrics_.gc_migrated_blocks;
  Segment& v = pool_.segment_mut(victim);

  // Collect the live (slot, lba) set in one cache-friendly sweep, then
  // migrate in slot order. Bits only clear while the victim drains, so the
  // sweep sees every slot the migration loop can find live.
  migrate_scratch_.clear();
  for (std::uint32_t slot = 0; slot < v.write_ptr; ++slot) {
    // Skip fully dead 64-slot words in one comparison.
    if ((slot % PackedBitmap::kWordBits) == 0 &&
        v.slot_valid.word(slot / PackedBitmap::kWordBits) == 0) {
      slot += PackedBitmap::kWordBits - 1;
      continue;
    }
    if (!v.slot_valid.test(slot)) continue;
    const Lba lba = pool_.slot_lba(victim, slot);
    // Warm the primary-map lines now; the migration loop's consistency
    // check and clear_primary hit them next. The victim's lbas scatter
    // across the (large) primary array, so without the hint each
    // migration stalls on a cold load.
    map_.prefetch_primary(lba);
    // Reserved to segment_blocks() in the constructor; a victim can hold
    // at most that many live slots, so no growth here.
    migrate_scratch_.push_back(  // ADAPT_LINT_ALLOW(hot-alloc)
        MigrateEntry{slot, lba});
  }
  for (const MigrateEntry& e : migrate_scratch_) {
    // A forced flush below expires every shadow its chunk left in the
    // victim, including ones later in the sweep.
    if (!v.slot_valid.test(e.slot)) continue;
    const BlockLocation here{victim, e.slot};
    // GC appends never create shadows, so with none live the probe is
    // skipped for the whole run.
    if (map_.live_shadow_count() != 0 && map_.shadow_location(e.lba) == here) {
      // A live shadow inside a sealed victim: the lazy original is still
      // pending in some open chunk. Force that chunk out (padded), which
      // expires this shadow, then skip the now-dead slot.
      const BlockLocation prim = map_.locate(e.lba);
      const GroupId prim_group = pool_.segment(prim.segment).group;
      ++metrics_.forced_lazy_flushes;
      writer_.pad_flush(prim_group);
      if (v.slot_valid.test(e.slot)) {
        throw std::logic_error("forced flush did not expire shadow");
      }
      continue;
    }
    if (!map_.primary_is(e.lba, here)) {
      throw std::logic_error("valid slot not referenced by block map");
    }
    const GroupId target = policy_.place_gc_rewrite(e.lba, v.group, vtime_);
    if (target >= writer_.group_count()) {
      throw std::logic_error("placement policy returned bad GC group");
    }
    // Invalidate the victim copy, then append the migrated one. The drain
    // variant skips the per-block victim-index notification: no selection
    // or audit can run before release() reports on_free, and every index
    // is a pure function of stored state, so the collapsed updates leave it
    // bit-identical. (A forced flush's shadow expiry above still notifies,
    // with the pool's counts.)
    pool_.invalidate_slot_draining(here);
    map_.clear_primary(e.lba);
    writer_.append(target, e.lba, AppendSource::kGc, now_us, v.group);
    ++metrics_.gc_migrated_blocks;
  }

  if (v.valid_count != 0) {
    throw std::logic_error("victim still has valid blocks after GC");
  }
  policy_.note_segment_reclaimed(v.group, v.create_vtime, vtime_);
  ++metrics_.groups[v.group].segments_reclaimed;
  if (trace_ != nullptr) {
    emit(trace_,
         TraceEvent{TraceEventKind::kGcRun, v.group, vtime_, now_us, victim,
                    metrics_.gc_migrated_blocks - migrated_before,
                    metrics_.forced_lazy_flushes - forced_before});
  }
  writer_.trim_segment(victim);
  pool_.release(victim);
  const auto pause_us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - pause_begin);
  metrics_.gc_pause_us.add(static_cast<std::uint64_t>(pause_us.count()));
}

void GcController::check_counters() const {
  if (metrics_.gc_blocks != metrics_.gc_migrated_blocks) {
    throw std::logic_error("gc append and migration counters disagree");
  }
}

}  // namespace adapt::lss
