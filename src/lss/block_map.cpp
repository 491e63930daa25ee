#include "lss/block_map.h"

#include <stdexcept>

#include "lss/segment_pool.h"

namespace adapt::lss {

void BlockMap::invalidate(Lba lba, SegmentPool& pool) {
  if (is_mapped(lba)) {
    const BlockLocation loc = unpack_location(packed(lba));
    if (lifetime_ != nullptr) {
      lifetime_->add(*lifetime_vtime_ -
                     pool.segment(loc.segment).create_vtime);
    }
    pool.invalidate_slot(loc);
    clear_primary(lba);
  }
  // The flat table's empty fast path makes this free for policies that
  // never aggregate (no shadows ever created).
  const BlockLocation shadow = shadow_.find(lba);
  if (shadow != kNowhere) {
    pool.invalidate_slot(shadow);
    shadow_.erase(lba);
  }
}

void BlockMap::expire_shadow(Lba lba, SegmentPool& pool) {
  const BlockLocation shadow = shadow_.find(lba);
  if (shadow == kNowhere) return;
  pool.invalidate_slot(shadow);
  shadow_.erase(lba);
}

void BlockMap::check_counters() const {
  shadow_.check_counters();
  // O(live shadows), which is bounded by the pending blocks across open
  // chunks: a shadow exists only while its lazy-append original is pending.
  for (const auto [lba, loc] : shadow_) {
    (void)loc;
    if (lba >= primary_.size() || !is_mapped(lba)) {
      throw std::logic_error("shadow without a live primary");
    }
  }
}

}  // namespace adapt::lss
