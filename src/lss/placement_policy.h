// The placement-policy interface every scheme (SepGC, DAC, WARCIP, MiDA,
// SepBIT, ADAPT) implements. The engine asks the policy where to append a
// block; the policy sees user writes, GC rewrites, and segment lifecycle
// notifications but never touches segment internals.
//
// All lifespan/age reasoning uses virtual time (`VTime`, user blocks written
// so far); wall time is only relevant to coalescing and aggregation.
#pragma once

#include <cstddef>
#include <string_view>

#include "audit/audit.h"
#include "common/types.h"

namespace adapt::lss {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual std::string_view name() const = 0;

  /// Total groups managed; the engine creates one open segment per group.
  virtual GroupId group_count() const = 0;

  /// True if group `g` receives user writes under this scheme (used by
  /// per-group traffic reporting and shadow-host selection).
  virtual bool is_user_group(GroupId g) const = 0;

  /// Chooses a group for a user-written block (one call per 4-KiB block).
  virtual GroupId place_user_write(Lba lba, VTime now) = 0;

  /// Hints that place_user_write(lba, ...) follows shortly, so a policy
  /// with per-LBA state can start fetching lba's entry. No-op by default;
  /// must not change any decision, and ignores an out-of-range lba.
  virtual void prefetch_user_write(Lba /*lba*/) const noexcept {}

  /// Chooses a group for a valid block being migrated out of a GC victim.
  virtual GroupId place_gc_rewrite(Lba lba, GroupId victim_group,
                                   VTime now) = 0;

  /// Lifecycle notifications (optional).
  virtual void note_segment_sealed(GroupId /*group*/, VTime /*now*/) {}
  virtual void note_segment_reclaimed(GroupId /*group*/,
                                      VTime /*create_vtime*/,
                                      VTime /*now*/) {}

  /// Approximate resident memory of policy metadata, for the Fig. 12b
  /// comparison.
  virtual std::size_t memory_usage_bytes() const { return 0; }

  /// Self-audit of the policy's own structures at `level`, run by
  /// LssEngine::check_invariants; throws std::logic_error on a violation.
  /// A policy without checkable state keeps this no-op.
  virtual void check_invariants(audit::Level /*level*/) const {}
};

}  // namespace adapt::lss
