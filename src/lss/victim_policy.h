// Victim-selection policies for GC. All schemes share these so that
// Greedy vs Cost-Benefit comparisons isolate placement effects (paper §4.2),
// with d-choice / Windowed Greedy / Random Greedy as ablation variants
// (related work §5).
//
// The engine drives segment lifecycle notifications (on_seal /
// on_valid_delta / on_free) and each policy keeps its own candidates.
// Greedy, the policy every bench and the simulator's default run, keeps an
// incremental index: valid-count buckets (intrusive lists + an occupancy
// bitmap whose first set bit is the frontier), so an invalidation costs
// O(1) and select() no pool scan. Windowed greedy keeps a seal-order list,
// since seal vtimes can tie and the pool cannot give the order back.
// Cost-benefit and d-choice (random is d-choice with d = 1) keep only their
// set of sealed candidates and pick in one ascending-id pass over it,
// reading valid counts and seal times from the `segments` span select()
// receives; d-choice draws from the ascending-id candidate list, as the
// seed implementation's candidates[k] did.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "lss/segment.h"

namespace adapt::lss {

class VictimPolicy {
 public:
  virtual ~VictimPolicy() = default;
  virtual std::string_view name() const = 0;

  /// Resets the policy for a pool of `total_segments` segments with
  /// `segment_blocks` slots each. The engine calls this once, before any
  /// notification; re-binding discards all prior state.
  virtual void bind_pool(std::uint32_t total_segments,
                         std::uint32_t segment_blocks) = 0;

  /// `seg` was sealed holding `valid_count` live blocks: it becomes a GC
  /// candidate.
  virtual void on_seal(SegmentId seg, std::uint32_t valid_count,
                       VTime seal_vtime) = 0;

  /// Candidate `seg`'s live-block count changed (user overwrite, shadow
  /// expiry, or GC migration). Fired only for sealed segments.
  virtual void on_valid_delta(SegmentId seg, std::uint32_t old_valid,
                              std::uint32_t new_valid) = 0;

  /// Candidate `seg` was reclaimed and stops being a candidate.
  virtual void on_free(SegmentId seg) = 0;

  /// True while `seg` is a candidate (sealed, not yet freed). Used by the
  /// engine's full invariant audit to cross-check candidate membership
  /// against pool state; must be O(1).
  virtual bool is_candidate(SegmentId seg) const = 0;

  /// Picks a victim among the candidates, or kInvalidSegment when no
  /// candidate exists. `segments` is the whole pool for metric lookups;
  /// `now` is virtual time. Does not remove the victim — the engine
  /// reports that through on_free after reclamation.
  virtual SegmentId select(std::span<const Segment> segments, VTime now,
                           Rng& rng) = 0;
};

/// Least-valid-blocks-first; ties broken toward the lowest segment id,
/// matching a full ascending-id scan.
std::unique_ptr<VictimPolicy> make_greedy();

/// Rosenblum's cost-benefit: maximize (1 - u) * age / (1 + u). Equal scores
/// go to the fewest valid blocks, then the oldest seal, then the lowest id.
std::unique_ptr<VictimPolicy> make_cost_benefit();

/// d-choice: sample d candidates uniformly, greedy among them.
std::unique_ptr<VictimPolicy> make_d_choice(std::uint32_t d);

/// Windowed greedy: greedy among the w oldest sealed segments.
std::unique_ptr<VictimPolicy> make_windowed_greedy(std::uint32_t window);

/// Uniformly random victim (stress baseline): d-choice with d = 1, named
/// "random".
std::unique_ptr<VictimPolicy> make_random();

/// Factory by name: "greedy", "cost-benefit", "d-choice", "windowed",
/// "random". The parameterized policies accept a ":<n>" suffix overriding
/// their default parameter — "d-choice:4" (default d=8), "windowed:64"
/// (default window=32). Throws std::invalid_argument for unknown names,
/// malformed or zero parameters, and parameters on policies that take
/// none.
std::unique_ptr<VictimPolicy> make_victim_policy(std::string_view name);

}  // namespace adapt::lss
