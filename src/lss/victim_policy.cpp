#include "lss/victim_policy.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "common/parse.h"

namespace adapt::lss {
namespace {

constexpr std::uint32_t kNoBucket = std::numeric_limits<std::uint32_t>::max();

/// Valid-count buckets over sealed candidates: one intrusive doubly linked
/// list per valid count plus an occupancy bitmap (one bit per non-empty
/// bucket), so every insert/erase/move is O(1) list surgery + counter
/// update (a bit flips only when a bucket becomes empty/non-empty) and the
/// minimum-valid frontier is a count-trailing-zeros word scan. The index
/// sits on the invalidation path — every overwrite and every GC-migrated
/// block moves its segment one bucket down — so these constants dominate
/// the engine's per-op cost.
class ValidBuckets {
 public:
  void bind(std::uint32_t total_segments, std::uint32_t segment_blocks) {
    head_.assign(segment_blocks + 1, kInvalidSegment);
    next_.assign(total_segments, kInvalidSegment);
    prev_.assign(total_segments, kInvalidSegment);
    bucket_of_.assign(total_segments, kNoBucket);
    in_bucket_.assign(segment_blocks + 1, 0);
    occ_words_.assign((segment_blocks + 1 + 63) / 64, 0);
    count_ = 0;
  }

  std::uint32_t count() const noexcept { return count_; }
  bool contains(SegmentId seg) const { return bucket_of_.at(seg) != kNoBucket; }

  void insert(SegmentId seg, std::uint32_t valid) {
    if (valid >= head_.size() || contains(seg)) {
      throw std::logic_error("victim index: bad insert");
    }
    const SegmentId old_head = head_[valid];
    next_[seg] = old_head;
    prev_[seg] = kInvalidSegment;
    if (old_head != kInvalidSegment) prev_[old_head] = seg;
    head_[valid] = seg;
    bucket_of_[seg] = valid;
    if (in_bucket_[valid]++ == 0) {
      occ_words_[valid / 64] |= 1ull << (valid % 64);
    }
    ++count_;
  }

  void erase(SegmentId seg) {
    const std::uint32_t b = bucket_of_.at(seg);
    if (b == kNoBucket) {
      throw std::logic_error("victim index: erase of absent segment");
    }
    const SegmentId p = prev_[seg];
    const SegmentId n = next_[seg];
    if (p != kInvalidSegment) next_[p] = n; else head_[b] = n;
    if (n != kInvalidSegment) prev_[n] = p;
    bucket_of_[seg] = kNoBucket;
    if (--in_bucket_[b] == 0) {
      occ_words_[b / 64] &= ~(1ull << (b % 64));
    }
    --count_;
  }

  void move(SegmentId seg, std::uint32_t new_valid) {
    erase(seg);
    insert(seg, new_valid);
  }

  /// Lowest non-empty valid count, or kNoBucket when the index is empty.
  std::uint32_t min_bucket() const noexcept {
    for (std::size_t w = 0; w < occ_words_.size(); ++w) {
      if (occ_words_[w] != 0) {
        return static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(occ_words_[w])));
      }
    }
    return kNoBucket;
  }

  /// Smallest segment id in `bucket` (walks the frontier list only).
  SegmentId min_id_in(std::uint32_t bucket) const {
    SegmentId best = kInvalidSegment;
    for (SegmentId s = head_.at(bucket); s != kInvalidSegment;
         s = next_[s]) {
      if (s < best) best = s;
    }
    return best;
  }

 private:
  std::vector<SegmentId> head_;     ///< per-valid-count list head
  std::vector<SegmentId> next_;     ///< intrusive links, indexed by seg id
  std::vector<SegmentId> prev_;
  std::vector<std::uint32_t> bucket_of_;  ///< kNoBucket when absent
  std::vector<std::uint32_t> in_bucket_;  ///< candidates per bucket
  std::vector<std::uint64_t> occ_words_;  ///< bit b set ⇔ bucket b non-empty
  std::uint32_t count_ = 0;
};

class GreedyPolicy final : public VictimPolicy {
 public:
  std::string_view name() const override { return "greedy"; }

  void bind_pool(std::uint32_t total_segments,
                 std::uint32_t segment_blocks) override {
    buckets_.bind(total_segments, segment_blocks);
  }

  void on_seal(SegmentId seg, std::uint32_t valid_count,
               VTime /*seal_vtime*/) override {
    buckets_.insert(seg, valid_count);
  }

  void on_valid_delta(SegmentId seg, std::uint32_t /*old_valid*/,
                      std::uint32_t new_valid) override {
    buckets_.move(seg, new_valid);
  }

  void on_free(SegmentId seg) override { buckets_.erase(seg); }

  bool is_candidate(SegmentId seg) const override {
    return buckets_.contains(seg);
  }

  SegmentId select(std::span<const Segment> /*segments*/, VTime /*now*/,
                   Rng& /*rng*/) override {
    const std::uint32_t b = buckets_.min_bucket();
    if (b == kNoBucket) return kInvalidSegment;
    // Lowest id inside the minimum bucket == the victim a full
    // ascending-id scan would pick (strict-less comparison).
    return buckets_.min_id_in(b);
  }

 private:
  ValidBuckets buckets_;
};

/// Base of the policies that keep no index beyond their set of sealed
/// candidates: select() makes one ascending-id pass over the set and reads
/// valid counts and seal times from the pool span, so an invalidation
/// costs them nothing.
class CandidateScanPolicy : public VictimPolicy {
 public:
  void bind_pool(std::uint32_t total_segments,
                 std::uint32_t /*segment_blocks*/) override {
    sealed_.assign(total_segments, false);
  }

  void on_seal(SegmentId seg, std::uint32_t /*valid_count*/,
               VTime /*seal_vtime*/) override {
    if (sealed_.at(seg)) {
      throw std::logic_error("victim index: double seal");
    }
    sealed_[seg] = true;
  }

  void on_valid_delta(SegmentId /*seg*/, std::uint32_t /*old_valid*/,
                      std::uint32_t /*new_valid*/) override {}

  void on_free(SegmentId seg) override {
    if (!sealed_.at(seg)) {
      throw std::logic_error("victim index: free of absent segment");
    }
    sealed_[seg] = false;
  }

  bool is_candidate(SegmentId seg) const override {
    return seg < sealed_.size() && sealed_[seg];
  }

 protected:
  /// Calls fn(id) for every candidate, in ascending id order.
  template <typename Fn>
  void for_each_candidate(Fn&& fn) const {
    for (SegmentId id = 0; id < sealed_.size(); ++id) {
      if (sealed_[id]) fn(id);
    }
  }

 private:
  std::vector<bool> sealed_;  ///< indexed by segment id
};

class CostBenefitPolicy final : public CandidateScanPolicy {
 public:
  std::string_view name() const override { return "cost-benefit"; }

  SegmentId select(std::span<const Segment> segments, VTime now,
                   Rng& /*rng*/) override {
    SegmentId best = kInvalidSegment;
    double best_score = -1.0;
    for_each_candidate([&](SegmentId id) {
      const Segment& seg = segments[id];
      const double u = seg.utilization();
      const double age =
          static_cast<double>(now >= seg.seal_vtime ? now - seg.seal_vtime
                                                    : 0) +
          1.0;
      // Benefit / cost = free-space gain * age / (read + write cost).
      const double score = (1.0 - u) * age / (1.0 + u);
      // Equal scores go to the fewest valid blocks, then the oldest seal;
      // the ascending pass keeps the lowest id among the rest.
      if (score > best_score ||
          (score == best_score &&
           std::tie(seg.valid_count, seg.seal_vtime) <
               std::tie(segments[best].valid_count,
                        segments[best].seal_vtime))) {
        best_score = score;
        best = id;
      }
    });
    return best;
  }
};

class DChoicePolicy final : public CandidateScanPolicy {
 public:
  DChoicePolicy(std::uint32_t d, std::string_view name)
      : d_(d == 0 ? 1 : d), name_(name) {}
  std::string_view name() const override { return name_; }

  void bind_pool(std::uint32_t total_segments,
                 std::uint32_t segment_blocks) override {
    CandidateScanPolicy::bind_pool(total_segments, segment_blocks);
    ids_.reserve(total_segments);
  }

  SegmentId select(std::span<const Segment> segments, VTime /*now*/,
                   Rng& rng) override {
    // Each draw indexes the ascending-id candidate list, as the seed
    // implementation's candidates[k] did.
    ids_.clear();
    for_each_candidate([&](SegmentId id) { ids_.push_back(id); });
    if (ids_.empty()) return kInvalidSegment;
    SegmentId best = kInvalidSegment;
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t i = 0; i < d_; ++i) {
      const SegmentId id = ids_[rng.below(ids_.size())];
      if (segments[id].valid_count < best_valid) {
        best_valid = segments[id].valid_count;
        best = id;
      }
    }
    return best;
  }

 private:
  std::uint32_t d_;
  std::string_view name_;
  std::vector<SegmentId> ids_;  ///< select()'s scratch, reserved at bind
};

class WindowedGreedyPolicy final : public VictimPolicy {
 public:
  explicit WindowedGreedyPolicy(std::uint32_t window)
      : window_(window == 0 ? 1 : window) {}
  std::string_view name() const override { return "windowed-greedy"; }

  void bind_pool(std::uint32_t total_segments,
                 std::uint32_t /*segment_blocks*/) override {
    next_.assign(total_segments, kInvalidSegment);
    prev_.assign(total_segments, kInvalidSegment);
    present_.assign(total_segments, false);
    head_ = tail_ = kInvalidSegment;
    count_ = 0;
  }

  void on_seal(SegmentId seg, std::uint32_t /*valid_count*/,
               VTime /*seal_vtime*/) override {
    if (present_.at(seg)) {
      throw std::logic_error("victim index: double seal");
    }
    // Seals arrive in seal_vtime order, so appending keeps the list
    // age-sorted without any per-call partial_sort.
    present_[seg] = true;
    prev_[seg] = tail_;
    next_[seg] = kInvalidSegment;
    if (tail_ != kInvalidSegment) next_[tail_] = seg; else head_ = seg;
    tail_ = seg;
    ++count_;
  }

  void on_valid_delta(SegmentId /*seg*/, std::uint32_t /*old_valid*/,
                      std::uint32_t /*new_valid*/) override {}

  void on_free(SegmentId seg) override {
    if (!present_.at(seg)) {
      throw std::logic_error("victim index: free of absent segment");
    }
    present_[seg] = false;
    const SegmentId p = prev_[seg];
    const SegmentId n = next_[seg];
    if (p != kInvalidSegment) next_[p] = n; else head_ = n;
    if (n != kInvalidSegment) prev_[n] = p; else tail_ = p;
    --count_;
  }

  bool is_candidate(SegmentId seg) const override {
    return seg < present_.size() && present_[seg];
  }

  SegmentId select(std::span<const Segment> segments, VTime /*now*/,
                   Rng& /*rng*/) override {
    SegmentId best = kInvalidSegment;
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t seen = 0;
    for (SegmentId s = head_; s != kInvalidSegment && seen < window_;
         s = next_[s], ++seen) {
      if (segments[s].valid_count < best_valid) {
        best_valid = segments[s].valid_count;
        best = s;
      }
    }
    return best;
  }

 private:
  std::uint32_t window_;
  std::vector<SegmentId> next_;  ///< seal-order links, head_ = oldest
  std::vector<SegmentId> prev_;
  std::vector<bool> present_;
  SegmentId head_ = kInvalidSegment;
  SegmentId tail_ = kInvalidSegment;
  std::uint32_t count_ = 0;
};

}  // namespace

std::unique_ptr<VictimPolicy> make_greedy() {
  return std::make_unique<GreedyPolicy>();
}
std::unique_ptr<VictimPolicy> make_cost_benefit() {
  return std::make_unique<CostBenefitPolicy>();
}
std::unique_ptr<VictimPolicy> make_d_choice(std::uint32_t d) {
  return std::make_unique<DChoicePolicy>(d, "d-choice");
}
std::unique_ptr<VictimPolicy> make_windowed_greedy(std::uint32_t window) {
  return std::make_unique<WindowedGreedyPolicy>(window);
}
std::unique_ptr<VictimPolicy> make_random() {
  return std::make_unique<DChoicePolicy>(1, "random");
}

std::unique_ptr<VictimPolicy> make_victim_policy(std::string_view name) {
  std::string_view base = name;
  std::string_view param;
  bool has_param = false;
  if (const std::size_t colon = name.find(':');
      colon != std::string_view::npos) {
    base = name.substr(0, colon);
    param = name.substr(colon + 1);
    has_param = true;
  }
  // The parameter is a count in [1, 2^32 - 1] (common/parse.h).
  const auto count = [&](std::uint32_t fallback) {
    if (!has_param) return fallback;
    try {
      return static_cast<std::uint32_t>(parse_uint(param, 1, UINT32_MAX));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("victim policy '" + std::string(name) +
                                  "': " + e.what());
    }
  };
  if (base == "d-choice") return make_d_choice(count(8));
  if (base == "windowed") return make_windowed_greedy(count(32));
  if (base == "greedy" || base == "cost-benefit" || base == "random") {
    if (has_param) {
      throw std::invalid_argument("victim policy '" + std::string(base) +
                                  "' takes no parameter");
    }
    if (base == "greedy") return make_greedy();
    if (base == "cost-benefit") return make_cost_benefit();
    return make_random();
  }
  throw std::invalid_argument("unknown victim policy: " + std::string(name));
}

}  // namespace adapt::lss
