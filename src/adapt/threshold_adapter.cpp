#include "adapt/threshold_adapter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/annotations.h"

namespace adapt::core {
namespace {

/// Share of (scaled) capacity budgeted to the simulated user groups. The
/// real system's GC-rewritten groups hold most of the capacity (paper
/// Observation 4), so the user groups see much higher GC pressure than a
/// whole-device simulation would suggest.
constexpr double kUserCapacityFraction = 0.20;

GhostConfig ghost_geometry(const AdapterConfig& cfg) {
  GhostConfig g;
  g.segment_blocks = std::max<std::uint32_t>(
      4, static_cast<std::uint32_t>(
             static_cast<double>(cfg.segment_blocks) * cfg.sample_rate));
  const double scaled_capacity = static_cast<double>(cfg.logical_blocks) *
                                 cfg.sample_rate *
                                 (1.0 + cfg.over_provision) *
                                 kUserCapacityFraction;
  g.capacity_segments = std::max<std::uint32_t>(
      8, static_cast<std::uint32_t>(scaled_capacity / g.segment_blocks));
  return g;
}

}  // namespace

SpatialSampler::SpatialSampler(double rate)
    : rate_(std::clamp(rate, 0.0, 1.0)) {
  if (rate_ >= 1.0) {
    cutoff_ = std::numeric_limits<std::uint64_t>::max();
  } else {
    cutoff_ = static_cast<std::uint64_t>(rate_ * std::pow(2.0, 64.0));
  }
}

ThresholdAdapter::ThresholdAdapter(const AdapterConfig& config)
    : config_(config),
      sampler_((config.sample_rate > 0.0
                    ? config.sample_rate
                    : std::min(1.0, 4096.0 / static_cast<double>(std::max<
                                                std::uint64_t>(
                                        config.logical_blocks, 1))))) {
  config_.sample_rate = sampler_.rate();
  if (config_.num_ghosts < 3 || config_.num_ghosts > 63) {
    // Fewer leave the linear window no interior; more leave the
    // exponential window no base below 2^(64-K) (configure_exponential).
    throw std::invalid_argument("ThresholdAdapter needs 3 to 63 ghosts");
  }
  update_volume_ = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(config_.update_fraction *
                                 static_cast<double>(config_.logical_blocks)),
      1);
  // Size the index for the blocks the sampler is expected to pick, at half
  // load; grow_index() doubles it if more turn up.
  const auto expected_blocks = static_cast<std::size_t>(
      config_.sample_rate * static_cast<double>(config_.logical_blocks));
  index_.resize(std::bit_ceil(std::max<std::size_t>(2 * expected_blocks, 16)));
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
  last_write_.reserve(expected_blocks);
  // Cold-start threshold: a few segments' worth of writes (refined by the
  // first adoption).
  current_threshold_ = static_cast<std::uint64_t>(config_.segment_blocks) * 4;
  const GhostConfig geom = ghost_geometry(config_);
  ghost_capacity_blocks_ = static_cast<std::uint64_t>(geom.segment_blocks) *
                           geom.capacity_segments;
  ghosts_.reserve(config_.num_ghosts);
  for (std::uint32_t i = 0; i < config_.num_ghosts; ++i) {
    ghosts_.emplace_back(geom, 0);
  }
  configure_exponential(config_.segment_blocks);
}

void ThresholdAdapter::configure_exponential(std::uint64_t center) {
  // Thresholds center * 2^i, i = 0 .. K-1 (center = smallest candidate).
  // A top-edge winner re-anchors the window at itself, 2^(K-1) times the
  // old base, so the base is capped below 2^(64-K): every threshold then
  // stays below 2^63, and the adoption mean of any two cannot wrap.
  std::uint64_t t = std::clamp<std::uint64_t>(
      center, 1, ~std::uint64_t{0} >> ghosts_.size());
  for (GhostSet& g : ghosts_) {
    g.set_threshold(t);
    t *= 2;
  }
  phase_ = Phase::kExponential;
  sampled_since_reconfigure_ = 0;
}

void ThresholdAdapter::configure_linear(std::uint64_t lo, std::uint64_t hi) {
  // Linear steps across [lo, hi]; granularity no finer than one segment.
  lo = std::max<std::uint64_t>(lo, 1);
  hi = std::max(hi, lo + 1);
  const auto k = static_cast<std::uint64_t>(ghosts_.size());
  const std::uint64_t step = std::max<std::uint64_t>(
      (hi - lo) / (k - 1), config_.segment_blocks);
  std::uint64_t t = lo;
  for (GhostSet& g : ghosts_) {
    g.set_threshold(t);
    t += step;
  }
  phase_ = Phase::kLinear;
  sampled_since_reconfigure_ = 0;
}

ADAPT_HOT bool ThresholdAdapter::on_user_write(Lba lba, VTime now) {
  ++writes_since_adoption_;
  if (sampler_.sampled(lba)) {
    ++sampled_writes_;
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home_slot(lba);
    while (index_[i].lba != kInvalidLba && index_[i].lba != lba) {
      i = (i + 1) & mask;
    }
    std::uint64_t interval = GhostSet::kNoHistory;
    std::uint32_t id;
    if (index_[i].lba == kInvalidLba) {
      id = add_block(lba, now);
    } else {
      id = index_[i].id;
      interval = now - last_write_[id];
      last_write_[id] = now;
    }
    for (GhostSet& g : ghosts_) g.write(id, interval);
    ++sampled_since_reconfigure_;
  }

  if (writes_since_adoption_ < update_volume_) return false;
  const std::uint64_t before = current_threshold_;
  maybe_adopt();
  return current_threshold_ != before;
}

std::uint32_t ThresholdAdapter::add_block(Lba lba, VTime now) {
  if (lba == kInvalidLba) {
    throw std::invalid_argument("ThresholdAdapter: reserved LBA");
  }
  if ((last_write_.size() + 1) * 2 > index_.size()) grow_index();
  const auto id = static_cast<std::uint32_t>(last_write_.size());
  place(IndexSlot{lba, id});
  last_write_.push_back(now);
  return id;
}

void ThresholdAdapter::grow_index() {
  const std::vector<IndexSlot> old = std::move(index_);
  index_.assign(old.size() * 2, IndexSlot{});
  --index_shift_;
  for (const IndexSlot& slot : old) {
    if (slot.lba != kInvalidLba) place(slot);
  }
}

void ThresholdAdapter::place(IndexSlot slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home_slot(slot.lba);
  while (index_[i].lba != kInvalidLba) i = (i + 1) & mask;
  index_[i] = slot;
}

void ThresholdAdapter::maybe_adopt() {
  // All ghosts must have an authentic simulation (enough GC churn since the
  // last reconfiguration, and at least a full turnover of the simulated
  // capacity in sampled writes).
  if (sampled_since_reconfigure_ < ghost_capacity_blocks_) return;
  for (const GhostSet& g : ghosts_) {
    if (!g.stable()) return;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < ghosts_.size(); ++i) {
    if (ghosts_[i].discard_ratio() < ghosts_[best].discard_ratio()) {
      best = i;
    }
  }
  // Smooth adoptions: the ghost statistics are sampled and therefore noisy;
  // moving halfway to the winner each time keeps the threshold from
  // thrashing between adjacent candidates.
  current_threshold_ =
      (current_threshold_ + ghosts_[best].threshold() + 1) / 2;
  ++adoptions_;
  writes_since_adoption_ = 0;

  if (best == 0 || best + 1 == ghosts_.size()) {
    // Winner on the window edge: WA is monotone across the window; re-probe
    // with the exponential window anchored below the winner.
    const std::uint64_t anchor = std::max<std::uint64_t>(
        ghosts_[best].threshold() / (best == 0 ? 4 : 1),
        config_.segment_blocks);
    configure_exponential(anchor);
  } else {
    configure_linear(ghosts_[best - 1].threshold(),
                     ghosts_[best + 1].threshold());
  }
}

void ThresholdAdapter::check_invariants(audit::Level level) const {
  if (level == audit::Level::kOff) return;
  const auto fail = [](const char* what) {
    throw std::logic_error(
        std::string("ThresholdAdapter invariant violated: ") + what);
  };
  if (ghosts_.size() != config_.num_ghosts) fail("ghost bank resized");
  for (std::size_t i = 0; i + 1 < ghosts_.size(); ++i) {
    // Both window shapes (exponential and linear) keep candidates sorted.
    if (ghosts_[i].threshold() >= ghosts_[i + 1].threshold()) {
      fail("ghost thresholds not strictly increasing");
    }
  }
  if (current_threshold_ == 0) fail("adopted threshold is zero");
  if (sampled_since_reconfigure_ > sampled_writes_) {
    fail("reconfigure counter ahead of total sampled writes");
  }
  if (last_write_.size() > sampled_writes_) {
    fail("more last-write entries than sampled writes");
  }
  if (last_write_.size() * 2 > index_.size()) fail("index past half load");
  if (phase_ == Phase::kLinear && adoptions_ == 0) {
    fail("linear phase before any adoption");
  }
  if (level != audit::Level::kFull) return;
  // Every sampled block sits in the index once, under a distinct id.
  std::vector<bool> seen(last_write_.size(), false);
  for (const IndexSlot& slot : index_) {
    if (slot.lba == kInvalidLba) continue;
    if (!sampler_.sampled(slot.lba)) fail("index holds an unsampled block");
    if (slot.id >= seen.size() || seen[slot.id]) {
      fail("index id out of range or repeated");
    }
    seen[slot.id] = true;
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    fail("block id missing from the index");
  }
  for (const GhostSet& g : ghosts_) g.check_invariants(level);
}

std::vector<std::uint64_t> ThresholdAdapter::ghost_thresholds() const {
  std::vector<std::uint64_t> out;
  out.reserve(ghosts_.size());
  for (const GhostSet& g : ghosts_) out.push_back(g.threshold());
  return out;
}

std::size_t ThresholdAdapter::memory_usage_bytes() const noexcept {
  // The paper's §4.4 hash layout: one node (LBA, time, node overhead) per
  // sampled block, whatever the flat index allocates.
  std::size_t total = last_write_.size() * (sizeof(Lba) + sizeof(VTime) +
                                            GhostSet::kHashNodeBytes);
  for (const GhostSet& g : ghosts_) total += g.memory_usage_bytes();
  return total;
}

}  // namespace adapt::core
