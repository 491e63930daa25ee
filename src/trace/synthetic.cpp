#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace adapt::trace {

// ---------------------------------------------------------------------------
// YCSB
// ---------------------------------------------------------------------------

YcsbGenerator::YcsbGenerator(const YcsbConfig& config)
    : config_(config),
      rng_(config.seed),
      zipf_(std::max<std::uint64_t>(
                config.working_set_blocks / config.request_blocks, 1),
            config.zipf_alpha) {}

Record YcsbGenerator::next() {
  clock_us_ += static_cast<TimeUs>(
      rng_.exponential(config_.mean_interarrival_us) + 0.5);
  Record r;
  r.ts_us = clock_us_;
  r.op = rng_.chance(config_.read_ratio) ? OpType::kRead : OpType::kWrite;
  // Draw an aligned extent so repeated draws of the same rank overwrite the
  // same blocks (update locality).
  const std::uint64_t extent = zipf_.next(rng_);
  r.lba = extent * config_.request_blocks;
  r.blocks = config_.request_blocks;
  return r;
}

Volume make_ycsb_volume(const YcsbConfig& config,
                        std::uint64_t write_blocks) {
  YcsbGenerator gen(config);
  Volume volume;
  volume.id = config.seed;
  volume.capacity_blocks = config.working_set_blocks;
  // Expected records = write requests scaled by the read share; +1/8 slack
  // keeps the common case to a single allocation without the doubling
  // overshoot a reserve-less build pays.
  const double write_frac = std::max(1.0 - config.read_ratio, 1e-3);
  const auto writes_needed = static_cast<double>(
      write_blocks / std::max<std::uint32_t>(config.request_blocks, 1) + 1);
  volume.records.reserve(
      static_cast<std::size_t>(writes_needed / write_frac * 1.125));
  std::uint64_t written = 0;
  while (written < write_blocks) {
    Record r = gen.next();
    if (r.op == OpType::kWrite) written += r.blocks;
    volume.records.push_back(r);
  }
  return volume;
}

// ---------------------------------------------------------------------------
// Cloud profiles (calibrated to the paper's Figure 2; see header)
// ---------------------------------------------------------------------------

CloudProfile alibaba_profile() {
  // P(rate < 10 req/s) ~ 0.80, P(rate > 100) ~ 0.025.
  // Sizes: <=8 KiB 74%, >32 KiB 15%.
  return CloudProfile{
      .name = "alibaba",
      .rate_log10_mu = 0.31,
      .rate_log10_sigma = 0.83,
      .read_ratio = 0.45,
      .size_weights = {0.50, 0.24, 0.07, 0.04, 0.10, 0.05},
      .alpha_lo = 0.70,
      .alpha_hi = 1.00,
      .min_ws_blocks = 1u << 15,
      .max_ws_blocks = 1u << 17,
  };
}

CloudProfile tencent_profile() {
  // More skewed access (paper: "data access is more skewed"), smallest
  // requests: <=8 KiB 81%, >32 KiB 11%.
  return CloudProfile{
      .name = "tencent",
      .rate_log10_mu = 0.22,
      .rate_log10_sigma = 0.80,
      .read_ratio = 0.40,
      .size_weights = {0.60, 0.21, 0.05, 0.03, 0.08, 0.03},
      .alpha_lo = 0.95,
      .alpha_hi = 1.20,
      .min_ws_blocks = 1u << 15,
      .max_ws_blocks = 1u << 17,
  };
}

CloudProfile msrc_profile() {
  // Read-intensive enterprise volumes, larger writes: <=8 KiB 70%,
  // >32 KiB 23%.
  return CloudProfile{
      .name = "msrc",
      .rate_log10_mu = 0.25,
      .rate_log10_sigma = 0.85,
      .read_ratio = 0.70,
      .size_weights = {0.45, 0.25, 0.04, 0.03, 0.13, 0.10},
      .alpha_lo = 0.60,
      .alpha_hi = 0.90,
      .min_ws_blocks = 1u << 15,
      .max_ws_blocks = 1u << 17,
  };
}

CloudProfile profile_named(std::string_view name) {
  if (name == "alibaba") return alibaba_profile();
  if (name == "tencent") return tencent_profile();
  if (name == "msrc") return msrc_profile();
  throw std::invalid_argument("unknown profile: " + std::string(name));
}

std::uint32_t draw_request_blocks(const std::array<double, 6>& weights,
                                  Rng& rng) {
  static constexpr std::uint32_t kSizes[6] = {1, 2, 4, 8, 16, 32};
  double total = 0.0;
  for (double w : weights) total += w;
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return kSizes[i];
    u -= weights[i];
  }
  return kSizes[5];
}

CloudVolumeModel::CloudVolumeModel(CloudProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)), seed_(seed) {}

VolumeParams CloudVolumeModel::draw_params(std::uint64_t volume_id) {
  Rng rng(mix64(seed_ * 0x9e3779b97f4a7c15ULL + volume_id));
  VolumeParams p;
  p.volume_id = volume_id;
  const double log10_rate =
      profile_.rate_log10_mu + profile_.rate_log10_sigma * rng.normal();
  p.rate_per_sec = std::pow(10.0, log10_rate);
  p.zipf_alpha = rng.uniform(profile_.alpha_lo, profile_.alpha_hi);
  const double log_lo = std::log2(static_cast<double>(profile_.min_ws_blocks));
  const double log_hi = std::log2(static_cast<double>(profile_.max_ws_blocks));
  p.working_set_blocks = static_cast<std::uint64_t>(
      std::pow(2.0, rng.uniform(log_lo, log_hi)));
  p.read_ratio = profile_.read_ratio;
  return p;
}

Volume CloudVolumeModel::make_volume(std::uint64_t volume_id,
                                     double fill_factor) {
  const VolumeParams p = draw_params(volume_id);
  Rng rng(mix64(seed_ ^ (volume_id * 0xbf58476d1ce4e5b9ULL) ^ 0x5851f42dULL));

  // Bimodal lifetime structure (see CloudProfile): split the LBA space into
  // [hot | warm | sequential] regions.
  const auto ws = p.working_set_blocks;
  const auto hot_blocks = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(profile_.hot_space_frac *
                                 static_cast<double>(ws)),
      64);
  const std::uint64_t warm_begin = hot_blocks;
  const auto warm_blocks = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(0.25 * static_cast<double>(ws)), 64);
  const std::uint64_t seq_begin = warm_begin + warm_blocks;
  const std::uint64_t seq_blocks =
      ws > seq_begin + 64 ? ws - seq_begin : 64;
  const double hot_write_frac =
      rng.uniform(profile_.hot_write_frac_lo, profile_.hot_write_frac_hi);
  const double seq_write_frac =
      rng.uniform(profile_.seq_write_frac_lo, profile_.seq_write_frac_hi);

  // Warm region popularity: Zipfian over warm extents.
  ZipfianGenerator zipf(std::max<std::uint64_t>(warm_blocks / 2, 1),
                        p.zipf_alpha);
  std::uint64_t seq_cursor = 0;

  Volume volume;
  volume.id = volume_id;
  volume.capacity_blocks = p.working_set_blocks;

  const double mean_gap_us = 1e6 / p.rate_per_sec;
  const auto target_write_blocks = static_cast<std::uint64_t>(
      fill_factor * static_cast<double>(p.working_set_blocks));
  // Expected record count from the profile's size mix: writes carry the
  // weighted-mean request size, reads ride along per read_ratio. The
  // +1/8 slack usually makes this the volume's only allocation.
  {
    static constexpr std::uint32_t kSizes[6] = {1, 2, 4, 8, 16, 32};
    double wsum = 0.0;
    double mean_blocks = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      wsum += profile_.size_weights[i];
      mean_blocks += profile_.size_weights[i] * kSizes[i];
    }
    mean_blocks = wsum > 0.0 ? mean_blocks / wsum : 1.0;
    const double write_frac = std::max(1.0 - p.read_ratio, 1e-3);
    const double writes =
        static_cast<double>(target_write_blocks) / mean_blocks + 1.0;
    volume.records.reserve(
        static_cast<std::size_t>(writes / write_frac * 1.125));
  }

  // ON/OFF arrivals: geometric burst lengths with short intra-burst gaps;
  // idle gaps absorb the rest of the budget so the average rate holds.
  const double idle_gap_us = std::max(
      profile_.mean_burst_len * mean_gap_us -
          (profile_.mean_burst_len - 1.0) * profile_.burst_gap_us,
      profile_.burst_gap_us);
  std::uint64_t burst_remaining = 0;

  TimeUs clock_us = 0;
  std::uint64_t written = 0;
  while (written < target_write_blocks) {
    double gap_us = 0.0;
    if (burst_remaining > 0) {
      --burst_remaining;
      gap_us = rng.exponential(profile_.burst_gap_us);
    } else {
      gap_us = rng.exponential(idle_gap_us);
      // Geometric burst length with the configured mean (>= 1).
      const double cont = 1.0 - 1.0 / std::max(profile_.mean_burst_len, 1.0);
      while (rng.chance(cont) && burst_remaining < 256) ++burst_remaining;
    }
    clock_us += static_cast<TimeUs>(gap_us + 0.5);
    Record r;
    r.ts_us = clock_us;
    r.op = rng.chance(p.read_ratio) ? OpType::kRead : OpType::kWrite;
    r.blocks = draw_request_blocks(profile_.size_weights, rng);

    const double cls = rng.uniform();
    if (cls < hot_write_frac) {
      // Hot region: uniform over a small space -> very short lifetimes.
      const std::uint64_t span = std::max<std::uint64_t>(
          hot_blocks > r.blocks ? hot_blocks - r.blocks : 1, 1);
      r.lba = rng.below(span) / r.blocks * r.blocks;
    } else if (cls < hot_write_frac + seq_write_frac) {
      // Sequential cursor over the cold region: long-lived write-once data.
      r.lba = seq_begin + seq_cursor;
      if (r.lba + r.blocks >= p.working_set_blocks) {
        r.lba = seq_begin;
        seq_cursor = 0;
      }
      seq_cursor = (seq_cursor + r.blocks) % std::max<std::uint64_t>(
                                                 seq_blocks, 1);
    } else {
      // Warm region: scrambled Zipf popularity.
      const std::uint64_t scrambled = mix64(zipf.next(rng));
      const std::uint64_t span = std::max<std::uint64_t>(
          warm_blocks > r.blocks ? warm_blocks - r.blocks : 1, 1);
      r.lba = warm_begin + (scrambled % span) / r.blocks * r.blocks;
    }
    if (r.op == OpType::kWrite) written += r.blocks;
    volume.records.push_back(r);
  }
  return volume;
}

}  // namespace adapt::trace
