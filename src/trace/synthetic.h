// Synthetic workload generators.
//
// The paper evaluates on Alibaba / Tencent cloud block traces and the MSR
// Cambridge enterprise traces; those datasets are not redistributable, so
// `CloudVolumeModel` generates per-volume streams whose *distributional*
// properties are calibrated to the paper's own Figure 2 statistics:
//   - per-volume average request rate: 75-86% of volumes below 10 req/s,
//     ~2% above 100 req/s  (log-normal over volumes);
//   - write sizes: 69.8-80.9% of writes <= 8 KiB, 10.8-23.4% > 32 KiB
//     (categorical mixture over {4,8,16,32,64,128} KiB);
//   - Zipfian update locality with per-volume skew drawn from a
//     profile-specific range (Tencent most skewed, MSRC read-heavy).
//
// `YcsbGenerator` reproduces the YCSB-A workload used in the sensitivity
// study (Fig. 11): update-heavy, scrambled-Zipfian key choice, tunable
// inter-arrival density and Zipf alpha.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/zipf.h"
#include "trace/record.h"

namespace adapt::trace {

// ---------------------------------------------------------------------------
// YCSB-style generator (sensitivity study)
// ---------------------------------------------------------------------------

struct YcsbConfig {
  std::uint64_t working_set_blocks = 1u << 20;  ///< paper: 1M 4-KiB blocks
  double zipf_alpha = 0.99;                     ///< YCSB default constant
  double read_ratio = 0.5;                      ///< YCSB-A: 50% reads
  double mean_interarrival_us = 50.0;           ///< density knob
  std::uint32_t request_blocks = 1;             ///< 4 KiB requests
  std::uint64_t seed = 1;
};

/// Streaming generator: `next()` yields records with exponential
/// inter-arrival times and scrambled-Zipfian block choice.
class YcsbGenerator {
 public:
  explicit YcsbGenerator(const YcsbConfig& config);

  const YcsbConfig& config() const noexcept { return config_; }
  Record next();

 private:
  YcsbConfig config_;
  Rng rng_;
  ScrambledZipfianGenerator zipf_;
  TimeUs clock_us_ = 0;
};

/// Materialises `write_blocks` worth of write traffic (reads included on the
/// side per read_ratio) into a Volume.
Volume make_ycsb_volume(const YcsbConfig& config, std::uint64_t write_blocks);

// ---------------------------------------------------------------------------
// Cloud-volume model (production-trace substitute)
// ---------------------------------------------------------------------------

/// Distributional profile of one trace family.
struct CloudProfile {
  std::string name;
  // log10(req/s) over volumes is Normal(mu, sigma).
  double rate_log10_mu;
  double rate_log10_sigma;
  double read_ratio;
  /// Request-size mixture over {1,2,4,8,16,32} blocks (4..128 KiB).
  std::array<double, 6> size_weights;
  /// Per-volume Zipf alpha drawn uniformly from [alpha_lo, alpha_hi].
  double alpha_lo;
  double alpha_hi;
  /// Per-volume working-set size drawn log-uniformly from this range.
  std::uint64_t min_ws_blocks;
  std::uint64_t max_ws_blocks;
  /// ON/OFF burst arrivals: production block traffic is heavily bursty —
  /// requests cluster in bursts of ~mean_burst_len with intra-burst gaps of
  /// ~burst_gap_us, separated by long idle periods sized to hit the
  /// volume's average request rate.
  double mean_burst_len = 6.0;
  double burst_gap_us = 20.0;
  /// Lifetime structure. Cloud block workloads are bimodal (Li et al.,
  /// ToS'23): a small hot region (journals, metadata) absorbs a large
  /// write share with very short block lifetimes, a Zipfian warm region
  /// takes most of the rest, and a sequential cursor writes long-lived,
  /// write-once(ish) data over the remaining space.
  double hot_space_frac = 0.05;
  double hot_write_frac_lo = 0.35;
  double hot_write_frac_hi = 0.60;
  double seq_write_frac_lo = 0.15;
  double seq_write_frac_hi = 0.35;
};

CloudProfile alibaba_profile();
CloudProfile tencent_profile();
CloudProfile msrc_profile();

/// The profile called `name` (alibaba|tencent|msrc); throws
/// std::invalid_argument for any other name.
CloudProfile profile_named(std::string_view name);

/// Per-volume parameters drawn from a profile.
struct VolumeParams {
  std::uint64_t volume_id = 0;
  double rate_per_sec = 1.0;
  double zipf_alpha = 0.9;
  std::uint64_t working_set_blocks = 1u << 15;
  double read_ratio = 0.5;
};

class CloudVolumeModel {
 public:
  CloudVolumeModel(CloudProfile profile, std::uint64_t seed);

  const CloudProfile& profile() const noexcept { return profile_; }

  /// Draws the parameters of volume `volume_id` (deterministic per seed).
  VolumeParams draw_params(std::uint64_t volume_id);

  /// Generates a volume whose total *write* traffic is
  /// `fill_factor * working_set_blocks` blocks — enough churn to reach GC
  /// steady state.
  Volume make_volume(std::uint64_t volume_id, double fill_factor);

 private:
  CloudProfile profile_;
  std::uint64_t seed_;
};

/// Draws a request size in blocks from the profile mixture.
std::uint32_t draw_request_blocks(const std::array<double, 6>& weights,
                                  Rng& rng);

}  // namespace adapt::trace
