// Zipfian and scrambled-Zipfian generators matching YCSB semantics.
//
// YCSB-A draws keys from a Zipfian distribution over N items with exponent
// alpha (YCSB calls it `zipfian constant`, default 0.99). The scrambled
// variant hashes the rank so that popularity is spread uniformly over the
// key space — this is what real YCSB uses and what keeps "hot" LBAs from
// clustering at the bottom of the address range.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace adapt {

/// Draws ranks in [0, n) with P(rank = k) proportional to 1/(k+1)^alpha.
/// Uses the Gray/Jim-Gray-style analytic approximation employed by YCSB,
/// which requires only O(1) state and O(1) time per draw. Construction
/// needs the normalisation zeta(n, alpha), an O(n) sum; the process keeps
/// the sums of the last 64 (n, alpha) pairs, so rebuilding a generator with
/// recent parameters costs a lookup and gives a bit-identical generator.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double alpha);

  /// Number of items.
  std::uint64_t n() const noexcept { return n_; }
  double alpha() const noexcept { return alpha_; }

  /// Next rank; rank 0 is the most popular item.
  std::uint64_t next(Rng& rng) noexcept;

 private:
  static double zeta(std::uint64_t n, double theta) noexcept;
  /// zeta(n, theta) through the process-wide memo of recent sums.
  static double memoized_zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double alpha_;
  double zetan_;
  double theta_;
  double eta_;
  double alpha_param_;
  double zeta2theta_;
};

/// Scrambled Zipfian: Zipfian ranks mapped through a 64-bit hash and folded
/// back into [0, n). Matches YCSB's ScrambledZipfianGenerator behaviour.
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(std::uint64_t n, double alpha)
      : inner_(n, alpha), n_(n) {}

  std::uint64_t n() const noexcept { return n_; }
  std::uint64_t next(Rng& rng) noexcept {
    return mix64(inner_.next(rng)) % n_;
  }

 private:
  ZipfianGenerator inner_;
  std::uint64_t n_;
};

}  // namespace adapt
