#include "common/zipf.h"

#include <array>
#include <cmath>
#include <cstddef>

#include "common/annotations.h"
#include "common/sync.h"

namespace adapt {
namespace {

/// The zeta(n, theta) sums of the last kEntries (n, theta) pairs, shared by
/// the whole process. A sum is n pow() calls (1.3 ms at n = 2^16), and
/// generators are built again and again with the same parameters: one per
/// client in every prototype run, one per volume in every generated trace.
struct ZetaMemo {
  struct Entry {
    std::uint64_t n = 0;
    double theta = 0.0;
    double sum = 0.0;  // {0, 0.0, 0.0} is a true sum: empties need no flag
  };
  static constexpr std::size_t kEntries = 64;

  Mutex mu;
  std::array<Entry, kEntries> entries ADAPT_GUARDED_BY(mu){};
  std::size_t next ADAPT_GUARDED_BY(mu) = 0;  // round-robin replacement

  /// The stored sum of (n, theta); false when there is none.
  bool find(std::uint64_t n, double theta, double& sum) ADAPT_REQUIRES(mu) {
    for (const Entry& e : entries) {
      if (e.n == n && e.theta == theta) {
        sum = e.sum;
        return true;
      }
    }
    return false;
  }
};

ZetaMemo& zeta_memo() {
  static ZetaMemo memo;
  return memo;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double alpha)
    : n_(n), alpha_(alpha) {
  // alpha == 0 degenerates to uniform; the YCSB formulas below handle it,
  // but guard the zeta sums against theta == 1 singularities.
  theta_ = alpha;
  // theta == 1 makes the YCSB closed form singular; nudge off the pole.
  if (std::abs(1.0 - theta_) < 1e-9) theta_ += 1e-6;
  zetan_ = memoized_zeta(n_, theta_);
  zeta2theta_ = zeta(2, theta_);
  alpha_param_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
}

double ZipfianGenerator::zeta(std::uint64_t n, double theta) noexcept {
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  return sum;
}

double ZipfianGenerator::memoized_zeta(std::uint64_t n, double theta) {
  ZetaMemo& memo = zeta_memo();
  double sum = 0.0;
  {
    LockGuard lock(memo.mu);
    if (memo.find(n, theta, sum)) return sum;
  }
  // Summed outside the lock: threads that miss together each compute the
  // same value, and only the first stores it.
  sum = zeta(n, theta);
  LockGuard lock(memo.mu);
  double stored = 0.0;
  if (!memo.find(n, theta, stored)) {
    memo.entries[memo.next] = ZetaMemo::Entry{n, theta, sum};
    memo.next = (memo.next + 1) % ZetaMemo::kEntries;
  }
  return sum;
}

std::uint64_t ZipfianGenerator::next(Rng& rng) noexcept {
  if (theta_ == 0.0) return rng.below(n_);  // uniform fast path

  const double u = rng.uniform();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const double frac =
      std::pow(eta_ * u - eta_ + 1.0, alpha_param_);
  auto rank = static_cast<std::uint64_t>(static_cast<double>(n_) * frac);
  if (rank >= n_) rank = n_ - 1;
  return rank;
}

}  // namespace adapt
