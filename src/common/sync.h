// Annotated synchronisation primitives: the only place in the tree that
// may name std::mutex / std::condition_variable / std::thread directly
// (tools/adapt_lint's `naked-threading` rule enforces this outside
// src/common/).
//
// The wrappers carry Clang Thread Safety attributes (common/annotations.h),
// so code built on them states its locking discipline in the type system:
// data members say which Mutex guards them (ADAPT_GUARDED_BY), functions
// say which Mutex they need held (ADAPT_REQUIRES), and the `thread-safety`
// CI job proves the contracts with clang -Wthread-safety -Werror. Under GCC
// the attributes vanish and everything compiles to the std primitive it
// wraps — zero runtime cost either way.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "common/annotations.h"

namespace adapt {

class CondVar;
class LockGuard;

/// A std::mutex declared as a TSA capability. Prefer scoped acquisition
/// via LockGuard; lock()/unlock() exist for the rare staged-locking case.
class ADAPT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ADAPT_ACQUIRE() { mu_.lock(); }
  void unlock() ADAPT_RELEASE() { mu_.unlock(); }
  bool try_lock() ADAPT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class LockGuard;
  std::mutex mu_;
};

/// RAII scoped acquisition of a Mutex (TSA scoped capability). Holds a
/// std::unique_lock underneath so CondVar can release/reacquire during a
/// wait without the capability ever appearing unheld to the analysis.
class ADAPT_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ADAPT_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~LockGuard() ADAPT_RELEASE() {}

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  /// True when this guard holds exactly `mu` (CondVar wait precondition).
  bool owns(const Mutex& mu) const noexcept {
    return lock_.owns_lock() && lock_.mutex() == &mu.mu_;
  }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to Mutex/LockGuard. wait() atomically releases
/// the mutex and reacquires it before returning, so from the caller's (and
/// the analysis') perspective the capability is held throughout; callers
/// re-check their predicate in a while loop as usual.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Blocks until notified. `guard` must currently hold `mu` (asserted);
  /// the `mu` parameter names the capability for the static analysis.
  void wait(Mutex& mu, LockGuard& guard) ADAPT_REQUIRES(mu) {
    assert(guard.owns(mu));
    (void)mu;
    cv_.wait(guard.lock_);
  }

  /// Timed wait: blocks until notified or `timeout_us` elapses. Returns
  /// false on timeout, true when woken by a notify (possibly spuriously —
  /// callers re-check their predicate either way).
  bool wait_for_us(Mutex& mu, LockGuard& guard, std::uint64_t timeout_us)
      ADAPT_REQUIRES(mu) {
    assert(guard.owns(mu));
    (void)mu;
    return cv_.wait_for(guard.lock_, std::chrono::microseconds(timeout_us)) ==
           std::cv_status::no_timeout;
  }

 private:
  std::condition_variable cv_;
};

/// Joining thread handle (std::jthread semantics over std::thread): the
/// destructor and move-assignment join instead of terminating, so a Thread
/// can never outlive the state its closure captured.
class Thread {
 public:
  Thread() noexcept = default;

  template <typename Fn, typename... Args>
  explicit Thread(Fn&& fn, Args&&... args)
      : thread_(std::forward<Fn>(fn), std::forward<Args>(args)...) {}

  Thread(Thread&&) noexcept = default;
  Thread& operator=(Thread&& other) noexcept {
    if (this != &other) {
      if (thread_.joinable()) thread_.join();
      thread_ = std::move(other.thread_);
    }
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() {
    if (thread_.joinable()) thread_.join();
  }

  bool joinable() const noexcept { return thread_.joinable(); }
  void join() { thread_.join(); }

 private:
  std::thread thread_;
};

/// std::thread::hardware_concurrency without naming std::thread at the
/// call site; returns at least 1.
inline unsigned hardware_concurrency() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Scheduler yield for short spin-wait loops (test threads waiting on a
/// flag another thread sets).
inline void yield_now() noexcept { std::this_thread::yield(); }

/// Blocking sleep for polling loops that model think time or idle GC
/// backoff; microsecond granularity.
inline void sleep_for_us(std::uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Edge-triggered work signal for idle backoff loops (background GC waiting
/// for writers to create reclaimable garbage, backpressure waits). Producers
/// call bump() after publishing work; consumers snapshot version() BEFORE
/// checking for work and, finding none, park in wait_change() — a bump in
/// the race window makes the wait return immediately, so no edge is lost.
///
/// The producer fast path is one relaxed fetch_add plus one acquire load:
/// the mutex and condvar are touched only while a consumer is parked, so
/// signalling from a hot write path costs no syscall in steady state.
class WorkSignal {
 public:
  WorkSignal() = default;
  WorkSignal(const WorkSignal&) = delete;
  WorkSignal& operator=(const WorkSignal&) = delete;

  /// Current version; pair with wait_change() as snapshot-check-park.
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Publishes one unit of progress and wakes parked waiters, if any.
  void bump() noexcept {
    version_.fetch_add(1, std::memory_order_release);
    if (waiters_.load(std::memory_order_acquire) > 0) {
      LockGuard g(mu_);
      cv_.notify_all();
    }
  }

  /// Blocks until version() != `seen` or `timeout_us` elapses; returns the
  /// version observed on exit. The timeout bounds the park so shutdown
  /// flags polled by the caller's loop are always rechecked.
  std::uint64_t wait_change(std::uint64_t seen, std::uint64_t timeout_us) {
    std::uint64_t now = version();
    if (now != seen) return now;
    waiters_.fetch_add(1, std::memory_order_acq_rel);
    {
      LockGuard g(mu_);
      now = version();
      if (now == seen) {
        cv_.wait_for_us(mu_, g, timeout_us);
        now = version();
      }
    }
    waiters_.fetch_sub(1, std::memory_order_acq_rel);
    return now;
  }

 private:
  std::atomic<std::uint64_t> version_{0};
  std::atomic<int> waiters_{0};
  Mutex mu_;
  CondVar cv_;
};

/// Monotonic clock sample in nanoseconds, for host-time latency capture
/// (submit→durable spans). Values are host-dependent — never feed them
/// into deterministic engine state, only into host-unit metrics.
inline std::uint64_t monotonic_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace adapt
