// ThreadPool contract tests, written to run under TSan (CI runs this
// binary in the thread-sanitizer job): concurrent submitters and
// concurrent tasks, the wait_idle barrier (including an empty pool and
// tasks that submit more tasks), drain-on-destruction, and the experiment
// runner's first-error propagation pattern.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace adapt {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1000);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> done{0};
  pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      const int now = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected &&
             !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      concurrent.fetch_sub(1);
    });
  }
  pool.wait_idle();
  EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPoolTest, ManyConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 500;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &done] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        pool.submit(
            [&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(done.load(), kSubmitters * kPerSubmitter);
}

// wait_idle must cover tasks enqueued *by running tasks*: the barrier
// condition is "queue empty and no task running", not "everything I
// personally submitted finished".
TEST(ThreadPoolTest, WaitIdleCoversRecursivelySubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&pool, &done] {
      done.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&done] { done.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 10 * round);
  }
}

// Destruction drains the queue: workers only exit once `stopping_` is set
// AND the queue is empty, so tasks still queued at destructor entry run.
TEST(ThreadPoolTest, DestructorRunsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    // One slow task to keep the single worker busy while the rest queue up.
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 100; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: destructor must drain.
  }
  EXPECT_EQ(done.load(), 100);
}

// Shutdown contract: submit() after shutdown() (or destruction has begun)
// throws instead of silently dropping the task, and shutdown() is
// idempotent — callers may shut down explicitly and still let the
// destructor run.
TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.shutdown();
  EXPECT_EQ(done.load(), 1);  // shutdown drained the queue first
  EXPECT_THROW(pool.submit([&done] { ++done; }), std::runtime_error);
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.shutdown();
  pool.shutdown();  // second call must be a no-op, not a deadlock or throw
  EXPECT_EQ(done.load(), 20);
}

// The experiment runner's propagation contract: tasks must not let
// exceptions escape into the pool (std::function would std::terminate);
// they record the first error under a mutex and the caller rethrows after
// the barrier. This test exercises that pattern under contention.
TEST(ThreadPoolTest, FirstErrorPropagationPattern) {
  ThreadPool pool(4);
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<int> attempted{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&, i] {
      try {
        ++attempted;
        if (i % 10 == 3) throw std::runtime_error("volume failed");
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(attempted.load(), 200);
  ASSERT_TRUE(first_error != nullptr);
  EXPECT_THROW(std::rethrow_exception(first_error), std::runtime_error);
}

}  // namespace
}  // namespace adapt
