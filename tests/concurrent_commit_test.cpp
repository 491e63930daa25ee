// Tests for the group-commit front-end (lss/group_commit.h): the writer
// queue's batching and leader handoff, the failure and latency contracts,
// and the differential linearization oracle — the concurrent path records
// its op order, a serial engine replays it, and final state +
// deterministic metrics must match bit-exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "adapt/shard_stack.h"
#include "common/sync.h"
#include "lss/group_commit.h"
#include "lss/placement_policy.h"
#include "trace/synthetic.h"

namespace adapt::lss {
namespace {

// ---------------------------------------------------------------------------
// Differential linearization oracle.

void expect_group_equal(const GroupTraffic& a, const GroupTraffic& b,
                        std::size_t g) {
  EXPECT_EQ(a.user_blocks, b.user_blocks) << "group " << g;
  EXPECT_EQ(a.gc_blocks, b.gc_blocks) << "group " << g;
  EXPECT_EQ(a.shadow_blocks, b.shadow_blocks) << "group " << g;
  EXPECT_EQ(a.padding_blocks, b.padding_blocks) << "group " << g;
  EXPECT_EQ(a.full_flushes, b.full_flushes) << "group " << g;
  EXPECT_EQ(a.padded_flushes, b.padded_flushes) << "group " << g;
  EXPECT_EQ(a.padded_fill_blocks, b.padded_fill_blocks) << "group " << g;
  EXPECT_EQ(a.rmw_flushes, b.rmw_flushes) << "group " << g;
  EXPECT_EQ(a.rmw_blocks, b.rmw_blocks) << "group " << g;
  EXPECT_EQ(a.segments_sealed, b.segments_sealed) << "group " << g;
  EXPECT_EQ(a.segments_reclaimed, b.segments_reclaimed) << "group " << g;
  EXPECT_EQ(a.gc_from, b.gc_from) << "group " << g;
}

void expect_histogram_equal(const Log2Histogram& a, const Log2Histogram& b,
                            const char* name) {
  EXPECT_EQ(a.count(), b.count()) << name;
  EXPECT_EQ(a.sum(), b.sum()) << name;
  EXPECT_EQ(a.max_value(), b.max_value()) << name;
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << name << " bucket " << i;
  }
}

/// Field-by-field bit-exact comparison of deterministic metrics. The one
/// deliberate exception is gc_pause_us: it holds host-clock samples, so
/// even two serial replays of the same log differ there.
void expect_metrics_equal(const LssMetrics& a, const LssMetrics& b) {
  EXPECT_EQ(a.user_blocks, b.user_blocks);
  EXPECT_EQ(a.gc_blocks, b.gc_blocks);
  EXPECT_EQ(a.shadow_blocks, b.shadow_blocks);
  EXPECT_EQ(a.padding_blocks, b.padding_blocks);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.gc_migrated_blocks, b.gc_migrated_blocks);
  EXPECT_EQ(a.forced_lazy_flushes, b.forced_lazy_flushes);
  EXPECT_EQ(a.rmw_flushes, b.rmw_flushes);
  EXPECT_EQ(a.rmw_blocks, b.rmw_blocks);
  EXPECT_EQ(a.rmw_read_blocks, b.rmw_read_blocks);
  EXPECT_EQ(a.read_blocks, b.read_blocks);
  EXPECT_EQ(a.read_chunk_fetches, b.read_chunk_fetches);
  EXPECT_EQ(a.read_buffer_hits, b.read_buffer_hits);
  EXPECT_EQ(a.read_unmapped, b.read_unmapped);
  expect_histogram_equal(a.block_lifetime, b.block_lifetime,
                         "block_lifetime");
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    expect_group_equal(a.groups[g], b.groups[g], g);
  }
}

/// The prototype's stack for `policy` (greedy victim, no array), built by
/// core::make_shard_parts as run_prototype builds it.
ShardFactory stack_factory(std::string policy) {
  return [policy = std::move(policy)](std::uint32_t /*shard_index*/,
                                      const LssConfig& config) {
    core::StackSpec spec;
    spec.policy = policy;
    return core::make_shard_parts(spec, config);
  };
}

struct DiffCase {
  std::string policy = "sepgc";
  std::uint64_t seed = 1;
  std::uint32_t clients = 4;
  /// Default writes about twice the engine's physical log (4 x 40000
  /// blocks against 2^16 x 1.25 = 81,920), so the log wraps and GC
  /// genuinely migrates whatever the interleave — a differential test that
  /// never reclaims a segment would not be testing the GC interleave.
  std::uint64_t writes_per_client = 40'000;
  bool background_gc = true;
};

/// Runs `dc.clients` threads of YCSB writes (plus a GC thread) through a
/// ConcurrentEngine, then replays the recorded linearized log through a
/// fresh serial engine and asserts bit-identical final state.
void run_differential(const DiffCase& dc) {
  constexpr std::uint64_t kWorkingSet = std::uint64_t{1} << 16;
  LssConfig lss_config;
  lss_config.logical_blocks = kWorkingSet;

  const ShardFactory factory = stack_factory(dc.policy);

  ConcurrentEngine engine(lss_config, dc.seed, factory, /*record_ops=*/true);
  const std::uint32_t watermark =
      lss_config.free_segment_reserve +
      engine.engine_for_inspection().group_count() + 4;

  // The simulated clock only needs to be shared and non-decreasing-ish;
  // the leader monotonises it and records the applied value, so the
  // oracle is exact regardless of what we feed here.
  std::atomic<std::uint64_t> clock{0};
  std::atomic<std::uint64_t> submitted_blocks{0};
  std::atomic<bool> done{false};

  auto client_fn = [&](std::uint32_t client_id) {
    trace::YcsbConfig wc;
    wc.working_set_blocks = kWorkingSet;
    wc.seed = dc.seed * 7919 + client_id;
    trace::YcsbGenerator gen(wc);
    std::uint64_t written = 0;
    while (written < dc.writes_per_client) {
      const trace::Record r = gen.next();
      if (r.op != trace::OpType::kWrite) continue;
      engine.write(r.lba, r.blocks,
                   clock.fetch_add(1, std::memory_order_relaxed));
      written += r.blocks;
    }
    submitted_blocks.fetch_add(written, std::memory_order_relaxed);
  };
  auto gc_fn = [&] {
    while (!done.load(std::memory_order_relaxed)) {
      const bool worked = engine.gc_step(
          clock.fetch_add(1, std::memory_order_relaxed), watermark);
      if (!worked) yield_now();
    }
  };

  {
    Thread gc;
    if (dc.background_gc) gc = Thread(gc_fn);
    {
      std::vector<Thread> clients;
      clients.reserve(dc.clients);
      for (std::uint32_t i = 0; i < dc.clients; ++i) {
        clients.emplace_back(client_fn, i);
      }
    }  // joins the clients
    done.store(true, std::memory_order_relaxed);
  }  // joins the GC thread
  engine.flush_all();

  // Sanity: contention must have actually formed multi-op batches, or this
  // test is not exercising the group path at all.
  const GroupCommitStats stats = engine.stats();
  EXPECT_GT(stats.groups, 0u);
  EXPECT_GE(stats.ops, stats.groups);
  if (dc.background_gc) {
    // The write volume is twice the physical log, so the log wraps and GC
    // must have migrated blocks concurrently with client writes —
    // otherwise the oracle never sees a write/GC interleave.
    EXPECT_GT(engine.metrics().gc_runs, 0u);
  }
  engine.check_invariants(audit::Level::kFull);

  const std::vector<RecordedOp> log = engine.recorded_ops();
  ASSERT_FALSE(log.empty());
  // Every submitted block is in the log, once.
  std::uint64_t logged_blocks = 0;
  for (const RecordedOp& op : log) {
    if (op.kind == RecordedOp::Kind::kWrite) logged_blocks += op.blocks;
  }
  EXPECT_EQ(logged_blocks, submitted_blocks.load());

  // Serial oracle: same factory, same config, same seed.
  ShardParts parts = factory(0, engine.config());
  LssEngine serial(engine.config(), *parts.policy, *parts.victim, nullptr,
                   dc.seed);
  if (parts.hook != nullptr) serial.set_aggregation_hook(parts.hook);
  ConcurrentEngine::replay_log(serial, log);

  const LssEngine& concurrent = engine.engine_for_inspection();
  expect_metrics_equal(concurrent.metrics(), serial.metrics());
  EXPECT_EQ(concurrent.chunks_flushed(), serial.chunks_flushed());
  EXPECT_EQ(concurrent.vtime(), serial.vtime());
  EXPECT_EQ(concurrent.free_segments(), serial.free_segments());
  EXPECT_EQ(concurrent.segments_per_group(), serial.segments_per_group());
  for (GroupId g = 0; g < concurrent.group_count(); ++g) {
    EXPECT_EQ(concurrent.pending_blocks(g), serial.pending_blocks(g))
        << "group " << g;
  }
  // Every logical block maps to the same physical location.
  for (Lba lba = 0; lba < engine.config().logical_blocks; ++lba) {
    const BlockLocation cl = concurrent.locate(lba);
    const BlockLocation sl = serial.locate(lba);
    ASSERT_EQ(cl, sl) << "lba " << lba;
  }
}

TEST(ConcurrentCommitDifferentialTest, SepgcFourClientsSeed1) {
  run_differential(DiffCase{});
}

TEST(ConcurrentCommitDifferentialTest, SepgcFourClientsSeed2) {
  DiffCase dc;
  dc.seed = 2;
  run_differential(dc);
}

TEST(ConcurrentCommitDifferentialTest, SepgcSixClientsSeed3) {
  DiffCase dc;
  dc.seed = 3;
  dc.clients = 6;
  run_differential(dc);
}

TEST(ConcurrentCommitDifferentialTest, AdaptFourClientsSeed1) {
  DiffCase dc;
  dc.policy = "adapt";
  run_differential(dc);
}

TEST(ConcurrentCommitDifferentialTest, AdaptFourClientsSeed2NoGc) {
  DiffCase dc;
  dc.policy = "adapt";
  dc.seed = 2;
  dc.background_gc = false;
  dc.writes_per_client = 3000;
  run_differential(dc);
}

TEST(ConcurrentCommitDifferentialTest, SingleClientStillExact) {
  DiffCase dc;
  dc.clients = 1;
  dc.writes_per_client = 2000;
  // Too small to wrap the log; a GC thread would only spin idle.
  dc.background_gc = false;
  run_differential(dc);
}

// ---------------------------------------------------------------------------
// ConcurrentEngine surface checks.

TEST(ConcurrentEngineTest, RejectsOutOfRangeWrite) {
  LssConfig cfg;
  cfg.logical_blocks = std::uint64_t{1} << 16;
  ConcurrentEngine engine(cfg, 1, stack_factory("sepgc"));
  EXPECT_THROW(engine.write(cfg.logical_blocks, 1, 0), std::out_of_range);
  // A span that runs past the end, and one whose end wraps past 2^64,
  // must not be acknowledged.
  EXPECT_THROW(engine.write(cfg.logical_blocks - 2, 4, 0), std::out_of_range);
  EXPECT_THROW(engine.write(~Lba{0} - 3, 8, 0), std::out_of_range);
  // The span is checked before it joins a batch: none was led or logged.
  EXPECT_EQ(engine.stats().groups, 0u);
  EXPECT_TRUE(engine.recorded_ops().empty());
}

// Fault injection for the batch-abort contract: delegates to the real
// policy, but call #1 parks (holding the leader inside its apply so the
// test can queue followers behind it deterministically) and call #2 throws.
struct FaultyControl {
  std::atomic<int> calls{0};
  std::atomic<bool> leader_blocked{false};
  std::atomic<bool> release{false};
};

class FaultyPolicy : public PlacementPolicy {
 public:
  FaultyPolicy(std::unique_ptr<PlacementPolicy> inner, FaultyControl* ctrl)
      : inner_(std::move(inner)), ctrl_(ctrl) {}

  std::string_view name() const override { return inner_->name(); }
  GroupId group_count() const override { return inner_->group_count(); }
  bool is_user_group(GroupId g) const override {
    return inner_->is_user_group(g);
  }
  GroupId place_user_write(Lba lba, VTime now) override {
    const int n = ctrl_->calls.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == 1) {
      ctrl_->leader_blocked.store(true, std::memory_order_release);
      while (!ctrl_->release.load(std::memory_order_acquire)) yield_now();
    } else if (n == 2) {
      throw std::runtime_error("injected placement failure");
    }
    return inner_->place_user_write(lba, now);
  }
  GroupId place_gc_rewrite(Lba lba, GroupId victim_group,
                           VTime now) override {
    return inner_->place_gc_rewrite(lba, victim_group, now);
  }
  void note_segment_sealed(GroupId g, VTime now) override {
    inner_->note_segment_sealed(g, now);
  }
  void note_segment_reclaimed(GroupId g, VTime create_vtime,
                              VTime now) override {
    inner_->note_segment_reclaimed(g, create_vtime, now);
  }
  std::size_t memory_usage_bytes() const override {
    return inner_->memory_usage_bytes();
  }

 private:
  std::unique_ptr<PlacementPolicy> inner_;
  FaultyControl* ctrl_;
};

// The failure contract end to end: thread C leads a batch of one and is
// held inside its engine apply while A and B queue behind it; once C's
// batch completes, the older of A/B leads the batch {A, B}, whose first
// apply throws. The promoted leader must rethrow the injected engine error, its
// follower must throw WriteAborted (its op was never applied), and C —
// whose op DID apply — must return success. No lost write reports durable.
TEST(ConcurrentEngineTest, EngineFailureAbortsNotAppliedFollowers) {
  LssConfig cfg;
  cfg.logical_blocks = std::uint64_t{1} << 16;
  FaultyControl ctrl;
  const ShardFactory inner = stack_factory("sepgc");
  const ShardFactory factory = [&](std::uint32_t i, const LssConfig& c) {
    ShardParts parts = inner(i, c);
    parts.policy =
        std::make_unique<FaultyPolicy>(std::move(parts.policy), &ctrl);
    return parts;
  };
  ConcurrentEngine engine(cfg, 1, factory);

  std::atomic<int> ok{0}, injected{0}, aborted{0};
  auto classify = [&](Lba lba) {
    try {
      engine.write(lba, 1, 1);
      ok.fetch_add(1, std::memory_order_relaxed);
    } catch (const WriteAborted&) {
      aborted.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "injected placement failure");
      injected.fetch_add(1, std::memory_order_relaxed);
    }
  };
  {
    Thread c([&] { classify(0); });
    while (!ctrl.leader_blocked.load(std::memory_order_acquire)) {
      yield_now();
    }
    Thread a([&] { classify(1); });
    Thread b([&] { classify(2); });
    // Generous margin for a and b to queue behind the held leader;
    // if either misses the batch it would lead alone and the strict
    // 1/1/1 split below fails loudly rather than passing vacuously.
    sleep_for_us(200'000);
    ctrl.release.store(true, std::memory_order_release);
  }  // joins a, b, c
  EXPECT_EQ(ok.load(), 1);
  EXPECT_EQ(injected.load(), 1);
  EXPECT_EQ(aborted.load(), 1);
  // Exactly the applied prefix is in the engine and the linearized log.
  EXPECT_EQ(engine.metrics().user_blocks, 1u);
  EXPECT_EQ(engine.recorded_ops().size(), 1u);
}

// Delegating policy that parks call #1 inside the leader's apply (same
// rendezvous shape as FaultyPolicy, without the injected throw), so the
// test can deterministically queue followers behind a held leader.
class HoldFirstPolicy : public PlacementPolicy {
 public:
  HoldFirstPolicy(std::unique_ptr<PlacementPolicy> inner, FaultyControl* ctrl)
      : inner_(std::move(inner)), ctrl_(ctrl) {}

  std::string_view name() const override { return inner_->name(); }
  GroupId group_count() const override { return inner_->group_count(); }
  bool is_user_group(GroupId g) const override {
    return inner_->is_user_group(g);
  }
  GroupId place_user_write(Lba lba, VTime now) override {
    if (ctrl_->calls.fetch_add(1, std::memory_order_relaxed) == 0) {
      ctrl_->leader_blocked.store(true, std::memory_order_release);
      while (!ctrl_->release.load(std::memory_order_acquire)) yield_now();
    }
    return inner_->place_user_write(lba, now);
  }
  GroupId place_gc_rewrite(Lba lba, GroupId victim_group,
                           VTime now) override {
    return inner_->place_gc_rewrite(lba, victim_group, now);
  }
  void note_segment_sealed(GroupId g, VTime now) override {
    inner_->note_segment_sealed(g, now);
  }
  void note_segment_reclaimed(GroupId g, VTime create_vtime,
                              VTime now) override {
    inner_->note_segment_reclaimed(g, create_vtime, now);
  }
  std::size_t memory_usage_bytes() const override {
    return inner_->memory_usage_bytes();
  }

 private:
  std::unique_ptr<PlacementPolicy> inner_;
  FaultyControl* ctrl_;
};

/// A sepgc engine whose first placement call parks until
/// `ctrl->release`, holding the first leader inside its apply.
std::unique_ptr<ConcurrentEngine> make_held_engine(FaultyControl* ctrl) {
  LssConfig cfg;
  cfg.logical_blocks = std::uint64_t{1} << 16;
  const ShardFactory inner = stack_factory("sepgc");
  const ShardFactory factory = [inner, ctrl](std::uint32_t i,
                                             const LssConfig& c) {
    ShardParts parts = inner(i, c);
    parts.policy =
        std::make_unique<HoldFirstPolicy>(std::move(parts.policy), ctrl);
    return parts;
  };
  return std::make_unique<ConcurrentEngine>(cfg, 1, factory);
}

// Batches form in arrival order: while the first leader is parked inside
// its apply, three writers queue one after another, and the next batch is
// exactly those three, applied oldest first.
TEST(ConcurrentEngineTest, BatchesFormInArrivalOrder) {
  FaultyControl ctrl;
  const std::unique_ptr<ConcurrentEngine> engine = make_held_engine(&ctrl);
  {
    Thread first([&] { engine->write(0, 1, 1); });
    while (!ctrl.leader_blocked.load(std::memory_order_acquire)) {
      yield_now();
    }
    std::vector<Thread> late;
    late.reserve(3);
    for (const Lba lba : {Lba{1}, Lba{2}, Lba{3}}) {
      late.emplace_back([&engine, lba] { engine->write(lba, 1, 1); });
      // Margin for this writer to queue before the next one starts.
      sleep_for_us(50'000);
    }
    ctrl.release.store(true, std::memory_order_release);
  }  // joins every writer
  const std::vector<RecordedOp> log = engine->recorded_ops();
  ASSERT_EQ(log.size(), 4u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].lba, i) << "op " << i;
  }
  const GroupCommitStats stats = engine->stats();
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.ops, 4u);
  EXPECT_EQ(stats.max_batch, 3u);
}

/// Which test thread is running; read by the batch hook, which runs on
/// the batch leader's thread.
thread_local int tl_writer = -1;

// A writer that arrives while a batch applies is not absorbed into it: it
// waits for the batch to finish and then leads the next batch itself.
TEST(ConcurrentEngineTest, WriterArrivingDuringApplyLeadsNextBatch) {
  FaultyControl ctrl;
  const std::unique_ptr<ConcurrentEngine> engine = make_held_engine(&ctrl);
  // (leader thread, batch size) per batch, in commit order. Batches commit
  // one after another, so no lock is needed.
  std::vector<std::pair<int, std::uint64_t>> batches;
  engine->set_batch_hook([&batches](const BatchSample& s) {
    batches.emplace_back(tl_writer, s.ops);
  });
  {
    Thread first([&] {
      tl_writer = 0;
      engine->write(0, 1, 1);
    });
    while (!ctrl.leader_blocked.load(std::memory_order_acquire)) {
      yield_now();
    }
    Thread late([&] {
      tl_writer = 1;
      engine->write(1, 1, 1);
    });
    // Margin for the late writer to queue behind the parked leader.
    sleep_for_us(200'000);
    ctrl.release.store(true, std::memory_order_release);
  }  // joins both writers
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0], (std::pair<int, std::uint64_t>{0, 1}));
  EXPECT_EQ(batches[1], (std::pair<int, std::uint64_t>{1, 1}));
  EXPECT_EQ(engine->recorded_ops().size(), 2u);
}

// Regression for a latency-attribution bug: under a leader-absorbs-the-
// wait hook, a batch's coalesced flush was charged to its LEADER alone —
// followers returned in microseconds and their submit→durable latency
// silently excluded the device time their own writes caused. The leader
// now stamps the batch's modeled durable time into every ticket before
// completing it and each op waits its own share on its own thread, so the
// held-leader rendezvous below must see ALL three ops (the original
// leader, the leader of {A, B}, and its follower) spend at least the
// modeled service time inside write(). Before the fix the follower's
// latency was ~1000x below the floor.
TEST(ConcurrentEngineTest, FollowersWaitTheirShareOfTheCoalescedFlush) {
  FaultyControl ctrl;
  const std::unique_ptr<ConcurrentEngine> engine = make_held_engine(&ctrl);

  // Modeled device: every flushing batch is durable kServiceUs after
  // submit, and the wait really sleeps — host-clock latency is the proof.
  constexpr TimeUs kServiceUs = 50'000;
  std::atomic<int> submits{0}, waits{0};
  engine->set_device_model(
      [&](const std::vector<PendingFlush>& flushes) -> FlushOutcome {
        EXPECT_FALSE(flushes.empty());
        submits.fetch_add(1, std::memory_order_relaxed);
        return {kServiceUs, kServiceUs};
      },
      [&](TimeUs durable_us) {
        waits.fetch_add(1, std::memory_order_relaxed);
        sleep_for_us(durable_us);
      });

  // sepgc routes every user write to one fixed group, so a chunk-sized
  // write always tips exactly one full-chunk flush inside its own batch.
  const std::uint32_t chunk = engine->config().chunk_blocks;
  std::uint64_t latency_ns[3] = {0, 0, 0};
  auto timed_write = [&](int idx, Lba lba) {
    const std::uint64_t begin_ns = monotonic_now_ns();
    engine->write(lba, chunk, 1);
    latency_ns[idx] = monotonic_now_ns() - begin_ns;
  };
  {
    Thread c([&] { timed_write(0, 0); });
    while (!ctrl.leader_blocked.load(std::memory_order_acquire)) {
      yield_now();
    }
    Thread a([&] { timed_write(1, chunk); });
    Thread b([&] { timed_write(2, 2 * chunk); });
    // Same margin as the abort test: a and b must queue behind the held
    // leader, or the second batch is size one and waits drops below 3.
    sleep_for_us(200'000);
    ctrl.release.store(true, std::memory_order_release);
  }  // joins a, b, c
  // Two batches ({C} then {A, B}) flushed, and every one of the three ops
  // paid a device wait of its own.
  EXPECT_EQ(submits.load(), 2);
  EXPECT_EQ(waits.load(), 3);
  // 80% floor absorbs sleep_for_us granularity; the pre-fix follower came
  // in three orders of magnitude below it.
  const std::uint64_t floor_ns = std::uint64_t{kServiceUs} * 1000 * 8 / 10;
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(latency_ns[i], floor_ns) << "op " << i;
  }
}

// The additivity identity from lss/op_timeline.h, proven on the live
// concurrent path: under real multi-threaded contention, every applied op
// lands in all five phase histograms and the four phase sums telescope
// EXACTLY back to the total — the same identity validate_manifest_json
// enforces on every exported latency_breakdown block.
TEST(ConcurrentEngineTest, LatencyBreakdownTelescopesExactly) {
  LssConfig cfg;
  cfg.logical_blocks = std::uint64_t{1} << 16;
  ConcurrentEngine engine(cfg, 1, stack_factory("sepgc"));

  // Virtual device: each submitted batch is durable 100us later on a
  // monotone modeled clock, 40us of it pure service; waits are free.
  std::atomic<TimeUs> device_clock{0};
  engine.set_device_model(
      [&](const std::vector<PendingFlush>& flushes) -> FlushOutcome {
        EXPECT_FALSE(flushes.empty());
        const TimeUs durable =
            device_clock.fetch_add(100, std::memory_order_relaxed) + 100;
        return {durable, 40};
      },
      [](TimeUs) {});

  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 400;
  const std::uint32_t chunk = engine.config().chunk_blocks;
  {
    std::vector<Thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&engine, chunk, t] {
        for (int i = 0; i < kWritesPerThread; ++i) {
          const Lba lba =
              (static_cast<Lba>(i) * kThreads + static_cast<Lba>(t)) % 256 *
              chunk % ((std::uint64_t{1} << 16) - chunk);
          engine.write(lba, chunk, static_cast<TimeUs>(i + 1));
        }
      });
    }
  }  // joins all clients

  const LatencyBreakdown bd = engine.latency_breakdown();
  const std::uint64_t n = std::uint64_t{kThreads} * kWritesPerThread;
  EXPECT_EQ(bd.total_us.count(), n);
  EXPECT_EQ(bd.intake_wait_us.count(), n);
  EXPECT_EQ(bd.batch_apply_us.count(), n);
  EXPECT_EQ(bd.lane_queue_us.count(), n);
  EXPECT_EQ(bd.device_service_us.count(), n);
  // Exact, not approximate: the clamped milestones telescope value for
  // value, so the identity survives summation.
  EXPECT_EQ(bd.intake_wait_us.sum() + bd.batch_apply_us.sum() +
                bd.lane_queue_us.sum() + bd.device_service_us.sum(),
            bd.total_us.sum());
  // Every write tipped a chunk flush, so some device time was attributed.
  EXPECT_GT(bd.device_service_us.sum(), 0u);
}

class CollectSink final : public TraceSink {
 public:
  void record(const TraceEvent& e) override { events.push_back(e); }
  std::vector<TraceEvent> events;
};

// Causal-flow correlation: a traced batch mints one nonzero flow id and
// stamps it on every event of the batch's lifecycle — per-op kOpSubmit,
// the kGroupCommit batch event, the chunk flushes it tipped (and their
// PendingFlush records, which the prototype forwards to the device lanes),
// and the per-op kOpDurable records. Single-threaded, so batches are size
// one and the ids are exactly 1..N.
TEST(ConcurrentEngineTest, TracedBatchesCarryCausalFlowIds) {
  LssConfig cfg;
  cfg.logical_blocks = std::uint64_t{1} << 16;
  ConcurrentEngine engine(cfg, 1, stack_factory("sepgc"));
  CollectSink sink;
  engine.set_trace_sink(&sink);
  engine.set_device_model(
      [](const std::vector<PendingFlush>& flushes) -> FlushOutcome {
        for (const PendingFlush& f : flushes) {
          EXPECT_NE(f.id, 0u) << "traced batch flush lost its flow id";
        }
        return {1'000, 200};
      },
      [](TimeUs) {});

  static constexpr std::uint64_t kOps = 8;
  const std::uint32_t chunk = engine.config().chunk_blocks;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    engine.write(i * chunk, chunk, static_cast<TimeUs>(i + 1));
  }

  std::vector<std::uint64_t> submit_ids, commit_ids, durable_ids, flush_ids;
  for (const TraceEvent& e : sink.events) {
    switch (e.kind) {
      case TraceEventKind::kOpSubmit:
        submit_ids.push_back(e.id);
        break;
      case TraceEventKind::kGroupCommit:
        commit_ids.push_back(e.id);
        break;
      case TraceEventKind::kOpDurable:
        durable_ids.push_back(e.id);
        EXPECT_EQ(e.c, 1'000u);  // the modeled durable time rides in c
        break;
      case TraceEventKind::kChunkFlush:
        flush_ids.push_back(e.id);
        break;
      default:
        break;
    }
  }
  const auto expect_one_to_n = [](const std::vector<std::uint64_t>& ids,
                                  const char* what) {
    ASSERT_EQ(ids.size(), kOps) << what;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      EXPECT_EQ(ids[i], i + 1) << what << " event " << i;
    }
  };
  expect_one_to_n(submit_ids, "kOpSubmit");
  expect_one_to_n(commit_ids, "kGroupCommit");
  expect_one_to_n(durable_ids, "kOpDurable");
  // Every write tipped exactly one full-chunk flush inside its own batch.
  expect_one_to_n(flush_ids, "kChunkFlush");

  // End-of-run drain belongs to no batch: events emitted by flush_all must
  // not inherit the last batch's id.
  sink.events.clear();
  engine.flush_all();
  for (const TraceEvent& e : sink.events) {
    EXPECT_EQ(e.id, 0u) << "flush_all event carries a stale flow id";
  }
}

TEST(ConcurrentEngineTest, RecordOpsOffKeepsLogEmpty) {
  LssConfig cfg;
  cfg.logical_blocks = std::uint64_t{1} << 16;
  ConcurrentEngine engine(cfg, 1, stack_factory("sepgc"),
                          /*record_ops=*/false);
  engine.write(0, 4, 1);
  engine.flush_all();
  EXPECT_TRUE(engine.recorded_ops().empty());
  EXPECT_GT(engine.metrics().user_blocks, 0u);
}

}  // namespace
}  // namespace adapt::lss
