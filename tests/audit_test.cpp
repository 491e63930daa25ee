// Tests for the audit layer itself.
//
// An auditor that cannot fail is untested: these tests corrupt engine state
// on purpose (through the test-only mutable segment hook) and assert that
// the tier that is supposed to catch each corruption actually throws —
// and that the cheaper tier stays quiet where the corruption is invisible
// to it, pinning the tier semantics.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "audit/audit.h"
#include "audit/oracle.h"
#include "common/rng.h"
#include "lss/engine.h"
#include "lss/placement_policy.h"
#include "lss/victim_policy.h"

namespace adapt {
namespace {

using lss::LssConfig;
using lss::LssEngine;
using lss::Segment;

/// Round-robin placement over three groups; enough to fill segments.
class RoundRobinPolicy final : public lss::PlacementPolicy {
 public:
  std::string_view name() const override { return "round-robin"; }
  GroupId group_count() const override { return 3; }
  bool is_user_group(GroupId g) const override { return g < 2; }
  GroupId place_user_write(Lba lba, VTime /*now*/) override {
    return static_cast<GroupId>(lba % 2);
  }
  GroupId place_gc_rewrite(Lba /*lba*/, GroupId /*victim_group*/,
                           VTime /*now*/) override {
    return 2;
  }
  void note_segment_sealed(GroupId, VTime) override {}
  void note_segment_reclaimed(GroupId, VTime, VTime) override {}
  std::size_t memory_usage_bytes() const override { return 0; }
  void check_invariants(audit::Level level) const override {
    if (audit_fails && level != audit::Level::kOff) {
      throw std::logic_error("round-robin policy audit told to fail");
    }
  }

  bool audit_fails = false;
};

LssConfig small_config() {
  LssConfig cfg;
  cfg.chunk_blocks = 4;
  cfg.segment_chunks = 4;
  cfg.logical_blocks = 1024;
  cfg.over_provision = 0.5;
  return cfg;
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest()
      : victim_(lss::make_greedy()),
        engine_(small_config(), policy_, *victim_) {}

  /// Writes enough skewed traffic to seal segments and run GC.
  void churn(int ops = 3000) {
    Rng rng(7);
    TimeUs now = 0;
    for (int i = 0; i < ops; ++i) {
      now += rng.below(120);
      engine_.write(rng.below(512), 1 + static_cast<std::uint32_t>(rng.below(3)),
                    now);
    }
    engine_.check_invariants(audit::Level::kFull);
  }

  /// Some sealed, non-free segment id.
  SegmentId sealed_segment() {
    for (SegmentId id = 0;
         id < static_cast<SegmentId>(engine_.segments().size()); ++id) {
      const Segment& seg = engine_.segments()[id];
      if (!seg.free && seg.sealed && seg.valid_count > 0) return id;
    }
    throw std::runtime_error("no sealed segment after churn");
  }

  RoundRobinPolicy policy_;
  std::unique_ptr<lss::VictimPolicy> victim_;
  LssEngine engine_;
};

TEST_F(AuditTest, CleanEnginePassesEveryTier) {
  churn();
  engine_.check_invariants(audit::Level::kOff);
  engine_.check_invariants(audit::Level::kCounters);
  engine_.check_invariants(audit::Level::kFull);
}

// The engine's audit runs the placement policy's own (ADAPT's bank and
// threshold adapter), from the counters tier up.
TEST_F(AuditTest, EngineAuditRunsThePolicyAudit) {
  churn();
  policy_.audit_fails = true;
  EXPECT_NO_THROW(engine_.check_invariants(audit::Level::kOff));
  EXPECT_THROW(engine_.check_invariants(audit::Level::kCounters),
               std::logic_error);
  EXPECT_THROW(engine_.check_invariants(audit::Level::kFull),
               std::logic_error);
}

TEST_F(AuditTest, FullAuditCatchesValidCounterDrift) {
  churn();
  Segment& seg = engine_.corrupt_segment_for_test(sealed_segment());
  ++seg.valid_count;
  // Counter drift on one segment is invisible to the counters tier (it
  // cross-checks running totals, not per-segment popcounts) ...
  EXPECT_NO_THROW(engine_.check_invariants(audit::Level::kCounters));
  // ... and is exactly what the full structural audit exists to catch.
  EXPECT_THROW(engine_.check_invariants(audit::Level::kFull),
               std::logic_error);
}

TEST_F(AuditTest, FullAuditCatchesBitmapCorruption) {
  churn();
  const SegmentId id = sealed_segment();
  Segment& seg = engine_.corrupt_segment_for_test(id);
  // Flip one live slot dead: popcount now disagrees with valid_count and
  // the block map points at a dead slot.
  for (std::uint32_t slot = 0; slot < seg.write_ptr; ++slot) {
    if (seg.slot_valid.test(slot)) {
      seg.slot_valid.reset(slot);
      break;
    }
  }
  EXPECT_THROW(engine_.check_invariants(audit::Level::kFull),
               std::logic_error);
}

TEST_F(AuditTest, FullAuditCatchesSlotLbaCorruption) {
  churn();
  const SegmentId id = sealed_segment();
  const Segment& seg = engine_.segments()[id];
  for (std::uint32_t slot = 0; slot < seg.write_ptr; ++slot) {
    if (seg.slot_valid.test(slot)) {
      engine_.corrupt_slot_lba_for_test(id, slot,
                                        engine_.slot_lba(id, slot) ^ 1);
      break;
    }
  }
  EXPECT_THROW(engine_.check_invariants(audit::Level::kFull),
               std::logic_error);
}

TEST_F(AuditTest, FullAuditCatchesVictimIndexMembershipDrift) {
  churn();
  // A sealed candidate suddenly pretending to be free: the index still
  // holds it, so membership no longer mirrors pool state.
  engine_.corrupt_segment_for_test(sealed_segment()).free = true;
  EXPECT_THROW(engine_.check_invariants(audit::Level::kFull),
               std::logic_error);
}

TEST_F(AuditTest, CountersAuditCatchesOpenSegmentCorruption) {
  churn();
  // Find the open segment of some group and seal it behind the engine's
  // back — the O(groups) tier must notice without any structural walk.
  for (GroupId g = 0; g < engine_.group_count(); ++g) {
    if (engine_.pending_blocks(g) == 0) continue;
    const Lba probe = [&] {
      for (Lba lba = 0; lba < small_config().logical_blocks; ++lba) {
        if (engine_.is_pending(lba) &&
            engine_.segments()[engine_.locate(lba).segment].group == g) {
          return lba;
        }
      }
      return kInvalidLba;
    }();
    if (probe == kInvalidLba) continue;
    const SegmentId open_seg = engine_.locate(probe).segment;
    engine_.corrupt_segment_for_test(open_seg).sealed = true;
    EXPECT_THROW(engine_.check_invariants(audit::Level::kCounters),
                 std::logic_error);
    return;
  }
  GTEST_SKIP() << "no pending blocks after churn (unexpected but harmless)";
}

// -- level plumbing ----------------------------------------------------------

TEST(OracleModelTest, RejectsSpanPastCapacity) {
  audit::OracleModel oracle(small_config());
  EXPECT_THROW(oracle.on_write(1023, 2), std::logic_error);
  // A span whose end wraps past 2^64.
  EXPECT_THROW(oracle.on_write(~Lba{0} - 3, 8), std::logic_error);
  EXPECT_EQ(oracle.live_lbas(), 0u);
  EXPECT_EQ(oracle.user_blocks(), 0u);
}

TEST(AuditLevelTest, ParseRoundTrip) {
  EXPECT_EQ(audit::parse_level("off"), audit::Level::kOff);
  EXPECT_EQ(audit::parse_level("counters"), audit::Level::kCounters);
  EXPECT_EQ(audit::parse_level("full"), audit::Level::kFull);
  EXPECT_EQ(audit::parse_level("FULL"), std::nullopt);
  EXPECT_EQ(audit::parse_level(""), std::nullopt);
  for (const audit::Level level :
       {audit::Level::kOff, audit::Level::kCounters, audit::Level::kFull}) {
    EXPECT_EQ(audit::parse_level(audit::to_string(level)), level);
  }
  EXPECT_TRUE(audit::at_least(audit::Level::kFull, audit::Level::kCounters));
  EXPECT_FALSE(audit::at_least(audit::Level::kOff, audit::Level::kCounters));
}

class AuditEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(audit::kEnvVar); }
};

TEST_F(AuditEnvTest, EnvOverridesConfiguredLevel) {
  ASSERT_EQ(::setenv(audit::kEnvVar, "full", 1), 0);
  EXPECT_EQ(audit::level_from_env(audit::Level::kOff), audit::Level::kFull);

  RoundRobinPolicy policy;
  const auto victim = lss::make_greedy();
  LssConfig cfg = small_config();
  cfg.audit_level = audit::Level::kOff;
  const LssEngine engine(cfg, policy, *victim);
  EXPECT_EQ(engine.audit_level(), audit::Level::kFull);
}

TEST_F(AuditEnvTest, UnsetAndEmptyEnvKeepConfiguredLevel) {
  ::unsetenv(audit::kEnvVar);
  EXPECT_EQ(audit::level_from_env(audit::Level::kCounters),
            audit::Level::kCounters);
  ASSERT_EQ(::setenv(audit::kEnvVar, "", 1), 0);
  EXPECT_EQ(audit::level_from_env(audit::Level::kCounters),
            audit::Level::kCounters);
}

TEST_F(AuditEnvTest, GarbageEnvValueFailsLoudly) {
  ASSERT_EQ(::setenv(audit::kEnvVar, "fulll", 1), 0);
  EXPECT_THROW(audit::level_from_env(audit::Level::kOff),
               std::invalid_argument);
}

}  // namespace
}  // namespace adapt
