// Differential-oracle stress tests: the LSS engine and the FTL are driven
// with randomized mixed traffic in lockstep with the deliberately naive
// reference models in src/audit/oracle.h. Every op is followed by the cheap
// O(groups) oracle check plus the engine's own counters-tier self-audit
// (LssConfig::audit_level = kCounters); periodically and at the end the
// full O(n) differential audit re-derives everything.
//
// The traffic mix deliberately hits all three ADAPT mechanisms: a skewed
// write stream (threshold adaptation + proactive demotion), idle-time jumps
// that fire coalescing deadlines (cross-group aggregation / padding), and
// forced GC steps (victim index + migration + forced lazy flushes).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapt/adapt_policy.h"
#include "array/ssd_array.h"
#include "audit/oracle.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "flash/ftl.h"
#include "lss/engine.h"
#include "lss/sharded_engine.h"
#include "lss/victim_policy.h"

namespace adapt {
namespace {

constexpr std::uint64_t kOpsPerSeed = 120000;
constexpr std::uint64_t kFullAuditEvery = 8192;

lss::LssConfig stress_config(lss::PartialWriteMode mode) {
  lss::LssConfig cfg;
  cfg.chunk_blocks = 8;
  cfg.segment_chunks = 8;
  cfg.logical_blocks = 4096;
  cfg.over_provision = 0.50;
  cfg.partial_write_mode = mode;
  // Per-op counters self-audit inside the engine, on top of the oracle.
  cfg.audit_level = audit::Level::kCounters;
  return cfg;
}

core::AdaptConfig stress_adapt_config(const lss::LssConfig& cfg) {
  core::AdaptConfig acfg;
  acfg.logical_blocks = cfg.logical_blocks;
  acfg.segment_blocks = cfg.segment_blocks();
  acfg.chunk_blocks = cfg.chunk_blocks;
  acfg.over_provision = cfg.over_provision;
  return acfg;
}

void run_engine_stress(std::uint64_t seed, lss::PartialWriteMode mode,
                       bool with_flash_array) {
  const lss::LssConfig cfg = stress_config(mode);
  core::AdaptPolicy policy(stress_adapt_config(cfg));
  const auto victim = lss::make_victim_policy(
      seed % 3 == 0 ? "greedy" : (seed % 3 == 1 ? "cost-benefit" : "d-choice:4"));
  // ADAPT's six groups each get their own device stream; parity takes
  // the seventh.
  std::unique_ptr<array::SsdArray> flash_array;
  if (with_flash_array) {
    array::SsdArrayConfig ac;
    ac.chunk_bytes = cfg.chunk_blocks * cfg.block_bytes;
    ac.num_streams = policy.group_count();
    ac.flash = array::FlashBacking{
        .page_bytes = cfg.block_bytes,
        .data_chunks = static_cast<std::uint64_t>(cfg.total_segments()) *
                       cfg.segment_chunks,
        .device_over_provision = 0.28};
    flash_array = std::make_unique<array::SsdArray>(ac);
  }
  lss::LssEngine engine(cfg, policy, *victim, flash_array.get(), seed);
  engine.set_aggregation_hook(&policy);

  audit::OracleModel oracle(cfg);
  Rng rng(seed);
  ZipfianGenerator zipf(cfg.logical_blocks, 0.99);
  TimeUs now = 0;
  Lba last_lba = 0;

  for (std::uint64_t op = 0; op < kOpsPerSeed; ++op) {
    const std::uint64_t kind = rng.below(100);
    if (kind < 70) {
      // Skewed multi-block write.
      const Lba lba =
          std::min<Lba>(zipf.next(rng), cfg.logical_blocks - 4);
      const auto blocks = static_cast<std::uint32_t>(1 + rng.below(4));
      now += rng.below(150);
      engine.write(lba, blocks, now);
      oracle.on_write(lba, blocks);
      last_lba = lba;
    } else if (kind < 80) {
      const Lba lba = rng.below(cfg.logical_blocks - 8);
      engine.read(lba, static_cast<std::uint32_t>(1 + rng.below(8)), now);
    } else if (kind < 90) {
      // Idle gap: coalescing deadlines fire, triggering aggregation or
      // padding on every group with a partial chunk.
      now += 200 + rng.below(2000);
      engine.advance_time(now);
    } else if (kind < 95) {
      // Proactive background GC above the regular watermark.
      engine.gc_step(now, engine.config().free_segment_reserve +
                              policy.group_count() + 2);
    } else {
      engine.advance_time(now);
    }
    oracle.verify_op(engine, last_lba);
    if ((op + 1) % kFullAuditEvery == 0) {
      oracle.verify_full(engine);
      engine.check_invariants(audit::Level::kFull);
    }
  }

  engine.flush_all();
  oracle.verify_drained(engine);
  engine.check_invariants(audit::Level::kFull);
  if (flash_array != nullptr) {
    for (std::uint32_t d = 0; d < flash_array->config().num_devices; ++d) {
      flash_array->device(d).check_invariants(audit::Level::kFull);
    }
    EXPECT_GE(flash_array->device_internal_wa(), 1.0);
  }
  EXPECT_GT(oracle.user_blocks(), kOpsPerSeed / 2);
  EXPECT_GE(engine.metrics().wa(), 1.0);
}

class OracleStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleStressTest, ZeroPadModeAgreesWithOracle) {
  run_engine_stress(GetParam(), lss::PartialWriteMode::kZeroPad,
                    /*with_flash_array=*/false);
}

TEST_P(OracleStressTest, ZeroPadModeWithFlashBackedArray) {
  run_engine_stress(GetParam(), lss::PartialWriteMode::kZeroPad,
                    /*with_flash_array=*/true);
}

TEST_P(OracleStressTest, RmwModeAgreesWithOracle) {
  run_engine_stress(GetParam(), lss::PartialWriteMode::kReadModifyWrite,
                    /*with_flash_array=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleStressTest,
                         ::testing::Values(1u, 7u, 42u, 20250805u));

// -- Sharded engine vs per-shard oracles -------------------------------------

// Drives a 4-shard ShardedEngine with mixed global traffic while an
// independent OracleModel mirrors each shard's slice of the LBA space. The
// span-split must deliver every block to exactly the shard the oracle
// expects, and each shard must keep all single-engine invariants under the
// full ADAPT policy stack (threshold adaptation + aggregation + demotion).
void run_sharded_stress(std::uint64_t seed) {
  constexpr std::uint32_t kShards = 4;
  lss::LssConfig global = stress_config(lss::PartialWriteMode::kZeroPad);
  // Per shard this divides back to the single-engine stress geometry.
  global.logical_blocks *= kShards;

  const auto factory = [&](std::uint32_t,
                           const lss::LssConfig& shard_lss) {
    lss::ShardParts parts;
    auto policy = core::make_adapt_policy(stress_adapt_config(shard_lss));
    parts.hook = policy.get();
    parts.policy = std::move(policy);
    parts.victim = lss::make_victim_policy(
        seed % 2 == 0 ? "greedy" : "cost-benefit");
    return parts;
  };
  lss::ShardedEngine engine(global, kShards, seed, factory);
  ASSERT_EQ(engine.per_shard_config().logical_blocks,
            stress_config(lss::PartialWriteMode::kZeroPad).logical_blocks);

  std::vector<audit::OracleModel> oracles;
  oracles.reserve(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    oracles.emplace_back(engine.per_shard_config());
  }

  const std::uint32_t watermark =
      engine.per_shard_config().free_segment_reserve +
      engine.shard(0).group_count() + 2;
  Rng rng(seed);
  ZipfianGenerator zipf(global.logical_blocks, 0.99);
  TimeUs now = 0;
  constexpr std::uint64_t kOps = 60000;
  for (std::uint64_t op = 0; op < kOps; ++op) {
    const std::uint64_t kind = rng.below(100);
    if (kind < 70) {
      const Lba lba =
          std::min<Lba>(zipf.next(rng), global.logical_blocks - 4);
      const auto blocks = static_cast<std::uint32_t>(1 + rng.below(4));
      now += rng.below(150);
      engine.write(lba, blocks, now);
      for (Lba l = lba; l < lba + blocks; ++l) {
        oracles[engine.shard_of(l)].on_write(engine.local_of(l), 1);
      }
      const std::uint32_t s = engine.shard_of(lba);
      oracles[s].verify_op(engine.shard(s), engine.local_of(lba));
    } else if (kind < 80) {
      const Lba lba = rng.below(global.logical_blocks - 8);
      engine.read(lba, static_cast<std::uint32_t>(1 + rng.below(8)), now);
    } else if (kind < 90) {
      now += 200 + rng.below(2000);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        engine.shard(s).advance_time(now);
      }
    } else {
      for (std::uint32_t s = 0; s < kShards; ++s) {
        engine.shard(s).gc_step(now, watermark);
      }
    }
    if ((op + 1) % kFullAuditEvery == 0) {
      for (std::uint32_t s = 0; s < kShards; ++s) {
        oracles[s].verify_full(engine.shard(s));
      }
      engine.check_invariants(audit::Level::kFull);
    }
  }

  engine.flush_all();
  std::uint64_t oracle_user_blocks = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    oracles[s].verify_drained(engine.shard(s));
    oracle_user_blocks += oracles[s].user_blocks();
  }
  engine.check_invariants(audit::Level::kFull);
  EXPECT_EQ(engine.merged_metrics().user_blocks, oracle_user_blocks);
  EXPECT_GE(engine.merged_metrics().wa(), 1.0);
}

class ShardedOracleStressTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedOracleStressTest, FourShardsAgreeWithPerShardOracles) {
  run_sharded_stress(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedOracleStressTest,
                         ::testing::Values(5u, 42u));

// -- FTL oracle --------------------------------------------------------------

class FtlOracleStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlOracleStressTest, HostWriteTrimAgreesWithOracle) {
  flash::FtlConfig cfg;
  cfg.pages_per_block = 64;
  cfg.logical_pages = 4096;
  cfg.over_provision = 0.30;
  cfg.num_streams = 4;
  flash::Ftl ftl(cfg);
  audit::FtlOracle oracle(cfg);
  Rng rng(GetParam());
  ScrambledZipfianGenerator zipf(cfg.logical_pages, 0.99);

  for (std::uint64_t op = 0; op < kOpsPerSeed; ++op) {
    const std::uint64_t lpn =
        std::min<std::uint64_t>(zipf.next(rng), cfg.logical_pages - 8);
    const auto pages = static_cast<std::uint32_t>(1 + rng.below(8));
    if (rng.below(100) < 85) {
      const auto stream = static_cast<std::uint32_t>(rng.below(6));
      ftl.host_write(lpn, pages, stream);  // streams >= 4 clamp
      oracle.on_host_write(lpn, pages);
    } else {
      ftl.trim(lpn, pages);
      oracle.on_trim(lpn, pages);
    }
    ftl.check_invariants(audit::Level::kCounters);
    if ((op + 1) % kFullAuditEvery == 0) {
      oracle.verify(ftl);
      ftl.check_invariants(audit::Level::kFull);
    }
  }
  oracle.verify(ftl);
  ftl.check_invariants(audit::Level::kFull);
  EXPECT_GE(ftl.stats().internal_wa(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlOracleStressTest,
                         ::testing::Values(3u, 11u, 99u));

}  // namespace
}  // namespace adapt
