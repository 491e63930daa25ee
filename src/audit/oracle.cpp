#include "audit/oracle.h"

#include <stdexcept>
#include <string>
#include <vector>

namespace adapt::audit {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::logic_error("oracle: " + what);
}

}  // namespace

void OracleModel::on_write(Lba lba, std::uint32_t blocks) {
  if (lba >= config_.logical_blocks ||
      blocks > config_.logical_blocks - lba) {
    fail("mirrored write beyond logical capacity");
  }
  for (std::uint32_t i = 0; i < blocks; ++i) {
    version_[lba + i] = next_version_++;
    ++user_blocks_;
  }
}

void OracleModel::verify_lba(const lss::LssEngine& engine, Lba lba) const {
  const bool oracle_live = version_.contains(lba);
  const lss::BlockLocation loc = engine.locate(lba);
  const bool engine_live = loc != lss::kNowhere;
  if (oracle_live != engine_live) {
    fail("mapping disagreement at lba " + std::to_string(lba) +
         " (oracle=" + (oracle_live ? "live" : "dead") +
         ", engine=" + (engine_live ? "live" : "dead") + ")");
  }
  if (engine_live) {
    const lss::Segment& seg = engine.segments()[loc.segment];
    if (seg.free) fail("primary mapped into a free segment");
    if (loc.slot >= seg.write_ptr) fail("primary mapped past write_ptr");
    if (engine.slot_lba(loc) != lba) fail("slot lba mismatch at primary");
    if (!seg.slot_valid.test(loc.slot)) fail("primary slot marked dead");
  }
  if (engine.has_live_shadow(lba)) {
    if (!oracle_live) fail("shadow for an lba the oracle never wrote");
    const lss::BlockLocation sh = engine.shadow_location(lba);
    if (sh == lss::kNowhere) fail("has_live_shadow without a location");
    const lss::Segment& sseg = engine.segments()[sh.segment];
    if (engine.slot_lba(sh) != lba || !sseg.slot_valid.test(sh.slot)) {
      fail("shadow slot bookkeeping mismatch");
    }
    if (sh.segment == loc.segment) {
      fail("shadow hosted in its original's segment");
    }
    if (sseg.group == engine.segments()[loc.segment].group) {
      fail("shadow hosted by its original's own group");
    }
    // The §3.3 pairing rule: a shadow exists only while its lazy-append
    // original is still pending; once the original's chunk persists the
    // shadow must have been expired.
    if (!engine.is_pending(lba)) {
      fail("live shadow for an already-persisted original at lba " +
           std::to_string(lba));
    }
  }
}

void OracleModel::verify_identity(const lss::LssEngine& engine) const {
  const lss::LssMetrics& m = engine.metrics();
  if (m.user_blocks != user_blocks_) {
    fail("engine user_blocks " + std::to_string(m.user_blocks) +
         " != oracle " + std::to_string(user_blocks_));
  }
  if (engine.vtime() != user_blocks_) {
    fail("vtime desynchronised from user block count");
  }
  std::uint64_t pending = 0;
  for (GroupId g = 0; g < engine.group_count(); ++g) {
    pending += engine.pending_blocks(g);
  }
  const std::uint64_t appended =
      m.user_blocks + m.gc_blocks + m.shadow_blocks + m.padding_blocks;
  const std::uint64_t media =
      engine.chunks_flushed() * engine.config().chunk_blocks + m.rmw_blocks;
  if (appended != media + pending) {
    fail("accounting identity broken: appended " + std::to_string(appended) +
         " != media " + std::to_string(media) + " + pending " +
         std::to_string(pending));
  }
}

void OracleModel::verify_op(const lss::LssEngine& engine, Lba lba) const {
  verify_lba(engine, lba);
  verify_identity(engine);
}

void OracleModel::verify_full(const lss::LssEngine& engine) const {
  const auto segments = engine.segments();
  const std::uint64_t slots_per_segment = engine.config().segment_blocks();
  // Independent per-segment ledger: tally every live copy (primary or
  // shadow) the oracle can account for, and require each slot be claimed at
  // most once.
  std::vector<std::uint32_t> ledger(segments.size(), 0);
  std::vector<char> claimed(segments.size() * slots_per_segment, 0);
  std::uint64_t shadows_seen = 0;
  const auto claim = [&](lss::BlockLocation loc, const char* what) {
    const std::uint64_t key =
        static_cast<std::uint64_t>(loc.segment) * slots_per_segment +
        loc.slot;
    if (claimed[key] != 0) {
      fail(std::string("two live copies share a slot (second is a ") + what +
           ")");
    }
    claimed[key] = 1;
    ++ledger[loc.segment];
  };

  for (Lba lba = 0; lba < config_.logical_blocks; ++lba) {
    verify_lba(engine, lba);
    if (engine.locate(lba) != lss::kNowhere) {
      claim(engine.locate(lba), "primary");
    }
    if (engine.has_live_shadow(lba)) {
      claim(engine.shadow_location(lba), "shadow");
      ++shadows_seen;
    }
  }
  if (shadows_seen != engine.live_shadow_count()) {
    fail("shadow map holds entries for lbas outside the logical space");
  }
  for (std::size_t s = 0; s < segments.size(); ++s) {
    if (segments[s].free) {
      if (segments[s].valid_count != 0) fail("free segment claims validity");
      continue;
    }
    if (ledger[s] != segments[s].valid_count) {
      fail("segment " + std::to_string(s) + " valid_count " +
           std::to_string(segments[s].valid_count) +
           " != oracle ledger " + std::to_string(ledger[s]));
    }
  }
  verify_identity(engine);
}

void OracleModel::verify_drained(const lss::LssEngine& engine) const {
  for (GroupId g = 0; g < engine.group_count(); ++g) {
    if (engine.pending_blocks(g) != 0) {
      fail("pending blocks survived flush_all in group " + std::to_string(g));
    }
  }
  if (engine.live_shadow_count() != 0) {
    fail("live shadows survived flush_all");
  }
  verify_full(engine);
}

void FtlOracle::on_host_write(std::uint64_t lpn, std::uint32_t pages) {
  if (lpn + pages > config_.logical_pages) {
    fail("mirrored host write beyond logical space");
  }
  for (std::uint32_t i = 0; i < pages; ++i) {
    version_[lpn + i] = next_version_++;
    ++host_pages_;
  }
}

void FtlOracle::on_trim(std::uint64_t lpn, std::uint32_t pages) {
  if (lpn + pages > config_.logical_pages) {
    fail("mirrored trim beyond logical space");
  }
  for (std::uint32_t i = 0; i < pages; ++i) {
    if (version_.erase(lpn + i) != 0) ++trimmed_pages_;
  }
}

void FtlOracle::verify(const flash::Ftl& ftl) const {
  for (std::uint64_t lpn = 0; lpn < config_.logical_pages; ++lpn) {
    const bool oracle_live = version_.contains(lpn);
    if (ftl.is_mapped(lpn) != oracle_live) {
      fail("L2P disagreement at lpn " + std::to_string(lpn) +
           " (oracle=" + (oracle_live ? "live" : "dead") + ")");
    }
  }
  const flash::FtlStats& s = ftl.stats();
  if (s.host_pages != host_pages_) {
    fail("ftl host_pages " + std::to_string(s.host_pages) + " != oracle " +
         std::to_string(host_pages_));
  }
  if (s.trimmed_pages != trimmed_pages_) {
    fail("ftl trimmed_pages " + std::to_string(s.trimmed_pages) +
         " != oracle " + std::to_string(trimmed_pages_));
  }
}

}  // namespace adapt::audit
