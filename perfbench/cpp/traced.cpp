#include "traced.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>

#include "adapt/adapt_policy.h"
#include "adapt/threshold_adapter.h"
#include "lss/sharded_engine.h"
#include "lss/victim_policy.h"

namespace perfbench {
namespace {

namespace core = adapt::core;
namespace lss = adapt::lss;
using adapt::GroupId;
using adapt::Lba;
using adapt::SegmentId;
using adapt::VTime;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, Span s) : recorder_(recorder) {
    recorder_.open(s);
  }
  ~ScopedSpan() { recorder_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
};

/// Forwards the placement policy and aggregation hook to the AdaptPolicy it
/// owns, timing each decision and capturing the (lba, vtime) stream the
/// policy's ThresholdAdapter sees.
class PlacementProxy final : public lss::PlacementPolicy,
                             public lss::AggregationHook {
 public:
  PlacementProxy(std::unique_ptr<core::AdaptPolicy> inner,
                 SpanRecorder& recorder, std::size_t expected_user_blocks)
      : inner_(std::move(inner)), recorder_(recorder) {
    stream_.reserve(expected_user_blocks);
  }

  std::string_view name() const override { return inner_->name(); }
  GroupId group_count() const override { return inner_->group_count(); }
  bool is_user_group(GroupId g) const override {
    return inner_->is_user_group(g);
  }
  GroupId place_user_write(Lba lba, VTime now) override {
    stream_.emplace_back(lba, now);
    ScopedSpan span(recorder_, Span::kAdaptPlaceUser);
    return inner_->place_user_write(lba, now);
  }
  GroupId place_gc_rewrite(Lba lba, GroupId victim_group,
                           VTime now) override {
    ScopedSpan span(recorder_, Span::kAdaptPlaceGc);
    return inner_->place_gc_rewrite(lba, victim_group, now);
  }
  void note_segment_sealed(GroupId group, VTime now) override {
    ScopedSpan span(recorder_, Span::kAdaptNotify);
    inner_->note_segment_sealed(group, now);
  }
  void note_segment_reclaimed(GroupId group, VTime create_vtime,
                              VTime now) override {
    ScopedSpan span(recorder_, Span::kAdaptNotify);
    inner_->note_segment_reclaimed(group, create_vtime, now);
  }
  std::size_t memory_usage_bytes() const override {
    return inner_->memory_usage_bytes();
  }
  lss::AggregationDecision on_chunk_deadline(
      GroupId group, const lss::LssEngine& engine) override {
    ScopedSpan span(recorder_, Span::kAdaptDeadline);
    return inner_->on_chunk_deadline(group, engine);
  }

  const core::AdaptPolicy& inner() const noexcept { return *inner_; }
  const std::vector<std::pair<Lba, VTime>>& stream() const noexcept {
    return stream_;
  }

 private:
  std::unique_ptr<core::AdaptPolicy> inner_;
  SpanRecorder& recorder_;
  std::vector<std::pair<Lba, VTime>> stream_;
};

/// Forwards the victim index, timing selection and notifications. A GC span
/// opens before select and closes after the on_free of the victim select
/// returned (GcController reclaims the victim it selected before returning).
class VictimProxy final : public lss::VictimPolicy {
 public:
  VictimProxy(std::unique_ptr<lss::VictimPolicy> inner,
              SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  std::string_view name() const override { return inner_->name(); }
  void bind_pool(std::uint32_t total_segments,
                 std::uint32_t segment_blocks) override {
    inner_->bind_pool(total_segments, segment_blocks);
  }
  void on_seal(SegmentId seg, std::uint32_t valid_count,
               VTime seal_vtime) override {
    ScopedSpan span(recorder_, Span::kVictimNotify);
    inner_->on_seal(seg, valid_count, seal_vtime);
  }
  void on_valid_delta(SegmentId seg, std::uint32_t old_valid,
                      std::uint32_t new_valid) override {
    ScopedSpan span(recorder_, Span::kVictimNotify);
    inner_->on_valid_delta(seg, old_valid, new_valid);
  }
  void on_free(SegmentId seg) override {
    {
      ScopedSpan span(recorder_, Span::kVictimNotify);
      inner_->on_free(seg);
    }
    if (seg == gc_victim_) {
      gc_victim_ = adapt::kInvalidSegment;
      recorder_.close();  // the GC span opened in select()
    }
  }
  bool is_candidate(SegmentId seg) const override {
    return inner_->is_candidate(seg);
  }
  SegmentId select(std::span<const lss::Segment> segments, VTime now,
                   adapt::Rng& rng) override {
    recorder_.open(Span::kGc);
    SegmentId victim = adapt::kInvalidSegment;
    {
      ScopedSpan span(recorder_, Span::kVictimSelect);
      victim = inner_->select(segments, now, rng);
    }
    if (victim == adapt::kInvalidSegment) {
      recorder_.close();
    } else {
      gc_victim_ = victim;
    }
    return victim;
  }

 private:
  std::unique_ptr<lss::VictimPolicy> inner_;
  SpanRecorder& recorder_;
  SegmentId gc_victim_ = adapt::kInvalidSegment;
};

bool same_histogram(const adapt::Log2Histogram& a,
                    const adapt::Log2Histogram& b) {
  if (a.count() != b.count() || a.sum() != b.sum() ||
      a.max_value() != b.max_value()) {
    return false;
  }
  for (std::size_t i = 0; i < adapt::Log2Histogram::kBuckets; ++i) {
    if (a.bucket(i) != b.bucket(i)) return false;
  }
  return true;
}

}  // namespace

const char* span_name(Span s) {
  switch (s) {
    case Span::kSimQueue: return "sim.queue";
    case Span::kLssWrite: return "lss.write";
    case Span::kLssRead: return "lss.read";
    case Span::kLssFlush: return "lss.flush";
    case Span::kGc: return "lss.gc";
    case Span::kVictimSelect: return "lss.victim.select";
    case Span::kVictimNotify: return "lss.victim.notify";
    case Span::kAdaptPlaceUser: return "adapt.place_user";
    case Span::kAdaptPlaceGc: return "adapt.place_gc";
    case Span::kAdaptDeadline: return "adapt.deadline";
    case Span::kAdaptNotify: return "adapt.notify";
    case Span::kCount: break;
  }
  return "?";
}

void SpanRecorder::open(Span s) {
  std::int64_t kept = -1;
  if (record_ >= keep_first_ && record_ < keep_end_) {
    kept = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(Kept{s, record_, 0, 0,
                         stack_.empty() ? -1 : stack_.back().kept});
  }
  // Read the clock last so the bookkeeping above is not inside the span.
  const std::uint64_t start = now_ns();
  stack_.push_back(Frame{s, start, 0, kept});
  if (kept >= 0) kept_[static_cast<std::size_t>(kept)].start_ns = start;
}

std::uint64_t SpanRecorder::close() {
  const std::uint64_t end = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - f.start_ns;
  SpanTotals& t = totals_[static_cast<std::size_t>(f.name)];
  ++t.calls;
  t.total_ns += duration;
  t.self_ns += duration - std::min(duration, f.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (f.kept >= 0) kept_[static_cast<std::size_t>(f.kept)].end_ns = end;
  return duration;
}

std::uint64_t SpanRecorder::close_root() {
  while (stack_.size() > 1) {
    ++unbalanced_;
    close();
  }
  return close();
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  const std::uint64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    if (i != 0) out << ',';
    out << "\n{\"name\":\"" << span_name(k.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(k.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(k.end_ns - k.start_ns) / 1e3
        << ",\"args\":{\"span\":" << i << ",\"record\":" << k.record
        << ",\"parent\":" << k.parent << "}}";
  }
  out << "\n]}\n";
}

TracedVolume run_traced(const adapt::trace::Volume& volume,
                        const adapt::sim::SimConfig& config,
                        std::uint64_t user_blocks, SpanRecorder& recorder,
                        std::uint64_t record_base,
                        std::vector<std::uint64_t>& write_ns) {
  // Geometry and clamping exactly as sim::run_volume applies them with
  // shards == 1.
  lss::LssConfig lss_config = config.lss;
  lss_config.logical_blocks = std::max<std::uint64_t>(
      volume.capacity_blocks, std::uint64_t{1} << 15);
  const Lba addressable = std::min<Lba>(
      std::max<Lba>(volume.capacity_blocks, 1), lss_config.logical_blocks);

  PlacementProxy* placement = nullptr;
  const auto factory = [&](std::uint32_t /*shard_index*/,
                           const lss::LssConfig& shard_lss) {
    core::AdaptConfig ac;
    ac.logical_blocks = shard_lss.logical_blocks;
    ac.segment_blocks = shard_lss.segment_blocks();
    ac.chunk_blocks = shard_lss.chunk_blocks;
    ac.over_provision = shard_lss.over_provision;
    ac.enable_threshold_adaptation = config.adapt_threshold_adaptation;
    ac.enable_cross_group_aggregation = config.adapt_cross_group_aggregation;
    ac.enable_proactive_demotion = config.adapt_proactive_demotion;
    auto proxy = std::make_unique<PlacementProxy>(
        core::make_adapt_policy(ac), recorder, user_blocks);
    placement = proxy.get();
    lss::ShardParts parts;
    parts.hook = proxy.get();
    parts.policy = std::move(proxy);
    parts.victim = std::make_unique<VictimProxy>(
        lss::make_victim_policy(config.victim_policy), recorder);
    if (config.with_array) {
      adapt::array::SsdArrayConfig arr;
      arr.chunk_bytes = shard_lss.chunk_blocks * shard_lss.block_bytes;
      arr.num_streams = parts.policy->group_count();
      parts.array = std::make_unique<adapt::array::SsdArray>(arr);
    }
    return parts;
  };
  lss::ShardedEngine engine(lss_config, 1, config.seed, factory);

  // Grow outside the timed loop, geometrically across volumes.
  if (write_ns.capacity() < write_ns.size() + volume.records.size()) {
    write_ns.reserve(std::max(2 * write_ns.capacity(),
                              write_ns.size() + volume.records.size()));
  }
  const auto start = std::chrono::steady_clock::now();
  recorder.begin_record(record_base);
  recorder.open(Span::kSimQueue);
  engine.reserve_queues(volume.records.size());
  for (const adapt::trace::Record& r : volume.records) {
    const Lba end = std::min<Lba>(r.lba + r.blocks, addressable);
    if (r.lba >= end) continue;
    const auto span = static_cast<std::uint32_t>(end - r.lba);
    if (r.op == adapt::trace::OpType::kWrite) {
      engine.enqueue_write(r.lba, span, r.ts_us);
    } else {
      engine.enqueue_read(r.lba, span, r.ts_us);
    }
  }
  recorder.close_root();

  std::uint64_t index = record_base;
  for (const adapt::trace::Record& r : volume.records) {
    recorder.begin_record(index++);
    const Lba end = std::min<Lba>(r.lba + r.blocks, addressable);
    if (r.lba >= end) continue;
    const auto span = static_cast<std::uint32_t>(end - r.lba);
    if (r.op == adapt::trace::OpType::kWrite) {
      recorder.open(Span::kLssWrite);
      engine.write(r.lba, span, r.ts_us);
      write_ns.push_back(recorder.close_root());
    } else {
      recorder.open(Span::kLssRead);
      engine.read(r.lba, span, r.ts_us);
      recorder.close_root();
    }
  }
  recorder.open(Span::kLssFlush);
  engine.flush_all();
  recorder.close_root();
  const auto stop = std::chrono::steady_clock::now();

  TracedVolume out;
  out.replay_seconds = std::chrono::duration<double>(stop - start).count();
  out.metrics = engine.merged_metrics();
  out.array_totals = engine.merged_array_totals();
  out.segments_per_group = engine.merged_segments_per_group();
  out.policy_memory_bytes = engine.policy_memory_bytes();
  for (GroupId g = 0; g < engine.shard(0).group_count(); ++g) {
    out.pending_blocks += engine.shard(0).pending_blocks(g);
  }

  const core::AdaptPolicy& policy = placement->inner();
  out.demotions = policy.demotions();
  out.shadow_decisions = policy.shadow_decisions();
  out.pad_decisions = policy.pad_decisions();
  if (const core::ThresholdAdapter* adapter = policy.adapter();
      adapter != nullptr) {
    out.adoptions = adapter->adoptions();
    out.sampled_writes = adapter->sampled_writes();

    // The adapter on its own, fed what the policy fed it, configured as
    // AdaptPolicy's constructor configures it.
    const core::AdaptConfig& pc = policy.config();
    core::AdapterConfig ac;
    ac.sample_rate = pc.sample_rate;
    ac.num_ghosts = pc.num_ghosts;
    ac.segment_blocks = pc.segment_blocks;
    ac.logical_blocks = pc.logical_blocks;
    ac.over_provision = pc.over_provision;
    ac.update_fraction = pc.update_fraction;
    core::ThresholdAdapter standalone(ac);
    const auto& stream = placement->stream();
    const auto adapter_start = std::chrono::steady_clock::now();
    for (const auto& [lba, vtime] : stream) {
      standalone.on_user_write(lba, vtime);
    }
    out.adapter_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              adapter_start)
                              .count();
    out.adapter_calls = stream.size();
    out.adapter_adoptions = standalone.adoptions();
    out.adapter_sampled_writes = standalone.sampled_writes();
  }
  return out;
}

std::string counter_mismatch(const adapt::sim::VolumeResult& untraced,
                             const TracedVolume& traced) {
  const lss::LssMetrics& a = untraced.metrics;
  const lss::LssMetrics& b = traced.metrics;
  const std::pair<const char*, bool> scalar_checks[] = {
      {"user_blocks", a.user_blocks == b.user_blocks},
      {"gc_blocks", a.gc_blocks == b.gc_blocks},
      {"shadow_blocks", a.shadow_blocks == b.shadow_blocks},
      {"padding_blocks", a.padding_blocks == b.padding_blocks},
      {"gc_runs", a.gc_runs == b.gc_runs},
      {"gc_migrated_blocks", a.gc_migrated_blocks == b.gc_migrated_blocks},
      {"forced_lazy_flushes", a.forced_lazy_flushes == b.forced_lazy_flushes},
      {"rmw_flushes", a.rmw_flushes == b.rmw_flushes},
      {"rmw_blocks", a.rmw_blocks == b.rmw_blocks},
      {"rmw_read_blocks", a.rmw_read_blocks == b.rmw_read_blocks},
      {"read_blocks", a.read_blocks == b.read_blocks},
      {"read_chunk_fetches", a.read_chunk_fetches == b.read_chunk_fetches},
      {"read_buffer_hits", a.read_buffer_hits == b.read_buffer_hits},
      {"read_unmapped", a.read_unmapped == b.read_unmapped},
      {"block_lifetime", same_histogram(a.block_lifetime, b.block_lifetime)},
      {"group_count", a.groups.size() == b.groups.size()},
      {"wa", a.wa() == b.wa()},
      {"padding_ratio", a.padding_ratio() == b.padding_ratio()},
      {"array.chunks_written", untraced.array_totals.chunks_written ==
                                   traced.array_totals.chunks_written},
      {"array.data_bytes",
       untraced.array_totals.data_bytes == traced.array_totals.data_bytes},
      {"array.padding_bytes", untraced.array_totals.padding_bytes ==
                                  traced.array_totals.padding_bytes},
      {"array.parity_bytes", untraced.array_totals.parity_bytes ==
                                 traced.array_totals.parity_bytes},
      {"segments_per_group",
       untraced.segments_per_group == traced.segments_per_group},
      {"policy_memory_bytes",
       untraced.policy_memory_bytes == traced.policy_memory_bytes},
      {"pending_blocks", untraced.manifest.provenance.pending_blocks ==
                             traced.pending_blocks},
  };
  for (const auto& [name, same] : scalar_checks) {
    if (!same) return name;
  }
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    const lss::GroupTraffic& x = a.groups[g];
    const lss::GroupTraffic& y = b.groups[g];
    const bool same =
        x.user_blocks == y.user_blocks && x.gc_blocks == y.gc_blocks &&
        x.shadow_blocks == y.shadow_blocks &&
        x.padding_blocks == y.padding_blocks &&
        x.full_flushes == y.full_flushes &&
        x.padded_flushes == y.padded_flushes &&
        x.padded_fill_blocks == y.padded_fill_blocks &&
        x.rmw_flushes == y.rmw_flushes && x.rmw_blocks == y.rmw_blocks &&
        x.segments_sealed == y.segments_sealed &&
        x.segments_reclaimed == y.segments_reclaimed &&
        x.gc_from == y.gc_from;
    if (!same) return "groups[" + std::to_string(g) + "]";
  }
  return {};
}

}  // namespace perfbench
