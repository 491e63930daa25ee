// Microbench: DeviceLanes submission throughput and modeled queue behavior
// over a queue_depth × lanes × clients grid, emitting
// BENCH_device_lanes.json (adapt-bench-v1).
//
// Each client thread drives its own seeded submission stream (payload
// sizes from a per-client Rng, lane chosen round-robin from the client's
// own counter, virtual clock advanced by a fixed inter-arrival), so the
// SET of submissions per lane is a pure function of the cell parameters —
// only the per-lane arrival order depends on thread interleaving.
//
// Gated rows (tools/adapt_compare vs ci/baselines/):
//   * lanes.submits ("count") — exact in every cell.
//   * lanes.busy_vtime ("vtime_us") — total modeled service time; a sum of
//     per-submission service times, so it is interleave-invariant.
//   * lanes.stalled + lanes.busy_until_vtime ("count"/"vtime_us") — only
//     for single-client cells, where the full lane timeline is
//     deterministic.
// Host-dependent rows carry "1/s" (submit-call throughput across client
// threads — the lane-mutex contention figure) and "us" (modeled
// submit→complete p99, order-dependent under sharing); the gate
// presence-checks those units only.
//
// Scaling: ADAPT_LANES_SUBMITS overrides submissions-per-client (changing
// it changes the gated rows, so CI must run the committed default).

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/sync.h"
#include "lss/device_lanes.h"

namespace adapt {
namespace {

struct CellResult {
  lss::DeviceLanesStats stats;
  double submit_calls_per_sec = 0.0;
};

/// Runs one grid cell: `clients` threads each pushing `per_client`
/// submissions through a shared DeviceLanes.
CellResult run_cell(std::uint32_t lanes_n, std::uint32_t depth,
                    std::uint32_t clients, std::uint64_t per_client) {
  lss::DeviceLanesConfig cfg;
  cfg.lanes = lanes_n;
  cfg.queue_depth = depth;
  cfg.lane_bandwidth_mb_per_s = 200.0;
  lss::DeviceLanes lanes(cfg);

  // Inter-arrival well below the ~5ms chunk service time, so bounded
  // queues actually fill and the stall path is exercised.
  constexpr TimeUs kInterarrivalUs = 1000;

  const std::uint64_t t0 = monotonic_now_ns();
  {
    std::vector<Thread> threads;
    threads.reserve(clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(0x1a5e5 + c);
        TimeUs now = 0;
        for (std::uint64_t i = 0; i < per_client; ++i) {
          now += kInterarrivalUs;
          const auto lane = static_cast<std::uint32_t>((c + i) % lanes_n);
          const std::uint64_t bytes = (1 + rng.below(256)) * 4096;
          lanes.submit(lane, bytes, now);
        }
      });
    }
  }  // joins
  const std::uint64_t elapsed_ns = monotonic_now_ns() - t0;

  CellResult r;
  r.stats = lanes.stats();
  if (elapsed_ns > 0) {
    r.submit_calls_per_sec =
        static_cast<double>(per_client) * clients * 1e9 /
        static_cast<double>(elapsed_ns);
  }
  return r;
}

int run() {
  obs::BenchReport report("device_lanes");
  const std::uint64_t per_client =
      bench::env_u64("ADAPT_LANES_SUBMITS", 50000);

  bench::print_header("micro_device_lanes",
                      "submission/completion-queue device model scaling");
  std::printf("%6s %6s %8s %12s %12s %12s %10s\n", "lanes", "depth",
              "clients", "submits", "stalled", "Msub/s", "p99_us");

  for (const std::uint32_t lanes_n : {1u, 2u, 4u}) {
    for (const std::uint32_t depth : {1u, 8u}) {
      for (const std::uint32_t clients : {1u, 4u}) {
        const CellResult r = run_cell(lanes_n, depth, clients, per_client);
        const lss::DeviceLanesStats& s = r.stats;

        std::uint64_t busy_us = 0;
        TimeUs busy_until = 0;
        for (const lss::LaneStats& l : s.per_lane) {
          busy_us += l.busy_us;
          busy_until = std::max(busy_until, l.busy_until_us);
        }
        const double p99_us = s.submit_complete_us.percentile(99.0);

        const obs::BenchReport::Params params = {
            {"lanes", bench::fmt(lanes_n)},
            {"depth", bench::fmt(depth)},
            {"clients", bench::fmt(clients)}};
        report.add("lanes.submits", params,
                   static_cast<double>(s.total_submits()), "count");
        report.add("lanes.busy_vtime", params, static_cast<double>(busy_us),
                   "vtime_us");
        if (clients == 1) {
          // One submitter: arrival order is the program order, so the
          // whole lane timeline (stalls, horizon) is deterministic.
          report.add("lanes.stalled", params,
                     static_cast<double>(s.total_stalled()), "count");
          report.add("lanes.busy_until_vtime", params,
                     static_cast<double>(busy_until), "vtime_us");
        }
        report.add("lanes.submit_rate", params, r.submit_calls_per_sec,
                   "1/s");
        report.add("lanes.submit_complete_p99", params, p99_us, "us");

        std::printf("%6u %6u %8u %12" PRIu64 " %12" PRIu64 " %12.2f "
                    "%10.0f\n",
                    lanes_n, depth, clients, s.total_submits(),
                    s.total_stalled(), r.submit_calls_per_sec / 1e6,
                    p99_us);
      }
    }
  }

  bench::write_report(report);
  return 0;
}

}  // namespace
}  // namespace adapt

int main() { return adapt::run(); }
