// Sharded scale-out study: aggregate emulator throughput vs shard count.
//
// Runs the same preconditioned 4 KiB random-read workload on N fully
// independent device shards (own config, own seeded fault stream, own
// event queue) with one thread per shard, and reports the
// AGGREGATE simulated IOs per wall-clock second plus the scaling
// efficiency relative to the 1-shard baseline:
//
//   efficiency(N) = (agg_ios_per_s(N) / agg_ios_per_s(1)) / N
//
// Each row repeats the same-seed run until it has spent at least
// kMinWallSeconds of wall time, so thread start-up and timer noise do
// not decide the ratio.
// Whole shards are the emulator's only parallel path (DESIGN.md §5d).
// On a host with >= N free cores, efficiency should stay near 1.0 — the
// shards share nothing on the hot path. On fewer cores the shards
// time-slice and efficiency degrades toward 1/N; the host core count is
// printed so the numbers read honestly. The merged statistics are
// bit-identical for any thread count (see tests/shard_test.cpp), so
// scaling changes only wall-clock time, never results.
//
//   ./build/examples/sharded_scale
#include <chrono>
#include <cstdio>
#include <thread>

#include "conzone/conzone.hpp"

using namespace conzone;

int main() {
  constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};
  constexpr std::uint64_t kRegion = 64 * kMiB;
  constexpr double kMinWallSeconds = 1.0;

  JobSpec rd;
  rd.name = "randread";
  rd.pattern = IoPattern::kRandom;
  rd.direction = IoDirection::kRead;
  rd.block_size = 4096;
  rd.region_offset = 0;
  rd.region_size = kRegion;
  rd.io_count = 40000;
  rd.iodepth = 4;
  rd.seed = 1;

  std::printf("4 KiB random reads, one thread per device shard "
              "(host has %u hardware threads)\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %-8s %6s %8s %14s %14s %12s\n", "shards", "threads",
              "runs", "wall_s", "agg_sim_ios/s", "events/s", "efficiency");

  double base_ios_per_s = 0.0;
  for (const std::uint32_t shards : kShardCounts) {
    ShardPlan plan;
    plan.config = ConZoneConfig::PaperConfig();
    plan.jobs = {rd};
    plan.shards = shards;
    plan.threads = shards;
    plan.master_seed = 1;
    plan.precondition_bytes = kRegion;

    std::uint64_t ops = 0, events = 0, runs = 0;
    double wall_s = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    while (wall_s < kMinWallSeconds) {
      auto res = ShardedRunner(plan).Run();
      if (!res.ok()) {
        std::fprintf(stderr, "sharded run failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      ops += res.value().total.ops;
      events += res.value().events;
      ++runs;
      wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count();
    }
    const double ios_per_s = static_cast<double>(ops) / wall_s;
    const double events_per_s = static_cast<double>(events) / wall_s;
    if (shards == 1) base_ios_per_s = ios_per_s;
    const double efficiency =
        base_ios_per_s > 0 ? ios_per_s / (base_ios_per_s * shards) : 0.0;
    std::printf("%-8u %-8u %6llu %8.2f %14.0f %14.0f %11.2fx\n", shards,
                plan.threads, static_cast<unsigned long long>(runs), wall_s,
                ios_per_s, events_per_s, efficiency);
  }
  return 0;
}
