// Sharded FIO runner: many independent devices, one FIO job list each.
//
// Each shard is a bare ConZone device running the plan's FIO job list.
// Shards share nothing mutable, so the shard runner (shard_runner.hpp)
// drives them in parallel without a lock on the simulation hot path;
// this file only derives each shard's seeds and merges the results.
//
// Determinism contract:
//   * Each shard's entire run is a pure function of
//     (plan.config, plan.jobs, plan.master_seed, shard_id): the shard's
//     fault seed and job seeds are derived with MixSeeds, then the run
//     is an ordinary single-threaded DES.
//   * RunShards hands the results back in shard-id order after the
//     join, so thread count, scheduling order and core count change only
//     wall-clock time, never an output bit.
//   * Shard 0 is the identity derivation: a 1-shard plan reproduces the
//     plain single-device FioRunner run bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "core/storage_device.hpp"
#include "workload/fio.hpp"

namespace conzone {

/// Everything needed to reproduce a sharded run.
struct ShardPlan {
  /// Template device configuration; shard i runs
  /// config.ForShard(i, master_seed).
  ConZoneConfig config;
  /// Template job list, instantiated per shard with decorrelated seeds
  /// (shard 0 keeps the template seeds unchanged).
  std::vector<JobSpec> jobs;
  std::uint32_t shards = 1;
  /// Threads, the calling one included; 0 = min(shards,
  /// hardware_concurrency).
  std::uint32_t threads = 0;
  std::uint64_t master_seed = 1;
  /// Sequentially fill [0, precondition_bytes) on each shard before the
  /// measured jobs (read workloads need written media).
  std::uint64_t precondition_bytes = 0;
};

/// One shard's outcome, in full — kept per shard (not just merged) so
/// callers can inspect fleet variance, e.g. fault-rate spread.
struct ShardResult {
  std::uint32_t shard_id = 0;
  RunResult run;
  ReliabilityStats reliability;
  /// Checkpoint accounting (StorageDevice::Recovery()); the FIO shards
  /// take no power cuts, so the remount counters stay zero.
  RecoveryStats recovery;
  StatsSnapshot device;
};

/// Merge of all shards, in fixed shard-id order.
struct ShardedResult {
  std::vector<ShardResult> shards;
  /// Summed bytes/ops; elapsed = the longest shard's simulated span
  /// (shards run concurrently, so the fleet is done when the slowest
  /// shard is).
  Throughput total;
  LatencyHistogram latency;       ///< Merged across all shards' jobs.
  ReliabilityStats reliability;   ///< Merged (counters, histograms).
  RecoveryStats recovery;         ///< Merged remount/checkpoint counters.
  std::uint64_t events = 0;       ///< Simulator events executed, summed.
  std::uint64_t io_errors = 0;
  SimTime end_time;               ///< Max over shards.
};

class ShardedRunner {
 public:
  explicit ShardedRunner(ShardPlan plan);

  /// Run every shard on the shard runner and merge. Any shard error
  /// fails the whole run with the lowest-numbered failing shard's status.
  Result<ShardedResult> Run();

  const ShardPlan& plan() const { return plan_; }

  /// The job list shard `shard_id` actually runs (derived seeds).
  /// Exposed for tests asserting the derivation contract.
  static std::vector<JobSpec> JobsForShard(const ShardPlan& plan,
                                           std::uint32_t shard_id);

 private:
  ShardPlan plan_;
};

}  // namespace conzone
