// Fleet-scale crash/recovery soak (DESIGN.md §13).
//
// ConZone's consumer premise is that failures are the steady state: worn
// media faults, abrupt power cuts, and constrained resources interact.
// This subsystem proves the whole reliability stack holds at fleet
// scale: N independent device shards run the crash harness's mixed op
// stream (writes/flushes/resets/finishes/conventional overwrites) under
// ConsumerDefaults() fault rates with a wear ramp — fault probabilities
// escalate as erase counts climb past the rated endurance — while a
// deterministic per-shard power-cut schedule cuts power mid-workload.
// Every cut runs the full PowerCut/Recover pipeline and then the
// crash-consistency checker before the shard's workload resumes; a
// shard that degrades to read-only is recorded as a survivor, not a
// fatal error.
//
// Determinism contract (the shard runner's, shard/shard_runner.hpp):
//   * A shard's entire soak is a pure function of
//     (plan, shard_id): its config, fault stream, cut schedule,
//     checkpoint cadence and op stream all derive from the plan via
//     MixSeeds. Shard 0 is the identity derivation — bit-identical to a
//     single-device soak of ConfigForShard(plan, 0) under
//     WorkloadForShard(plan, 0).
//   * Shards run on the shard runner, which hands the results back in
//     shard-id order after the join, so merged fleet stats are
//     bit-identical at any thread count. This file keeps only the
//     soak body, its seed derivation and its merge.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "core/crash_checker.hpp"
#include "fault/fault_model.hpp"

namespace conzone {

/// Everything needed to reproduce a fleet soak.
struct FleetSoakPlan {
  /// Template device configuration; shard i runs
  /// FleetSoakRunner::ConfigForShard(plan, i): ForShard seed
  /// derivation plus the fault/wear/checkpoint policy below.
  ConZoneConfig config;
  std::uint32_t shards = 8;
  /// Scheduled power cuts each shard must take (its workload keeps
  /// running between cuts; a read-only degradation ends the shard's
  /// soak early as a survivor).
  std::uint32_t cuts_per_shard = 100;
  /// Mean simulated-time gap between a recovery and the next cut. The
  /// gaps are exponential, drawn from the shard's decorrelated
  /// FaultModel cut stream.
  std::uint64_t cut_interval_ns = 10'000'000;
  /// Workload ops per scheduling slice: the shard runs this many ops,
  /// then checks whether the cut alarm has fired. Granularity only —
  /// the cut lands at the scheduled time either way.
  std::size_t ops_per_slice = 16;
  /// Per-shard op mix (CrashHarness). The seed is re-derived per shard
  /// (shard 0 keeps it — the identity contract).
  CrashHarness::Options workload;

  /// Overwrite the template's fault rates with ConsumerDefaults()
  /// (keeping the template's seed and read-only floor) — the soak's
  /// documented regime. Off = the template's own rates run unmodified.
  bool consumer_faults = true;
  /// Wear ramp: past this many erases every fault probability grows by
  /// `wear_ramp_slope` per extra erase (FaultConfig wear coupling).
  /// 0 = leave the template's own endurance/slope untouched.
  std::uint32_t wear_ramp_endurance = 16;
  double wear_ramp_slope = 0.02;

  /// Per-shard checkpoint cadence: shard i checkpoints every
  /// (checkpoint_interval_entries << (i % checkpoint_stagger_levels))
  /// flushed L2P-log entries, so the fleet covers a cadence spread in
  /// one soak. Enables the L2P log + checkpointing on every shard;
  /// 0 = leave the template's checkpoint config untouched.
  std::uint64_t checkpoint_interval_entries = 1024;
  std::uint32_t checkpoint_stagger_levels = 4;

  /// Threads, the calling one included; 0 = min(shards,
  /// hardware_concurrency).
  std::uint32_t threads = 0;
  std::uint64_t master_seed = 1;
};

/// One shard's soak outcome, kept per shard for variance analysis
/// (remount-latency spread, fault-rate spread, checkpoint ages).
struct FleetShardResult {
  std::uint32_t shard_id = 0;
  std::uint64_t ops = 0;        ///< Workload ops completed.
  std::uint32_t cuts = 0;       ///< Scheduled cuts taken.
  std::uint32_t remounts = 0;   ///< Recover() remounts completed.
  /// Remounts the crash-consistency checker verified (== remounts on a
  /// passing soak; a violation fails the run, not this counter).
  std::uint32_t checker_passes = 0;
  /// Survivor flag: the shard degraded to read-only (healthy spare
  /// floor) and ended its soak early. Reported, never fatal.
  bool read_only = false;
  /// Checker FNV over every recovered state this shard verified.
  std::uint64_t fingerprint = 0;
  SimTime end_time;
  RecoveryStats recovery;
  ReliabilityStats reliability;
  StatsSnapshot device;
};

/// Merge of the whole fleet, in fixed shard-id order.
struct FleetSoakResult {
  std::vector<FleetShardResult> shards;
  RecoveryStats recovery;        ///< Merged remount/checkpoint counters.
  ReliabilityStats reliability;  ///< Merged fault/recovery counters.
  StatsSnapshot device;          ///< Merged device counters.
  std::uint64_t total_ops = 0;
  std::uint64_t total_cuts = 0;
  std::uint64_t total_remounts = 0;
  std::uint32_t read_only_shards = 0;  ///< Survivors, not failures.
  /// Order-sensitive FNV over every shard's (id, fingerprint, cuts,
  /// end time) — one number two fleet runs can be compared by.
  std::uint64_t fleet_fingerprint = 0;
  SimTime end_time;  ///< Max over shards.
};

class FleetSoakRunner {
 public:
  explicit FleetSoakRunner(FleetSoakPlan plan);

  /// Run every shard on the shard runner and merge. Only genuine
  /// failures (a consistency violation, a device error that is not the
  /// read-only latch) fail the run; the lowest-numbered failing shard's
  /// status is returned.
  Result<FleetSoakResult> Run();

  /// The exact device configuration shard `shard_id` soaks: ForShard
  /// seed derivation + ConsumerDefaults rates + wear ramp + the shard's
  /// staggered checkpoint cadence + power-loss journaling. Exposed so
  /// tests can replay one shard as a plain single-device soak.
  static ConZoneConfig ConfigForShard(const FleetSoakPlan& plan,
                                      std::uint32_t shard_id);

  /// The op-mix options shard `shard_id` runs (seed re-derived via
  /// MixSeeds; shard 0 keeps the template seed).
  static CrashHarness::Options WorkloadForShard(const FleetSoakPlan& plan,
                                                std::uint32_t shard_id);

 private:
  FleetSoakPlan plan_;
};

}  // namespace conzone
