#include "soak/fleet_soak.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "shard/shard_runner.hpp"

namespace conzone {

namespace {

/// One shard's whole soak: workload slices between scheduled cuts, each
/// cut followed by the full remount pipeline and the consistency
/// checker. The loop is the same shape examples/crash_study drives on a
/// single device — that is the identity the shard-0 test pins down.
Result<FleetShardResult> SoakOneShard(const FleetSoakPlan& plan,
                                      std::uint32_t shard_id) {
  FleetShardResult r;
  r.shard_id = shard_id;

  const ConZoneConfig cfg = FleetSoakRunner::ConfigForShard(plan, shard_id);
  CrashHarness h(cfg, FleetSoakRunner::WorkloadForShard(plan, shard_id));
  if (Status st = h.Init(); !st.ok()) return st;

  // The cut stream is a pure function of the shard's derived fault seed
  // and draws from FaultModel's private decorrelated stream, so it
  // never shifts a fault draw of an otherwise identical run.
  FaultModel schedule;
  if (plan.schedule == CutScheduleKind::kRandomInterval) {
    FaultConfig sc;
    sc.seed = cfg.fault.seed;
    sc.power_cut_mean_interval_ns = plan.cut_interval_ns;
    schedule = FaultModel(sc);
  }
  auto next_cut_after = [&](SimTime t) {
    return plan.schedule == CutScheduleKind::kRandomInterval
               ? schedule.NextCutAfter(t)
               : t + SimDuration::Nanos(plan.cut_interval_ns);
  };

  const std::size_t slice = plan.ops_per_slice == 0 ? 1 : plan.ops_per_slice;
  SimTime next_cut = next_cut_after(h.now());
  while (r.cuts < plan.cuts_per_shard) {
    if (Status st = h.RunOps(slice); !st.ok()) {
      // Degraded-shard policy: a device that latched read-only cannot
      // run the write-heavy stream any further — a survivor, not a
      // failure. Anything else is genuine.
      if (h.device().read_only()) break;
      return st;
    }
    r.ops += slice;
    if (h.now() < next_cut) continue;  // keep running until the alarm
    // The alarm can land inside an idle gap that ended before the last
    // submission; PowerCut refuses to rewind, so clamp forward.
    const SimTime at = Later(next_cut, h.last_submit());
    if (Status st = h.CutAt(at); !st.ok()) return st;
    ++r.cuts;
    // Remount + full crash-consistency verification before the shard
    // resumes. A violation here is the soak's whole point of failure.
    if (Status st = h.RecoverAndVerify(); !st.ok()) return st;
    ++r.remounts;
    ++r.checker_passes;
    next_cut = next_cut_after(h.now());
  }

  r.read_only = h.device().read_only();
  r.fingerprint = h.fingerprint();
  r.end_time = h.now();
  r.recovery = h.device().Recovery();
  r.reliability = h.device().Reliability();
  r.device = h.device().Stats();
  return r;
}

}  // namespace

FleetSoakRunner::FleetSoakRunner(FleetSoakPlan plan) : plan_(std::move(plan)) {}

ConZoneConfig FleetSoakRunner::ConfigForShard(const FleetSoakPlan& plan,
                                              std::uint32_t shard_id) {
  ConZoneConfig cfg = plan.config;
  if (plan.consumer_faults) {
    // ConsumerDefaults rates; everything the template already decided —
    // seed, spare floor, wear coupling, power-loss knobs — survives.
    FaultConfig fc = FaultConfig::ConsumerDefaults();
    fc.seed = cfg.fault.seed;
    fc.read_only_spare_floor_blocks = cfg.fault.read_only_spare_floor_blocks;
    fc.rated_endurance = cfg.fault.rated_endurance;
    fc.wear_slope = cfg.fault.wear_slope;
    fc.power_loss = cfg.fault.power_loss;
    fc.power_cut_mean_interval_ns = cfg.fault.power_cut_mean_interval_ns;
    cfg.fault = fc;
  }
  if (plan.wear_ramp_endurance > 0) {
    cfg.fault.rated_endurance = plan.wear_ramp_endurance;
    cfg.fault.wear_slope = plan.wear_ramp_slope;
  }
  // The harness forces journaling on anyway; bake it in so the derived
  // config reproduces the shard standalone.
  cfg.fault.power_loss = true;
  if (plan.checkpoint_interval_entries > 0) {
    cfg.l2p_log.enabled = true;
    cfg.checkpoint.enabled = true;
    const std::uint32_t levels =
        plan.checkpoint_stagger_levels == 0 ? 1 : plan.checkpoint_stagger_levels;
    cfg.checkpoint.interval_entries = plan.checkpoint_interval_entries
                                      << (shard_id % levels);
  }
  // Seed derivation last: identity at shard 0, decorrelated fault
  // stream elsewhere — the same contract ShardedRunner runs under.
  return cfg.ForShard(shard_id, plan.master_seed);
}

CrashHarness::Options FleetSoakRunner::WorkloadForShard(
    const FleetSoakPlan& plan, std::uint32_t shard_id) {
  CrashHarness::Options o = plan.workload;
  if (shard_id != 0) {  // identity: shard 0 == the single-device soak
    o.seed = MixSeeds(o.seed, plan.master_seed, shard_id);
  }
  return o;
}

Result<FleetSoakResult> FleetSoakRunner::Run() {
  if (plan_.cut_interval_ns == 0) {
    return Status::InvalidArgument("fleet soak: cut interval must be > 0");
  }
  auto shards = RunShards<FleetShardResult>(
      plan_.shards, plan_.threads, plan_.executor,
      [this](std::uint32_t id) { return SoakOneShard(plan_, id); });
  if (!shards.ok()) return shards.status();

  FleetSoakResult merged;
  merged.shards = std::move(shards).value();
  std::uint64_t fp = 0xCBF29CE484222325ull;
  auto mix = [&fp](std::uint64_t v) { fp = (fp ^ v) * 0x100000001B3ull; };
  for (const FleetShardResult& s : merged.shards) {
    merged.recovery.Merge(s.recovery);
    merged.reliability.Merge(s.reliability);
    merged.device.Merge(s.device);
    merged.total_ops += s.ops;
    merged.total_cuts += s.cuts;
    merged.total_remounts += s.remounts;
    merged.read_only_shards += s.read_only ? 1u : 0u;
    merged.end_time = std::max(merged.end_time, s.end_time);
    mix(s.shard_id);
    mix(s.fingerprint);
    mix(s.cuts);
    mix(s.end_time.ns());
  }
  merged.fleet_fingerprint = fp;
  return merged;
}

}  // namespace conzone
