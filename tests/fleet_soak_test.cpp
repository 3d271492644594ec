// Fleet-scale crash/recovery soak tests (DESIGN.md §13).
//
//   * Thread-count invariance: the merged fleet result — every per-shard
//     counter, fingerprint, and histogram — is bit-identical whether the
//     shards run on 1, 2, 4 or 8 worker threads.
//   * Shard-0 identity: shard 0 of a fleet soak reproduces, bit for bit,
//     a hand-rolled single-device CrashHarness soak of
//     ConfigForShard(plan, 0) under WorkloadForShard(plan, 0).
//   * Every scheduled cut remounts and passes the crash-consistency
//     checker (remounts == checker_passes == cuts).
//   * The wear ramp is monotone and actually escalates fault pressure.
//   * A shard that degrades to read-only is a reported survivor, never a
//     run failure.
//   * Opt-in long soak (CONZONE_FLEET_SOAK=1): 8 shards x 100+ cuts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "conzone/conzone.hpp"

namespace conzone {
namespace {

ConZoneConfig SmallConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;  // 4 SLC + 16 normal => small device
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.fault.read_only_spare_floor_blocks = 0;  // soak to the bitter end
  return cfg;
}

FleetSoakPlan SmallPlan(std::uint32_t shards, std::uint32_t cuts) {
  FleetSoakPlan plan;
  plan.config = SmallConfig();
  plan.shards = shards;
  plan.cuts_per_shard = cuts;
  plan.cut_interval_ns = 2'000'000;  // 2 ms mean: several slices per gap
  plan.ops_per_slice = 8;
  plan.wear_ramp_endurance = 4;  // small blocks cycle fast; ramp engages
  plan.wear_ramp_slope = 0.05;
  plan.checkpoint_interval_entries = 256;
  plan.checkpoint_stagger_levels = 3;
  plan.master_seed = 2026;
  return plan;
}

// Every simulated quantity that could expose a determinism leak, as one
// comparable string. Timestamps in exact nanoseconds — "bit-identical"
// means bit-identical.
std::string Fingerprint(const FleetShardResult& s) {
  std::ostringstream os;
  os << "shard=" << s.shard_id << " ops=" << s.ops << " cuts=" << s.cuts
     << " remounts=" << s.remounts << " checks=" << s.checker_passes
     << " ro=" << s.read_only << " fp=" << s.fingerprint
     << " end=" << s.end_time.ns() << " rec={" << s.recovery.Summary() << "}"
     << " remount_hist={" << s.recovery.remount_hist.Summary() << "}"
     << " ckpt_age_hist={" << s.recovery.checkpoint_age_hist.Summary() << "}"
     << " rel={" << s.reliability.Summary() << "}"
     << " waf=" << s.device.WriteAmplification()
     << " flash=" << s.device.flash_bytes_written
     << " resets=" << s.device.zone_resets;
  return os.str();
}

std::string Fingerprint(const FleetSoakResult& r) {
  std::ostringstream os;
  for (const FleetShardResult& s : r.shards) os << Fingerprint(s) << "\n";
  os << "fleet fp=" << r.fleet_fingerprint << " ops=" << r.total_ops
     << " cuts=" << r.total_cuts << " remounts=" << r.total_remounts
     << " ro_shards=" << r.read_only_shards << " end=" << r.end_time.ns()
     << " rec={" << r.recovery.Summary() << "}"
     << " rel={" << r.reliability.Summary() << "}"
     << " flash=" << r.device.flash_bytes_written;
  return os.str();
}

TEST(FleetSoakTest, MergedStatsIdenticalForAnyThreadCount) {
  std::string reference;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    FleetSoakPlan plan = SmallPlan(/*shards=*/4, /*cuts=*/5);
    plan.threads = threads;
    auto res = FleetSoakRunner(plan).Run();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const std::string fp = Fingerprint(res.value());
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference) << "threads=" << threads;
    }
  }
}

// Shard 0 is the identity derivation: replaying ConfigForShard(plan, 0)
// and WorkloadForShard(plan, 0) through a plain single-device harness
// loop — the examples/crash_study shape — reproduces it bit for bit.
TEST(FleetSoakTest, ShardZeroMatchesSingleDeviceSoak) {
  const FleetSoakPlan plan = SmallPlan(/*shards=*/3, /*cuts=*/4);
  auto fleet = FleetSoakRunner(plan).Run();
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_EQ(fleet.value().shards.size(), 3u);

  const ConZoneConfig cfg = FleetSoakRunner::ConfigForShard(plan, 0);
  // Identity: shard 0 keeps the template's fault seed and workload seed.
  EXPECT_EQ(cfg.fault.seed, plan.config.fault.seed);
  EXPECT_EQ(FleetSoakRunner::WorkloadForShard(plan, 0).seed,
            plan.workload.seed);

  CrashHarness h(cfg, FleetSoakRunner::WorkloadForShard(plan, 0));
  ASSERT_TRUE(h.Init().ok());
  FaultConfig sc;
  sc.seed = cfg.fault.seed;
  sc.power_cut_mean_interval_ns = plan.cut_interval_ns;
  FaultModel schedule(sc);

  FleetShardResult manual;
  SimTime next_cut = schedule.NextCutAfter(h.now());
  while (manual.cuts < plan.cuts_per_shard) {
    if (Status st = h.RunOps(plan.ops_per_slice); !st.ok()) {
      ASSERT_TRUE(h.device().read_only()) << st.ToString();
      break;
    }
    manual.ops += plan.ops_per_slice;
    if (h.now() < next_cut) continue;
    ASSERT_TRUE(h.CutAt(Later(next_cut, h.last_submit())).ok());
    ++manual.cuts;
    ASSERT_TRUE(h.RecoverAndVerify().ok());
    ++manual.remounts;
    ++manual.checker_passes;
    next_cut = schedule.NextCutAfter(h.now());
  }
  manual.read_only = h.device().read_only();
  manual.fingerprint = h.fingerprint();
  manual.end_time = h.now();
  manual.recovery = h.device().Recovery();
  manual.reliability = h.device().Reliability();
  manual.device = h.device().Stats();

  EXPECT_EQ(Fingerprint(fleet.value().shards[0]), Fingerprint(manual));
}

TEST(FleetSoakTest, EveryRemountPassesTheChecker) {
  auto res = FleetSoakRunner(SmallPlan(/*shards=*/4, /*cuts=*/5)).Run();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const FleetSoakResult& r = res.value();
  std::uint64_t cuts = 0, remounts = 0;
  for (const FleetShardResult& s : r.shards) {
    // Every cut the shard took was remounted and verified before its
    // workload resumed; a shard that is not a read-only survivor took
    // its full quota.
    EXPECT_EQ(s.remounts, s.cuts) << "shard " << s.shard_id;
    EXPECT_EQ(s.checker_passes, s.remounts) << "shard " << s.shard_id;
    if (!s.read_only) EXPECT_EQ(s.cuts, 5u) << "shard " << s.shard_id;
    // The device-side counters agree with the harness-side ones.
    EXPECT_EQ(s.recovery.power_cuts, s.cuts) << "shard " << s.shard_id;
    EXPECT_EQ(s.recovery.recoveries, s.remounts) << "shard " << s.shard_id;
    EXPECT_GT(s.recovery.remount_hist.count(), 0u) << "shard " << s.shard_id;
    cuts += s.cuts;
    remounts += s.remounts;
  }
  EXPECT_EQ(r.total_cuts, cuts);
  EXPECT_EQ(r.total_remounts, remounts);
  EXPECT_EQ(r.recovery.power_cuts, cuts);
  EXPECT_EQ(r.recovery.recoveries, remounts);
  // The staggered checkpoint cadence actually wrote images somewhere in
  // the fleet, and the consumer fault rates actually fired.
  EXPECT_GT(r.recovery.checkpoints_written, 0u);
  EXPECT_GT(r.reliability.TotalFaults(), 0u);
}

// Regression: a 1-shard checkpointed soak whose 47th scheduled cut lands
// exactly on the last submission instant while a fold re-drive is in
// flight. SLC GC used to run nested inside the re-drive and stamp the
// fold's source invalidates under its own, earlier-closing window — the
// cut made those invalidates durable while the superseding program was
// torn, losing 20 acknowledged-durable slots of zone 2. Mark-scoped
// journal stamping plus reclaiming SLC headroom before the fold's
// read-back keeps every remount on this stream consistent.
TEST(FleetSoakTest, FoldRedriveUnderGcPressureKeepsDurableData) {
  FleetSoakPlan plan = SmallPlan(/*shards=*/1, /*cuts=*/47);
  plan.wear_ramp_endurance = 0;
  plan.consumer_faults = false;  // repeated cuts alone skew the reserved blocks
  auto res = FleetSoakRunner(plan).Run();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const FleetShardResult& s = res.value().shards[0];
  EXPECT_EQ(s.cuts, 47u);
  EXPECT_EQ(s.remounts, 47u);
  EXPECT_EQ(s.checker_passes, 47u);
}

TEST(FleetSoakTest, ConfigForShardAppliesFleetPolicy) {
  const FleetSoakPlan plan = SmallPlan(/*shards=*/6, /*cuts=*/1);
  const FaultConfig consumer = FaultConfig::ConsumerDefaults();
  for (std::uint32_t i = 0; i < plan.shards; ++i) {
    const ConZoneConfig cfg = FleetSoakRunner::ConfigForShard(plan, i);
    // ConsumerDefaults rates, template floor, wear ramp, journaling on.
    EXPECT_EQ(cfg.fault.slc.program_fail, consumer.slc.program_fail);
    EXPECT_EQ(cfg.fault.normal.read_retry, consumer.normal.read_retry);
    EXPECT_EQ(cfg.fault.read_only_spare_floor_blocks, 0u);
    EXPECT_EQ(cfg.fault.rated_endurance, plan.wear_ramp_endurance);
    EXPECT_EQ(cfg.fault.wear_slope, plan.wear_ramp_slope);
    EXPECT_TRUE(cfg.fault.power_loss);
    EXPECT_TRUE(cfg.l2p_log.enabled);
    EXPECT_TRUE(cfg.checkpoint.enabled);
    // Staggered cadence: base << (i % levels).
    EXPECT_EQ(cfg.checkpoint.interval_entries,
              plan.checkpoint_interval_entries
                  << (i % plan.checkpoint_stagger_levels));
    EXPECT_TRUE(cfg.Validate().ok());
  }
  // Seed derivation: identity at shard 0, decorrelated beyond.
  EXPECT_EQ(FleetSoakRunner::ConfigForShard(plan, 0).fault.seed,
            plan.config.fault.seed);
  EXPECT_NE(FleetSoakRunner::ConfigForShard(plan, 1).fault.seed,
            plan.config.fault.seed);
  EXPECT_NE(FleetSoakRunner::ConfigForShard(plan, 1).fault.seed,
            FleetSoakRunner::ConfigForShard(plan, 2).fault.seed);
  EXPECT_NE(FleetSoakRunner::WorkloadForShard(plan, 1).seed,
            FleetSoakRunner::WorkloadForShard(plan, 2).seed);
}

TEST(WearRampTest, MultiplierIsMonotoneAndPure) {
  FaultConfig fc;
  fc.rated_endurance = 16;
  fc.wear_slope = 0.02;
  FaultModel model(fc);
  // Flat at 1.0 up to the rated endurance...
  for (std::uint32_t e = 0; e <= 16; ++e) {
    EXPECT_DOUBLE_EQ(model.wear_multiplier(e), 1.0) << "erases=" << e;
  }
  // ...then strictly increasing, linear in the excess.
  double prev = model.wear_multiplier(16);
  for (std::uint32_t e = 17; e <= 64; ++e) {
    const double m = model.wear_multiplier(e);
    EXPECT_GT(m, prev) << "erases=" << e;
    EXPECT_DOUBLE_EQ(m, 1.0 + 0.02 * (e - 16)) << "erases=" << e;
    prev = m;
  }
  // Pure: repeated queries do not drift (no hidden RNG draw).
  EXPECT_DOUBLE_EQ(model.wear_multiplier(40), model.wear_multiplier(40));
}

// Same fleet, wear ramp on vs off: the ramp must escalate fault pressure
// as erase counts climb past the rated endurance. Both runs are fully
// deterministic, so the comparison is stable.
TEST(WearRampTest, RampEscalatesFaultPressure) {
  // Reset-heavy mix so erase counts actually climb past the tiny rated
  // endurance within the soak.
  FleetSoakPlan ramped = SmallPlan(/*shards=*/1, /*cuts=*/12);
  ramped.workload.reset_prob = 0.3;
  ramped.wear_ramp_endurance = 1;
  ramped.wear_ramp_slope = 2.0;

  FleetSoakPlan flat = SmallPlan(/*shards=*/1, /*cuts=*/12);
  flat.workload.reset_prob = 0.3;
  flat.wear_ramp_endurance = 0;  // leave the template (no wear coupling)

  auto rr = FleetSoakRunner(ramped).Run();
  auto fr = FleetSoakRunner(flat).Run();
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_TRUE(fr.ok()) << fr.status().ToString();
  EXPECT_GT(rr.value().reliability.TotalFaults(),
            fr.value().reliability.TotalFaults());
}

// A shard whose device latches read-only (healthy-spare floor) ends its
// soak early as a survivor: reported in read_only_shards, never fatal.
TEST(FleetSoakTest, ReadOnlyShardIsASurvivorNotAFailure) {
  FleetSoakPlan plan = SmallPlan(/*shards=*/2, /*cuts=*/4);
  // A floor no small device can satisfy: the first write trips the latch.
  plan.config.fault.read_only_spare_floor_blocks = 1'000'000;
  auto res = FleetSoakRunner(plan).Run();
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().read_only_shards, 2u);
  for (const FleetShardResult& s : res.value().shards) {
    EXPECT_TRUE(s.read_only);
    EXPECT_LT(s.cuts, plan.cuts_per_shard);  // ended early
  }
}

TEST(FleetSoakTest, ZeroShardsIsAnError) {
  FleetSoakPlan plan = SmallPlan(1, 1);
  plan.shards = 0;
  EXPECT_FALSE(FleetSoakRunner(plan).Run().ok());
}

TEST(FleetSoakTest, ZeroCutIntervalIsAnError) {
  FleetSoakPlan plan = SmallPlan(1, 1);
  plan.cut_interval_ns = 0;
  EXPECT_FALSE(FleetSoakRunner(plan).Run().ok());
}

// Opt-in long soak: the ISSUE-9 acceptance run. >= 8 shards x >= 100
// wear-ramped cuts each with checkpoints on, every remount verified,
// merged stats bit-identical across thread counts.
TEST(FleetSoakTest, LongFleetSoak) {
  if (std::getenv("CONZONE_FLEET_SOAK") == nullptr) {
    GTEST_SKIP() << "set CONZONE_FLEET_SOAK=1 to run the long fleet soak";
  }
  FleetSoakPlan plan = SmallPlan(/*shards=*/8, /*cuts=*/100);
  std::string reference;
  for (const std::uint32_t threads : {1u, 8u}) {
    plan.threads = threads;
    auto res = FleetSoakRunner(plan).Run();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const FleetSoakResult& r = res.value();
    for (const FleetShardResult& s : r.shards) {
      EXPECT_EQ(s.checker_passes, s.remounts) << "shard " << s.shard_id;
      EXPECT_EQ(s.remounts, s.cuts) << "shard " << s.shard_id;
      if (!s.read_only) EXPECT_EQ(s.cuts, plan.cuts_per_shard);
    }
    EXPECT_GE(r.total_cuts, 100u);
    EXPECT_GT(r.recovery.checkpoints_written, 0u);
    const std::string fp = Fingerprint(r);
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace conzone
