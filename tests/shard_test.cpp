// Shard-runner tests: the determinism contract of scale-out.
//
//   * Lowest failing shard: RunShards, called directly with a body that
//     fails on two shards, returns the lower shard's status at every
//     thread count and on a caller-provided executor.
//   * Thread-count invariance: the same plan merged from any number of
//     worker threads is bit-identical (shard isolation + merge-after-
//     join, never first-to-finish).
//   * 1-shard identity: a 1-shard, 1-thread plan reproduces the plain
//     single-device FioRunner run bit for bit (ForShard(0)/JobsForShard
//     are identity derivations).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "conzone/conzone.hpp"

namespace conzone {
namespace {

ConZoneConfig SmallConfig(bool faults) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;  // 4 SLC + 16 normal => small device
  cfg.geometry.slc_blocks_per_chip = 4;
  if (faults) {
    cfg.fault = FaultConfig::ConsumerDefaults();
    cfg.fault.read_only_spare_floor_blocks = 0;
  }
  return cfg;
}

std::vector<JobSpec> MixedJobs() {
  JobSpec rd;
  rd.name = "randread";
  rd.pattern = IoPattern::kRandom;
  rd.direction = IoDirection::kRead;
  rd.block_size = 4096;
  rd.region_offset = 0;
  rd.region_size = 8 * kMiB;
  rd.io_count = 1200;
  rd.iodepth = 2;
  rd.seed = 7;

  JobSpec wr;
  wr.name = "seqwrite";
  wr.pattern = IoPattern::kSequential;
  wr.direction = IoDirection::kWrite;
  wr.block_size = 64 * kKiB;
  wr.region_offset = 32 * kMiB;  // own zones, after the preconditioned read region
  wr.region_size = 16 * kMiB;
  wr.io_count = 400;
  wr.reset_zones_on_wrap = true;
  wr.seed = 11;
  return {rd, wr};
}

ShardPlan MakePlan(bool faults, std::uint32_t shards, std::uint32_t threads) {
  ShardPlan plan;
  plan.config = SmallConfig(faults);
  plan.jobs = MixedJobs();
  plan.shards = shards;
  plan.threads = threads;
  plan.master_seed = 42;
  plan.precondition_bytes = 16 * kMiB;
  return plan;
}

// Every simulated quantity that could expose a determinism leak, as one
// comparable string. Timestamps in exact nanoseconds — "bit-identical"
// means bit-identical.
std::string Fingerprint(const ShardResult& s) {
  std::ostringstream os;
  os << "shard=" << s.shard_id;
  for (const JobResult& j : s.run.jobs) {
    os << " job{" << j.name << " bytes=" << j.throughput.bytes
       << " ops=" << j.throughput.ops << " last=" << j.last_completion.ns()
       << " errs=" << j.io_errors << " lat=" << j.latency.Summary() << "}";
  }
  os << " events=" << s.run.events << " end=" << s.run.end_time.ns()
     << " rel={" << s.reliability.Summary() << "}"
     << " retry_hist={" << s.reliability.read_retry_hist.Summary() << "}"
     << " redrive_hist={" << s.reliability.redrive_hist.Summary() << "}"
     << " rec={" << s.recovery.Summary() << "}"
     << " remount_hist={" << s.recovery.remount_hist.Summary() << "}"
     << " waf=" << s.device.WriteAmplification()
     << " flash=" << s.device.flash_bytes_written
     << " resets=" << s.device.zone_resets;
  return os.str();
}

std::string Fingerprint(const ShardedResult& r) {
  std::ostringstream os;
  for (const ShardResult& s : r.shards) os << Fingerprint(s) << "\n";
  os << "total bytes=" << r.total.bytes << " ops=" << r.total.ops
     << " elapsed=" << r.total.elapsed.ns() << " events=" << r.events
     << " errs=" << r.io_errors << " end=" << r.end_time.ns()
     << " lat=" << r.latency.Summary() << " rel={" << r.reliability.Summary()
     << "}" << " rec={" << r.recovery.Summary() << "}";
  return os.str();
}

TEST(ShardedRunnerTest, MergedStatsIdenticalForAnyThreadCount) {
  for (const bool faults : {false, true}) {
    std::string reference;
    for (const std::uint32_t threads : {1u, 3u, 8u}) {
      auto res = ShardedRunner(MakePlan(faults, /*shards=*/4, threads)).Run();
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      const std::string fp = Fingerprint(res.value());
      if (reference.empty()) {
        reference = fp;
      } else {
        EXPECT_EQ(fp, reference) << "faults=" << faults << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedRunnerTest, OneShardMatchesSingleDevicePathBitForBit) {
  for (const bool faults : {false, true}) {
    const ShardPlan plan = MakePlan(faults, /*shards=*/1, /*threads=*/1);
    auto sharded = ShardedRunner(plan).Run();
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    // The plain single-device path, by hand.
    auto devr = ConZoneDevice::Create(plan.config);
    ASSERT_TRUE(devr.ok());
    ConZoneDevice& dev = **devr;
    SimTime start;
    ASSERT_TRUE(FioRunner::Precondition(dev, 0, plan.precondition_bytes,
                                        512 * kKiB, &start)
                    .ok());
    FioRunner fio(dev);
    auto direct = fio.Run(plan.jobs, start);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    ShardResult manual;
    manual.shard_id = 0;
    manual.run = std::move(direct).value();
    manual.reliability = dev.Reliability();
    manual.device = dev.Stats();

    ASSERT_EQ(sharded.value().shards.size(), 1u);
    EXPECT_EQ(Fingerprint(sharded.value().shards[0]), Fingerprint(manual))
        << "faults=" << faults;
  }
}

TEST(ShardedRunnerTest, ShardsBeyondZeroGetDecorrelatedSeeds) {
  const ShardPlan plan = MakePlan(false, 4, 1);
  const auto shard0 = ShardedRunner::JobsForShard(plan, 0);
  ASSERT_EQ(shard0.size(), plan.jobs.size());
  for (std::size_t j = 0; j < shard0.size(); ++j) {
    EXPECT_EQ(shard0[j].seed, plan.jobs[j].seed);  // identity for shard 0
  }
  const auto shard1 = ShardedRunner::JobsForShard(plan, 1);
  const auto shard2 = ShardedRunner::JobsForShard(plan, 2);
  for (std::size_t j = 0; j < shard1.size(); ++j) {
    EXPECT_NE(shard1[j].seed, plan.jobs[j].seed);
    EXPECT_NE(shard1[j].seed, shard2[j].seed);
  }
  // Config derivation mirrors the job derivation.
  EXPECT_EQ(plan.config.ForShard(0, plan.master_seed).fault.seed,
            plan.config.fault.seed);
  EXPECT_NE(plan.config.ForShard(1, plan.master_seed).fault.seed,
            plan.config.fault.seed);
  EXPECT_NE(plan.config.ForShard(1, plan.master_seed).fault.seed,
            plan.config.ForShard(2, plan.master_seed).fault.seed);
}

TEST(ShardedRunnerTest, ZeroShardsIsAnError) {
  ShardPlan plan = MakePlan(false, 1, 1);
  plan.shards = 0;
  auto res = ShardedRunner(plan).Run();
  EXPECT_FALSE(res.ok());
}

// Shards 1 and 3 fail with different statuses. Whichever lane finishes
// first, the run reports shard 1's; on success the values come back in
// shard-id order.
TEST(ShardRunnerTest, LowestFailingShardWinsAtAnyThreadCount) {
  auto body = [](std::uint32_t id) -> Result<std::uint32_t> {
    if (id == 1) return Status::MediaError("shard 1");
    if (id == 3) return Status::Internal("shard 3");
    return id * 10;
  };
  auto check = [&](std::uint32_t threads, Executor* exec) {
    auto res = RunShards<std::uint32_t>(5, threads, exec, body);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kMediaError);
    EXPECT_EQ(res.status().message(), "shard 1");
  };
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    check(threads, nullptr);
  }
  WorkStealingExecutor exec(4);
  check(/*threads=*/0, &exec);

  auto ok = RunShards<std::uint32_t>(
      4, 4, nullptr, [](std::uint32_t id) -> Result<std::uint32_t> { return id * 10; });
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value(), (std::vector<std::uint32_t>{0, 10, 20, 30}));
  EXPECT_FALSE(RunShards<std::uint32_t>(0, 1, nullptr, body).ok());
}

}  // namespace
}  // namespace conzone
