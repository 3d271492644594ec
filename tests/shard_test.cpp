// Shard-runner tests: the determinism contract of scale-out.
//
//   * RunShards, called directly: every shard runs exactly once and the
//     values come back in shard-id order at 1-8 threads, for 1 to 1000
//     shards and with skewed shard costs; one thread runs the bodies on
//     the caller in id order, and a body may start a shard run of its
//     own.
//   * Lowest failing shard: with a body that fails on two shards,
//     RunShards returns the lower shard's status at every thread count.
//   * Thread-count invariance: the same plan merged from any number of
//     worker threads is bit-identical (shard isolation + merge-after-
//     join, never first-to-finish).
//   * 1-shard identity: a 1-shard, 1-thread plan reproduces the plain
//     single-device FioRunner run bit for bit (ForShard(0)/JobsForShard
//     are identity derivations).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

// A deterministic busy loop whose cost grows with `spins`.
std::uint64_t Spin(std::uint64_t seed, int spins) {
  std::uint64_t acc = seed;
  for (int s = 0; s < spins; ++s) acc = acc * 6364136223846793005ull + 1;
  return acc;
}

TEST(ExecutorTest, EveryTaskRunsExactlyOnce) {
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t shards : {1u, 3u, 64u, 1000u}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shards=" << shards);
      std::vector<std::atomic<std::uint32_t>> runs(shards);
      auto res = RunShards<std::uint32_t>(
          shards, threads, [&](std::uint32_t id) -> Result<std::uint32_t> {
            ++runs[id];
            return id;
          });
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ASSERT_EQ(res.value().size(), shards);
      for (std::uint32_t id = 0; id < shards; ++id) {
        ASSERT_EQ(runs[id].load(), 1u) << "shard " << id;
        ASSERT_EQ(res.value()[id], id) << "shard " << id;
      }
    }
  }
}

// 13 shards with skewed costs (every fourth shard spins 100x longer), so
// threads finish out of order and the fast ones take the ids a slow one
// would otherwise get. Each shard must run exactly once and the values
// must come back in shard-id order.
TEST(ExecutorTest, StealStressSkewedTaskCosts) {
  constexpr std::uint32_t kShards = 13;
  auto spins = [](std::uint32_t id) { return id % 4 == 0 ? 20000 : 200; };
  std::vector<std::uint64_t> expect;
  for (std::uint32_t id = 0; id < kShards; ++id) {
    expect.push_back(Spin(id, spins(id)));
  }

  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    std::vector<std::atomic<std::uint32_t>> runs(kShards);
    auto res = RunShards<std::uint64_t>(
        kShards, threads, [&](std::uint32_t id) -> Result<std::uint64_t> {
          ++runs[id];
          return Spin(id, spins(id));
        });
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    for (std::uint32_t id = 0; id < kShards; ++id) {
      EXPECT_EQ(runs[id].load(), 1u) << "shard " << id;
    }
    EXPECT_EQ(res.value(), expect);
  }
}

TEST(ShardRunnerTest, OneThreadRunsOnTheCallerInIdOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::uint32_t> order;
  auto res = RunShards<std::uint32_t>(
      6, 1, [&](std::uint32_t id) -> Result<std::uint32_t> {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(id);
        return id;
      });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

// A body that starts a shard run of its own gets its own threads.
TEST(ShardRunnerTest, NestedRunShardsCompletes) {
  auto res = RunShards<std::uint32_t>(
      4, 4, [](std::uint32_t outer) -> Result<std::uint32_t> {
        auto inner = RunShards<std::uint32_t>(
            5, 3, [outer](std::uint32_t id) -> Result<std::uint32_t> {
              return outer * 10 + id;
            });
        if (!inner.ok()) return inner.status();
        std::uint32_t sum = 0;
        for (const std::uint32_t v : inner.value()) sum += v;
        return sum;
      });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // Shard o sums o*10 + id over id = 0..4: 50*o + 10.
  EXPECT_EQ(res.value(), (std::vector<std::uint32_t>{10, 60, 110, 160}));
}

// Shards 1 and 3 fail with different statuses. Whichever thread finishes
// first, the run reports shard 1's; on success the values come back in
// shard-id order.
TEST(ShardRunnerTest, LowestFailingShardWinsAtAnyThreadCount) {
  auto body = [](std::uint32_t id) -> Result<std::uint32_t> {
    if (id == 1) return Status::MediaError("shard 1");
    if (id == 3) return Status::Internal("shard 3");
    return id * 10;
  };
  for (const std::uint32_t threads : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    auto res = RunShards<std::uint32_t>(5, threads, body);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kMediaError);
    EXPECT_EQ(res.status().message(), "shard 1");
  }

  auto ok = RunShards<std::uint32_t>(
      4, 4, [](std::uint32_t id) -> Result<std::uint32_t> { return id * 10; });
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value(), (std::vector<std::uint32_t>{0, 10, 20, 30}));
  EXPECT_FALSE(RunShards<std::uint32_t>(0, 1, body).ok());
}

}  // namespace
}  // namespace conzone
