// Tests for the FIO-like workload runner against the real ConZone device.
#include <gtest/gtest.h>

#include "core/device.hpp"
#include "workload/fio.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

ConZoneConfig SmallCfg() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  return cfg;
}

class FioRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = ConZoneDevice::Create(SmallCfg());
    ASSERT_TRUE(dev.ok());
    dev_ = std::move(dev).value();
  }
  std::unique_ptr<ConZoneDevice> dev_;
};

TEST_F(FioRunnerTest, IoCountStopsTheJob) {
  FioRunner fio(*dev_);
  JobSpec w;
  w.direction = IoDirection::kWrite;
  w.block_size = 128 * kKiB;
  w.region_size = 16 * kMiB;
  w.io_count = 10;
  auto r = fio.Run({w});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().total.ops, 10u);
  EXPECT_EQ(r.value().total.bytes, 10 * 128 * kKiB);
  EXPECT_EQ(r.value().latency.count(), 10u);
}

TEST_F(FioRunnerTest, RuntimeStopsTheJob) {
  FioRunner fio(*dev_);
  JobSpec w;
  w.direction = IoDirection::kWrite;
  w.block_size = 384 * kKiB;
  w.region_size = 16 * kMiB;
  w.runtime = SimDuration::Millis(20);
  auto r = fio.Run({w});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().total.ops, 0u);
  EXPECT_LE(r.value().end_time.ns(), SimDuration::Millis(25).ns() +
                                         SimDuration::Millis(20).ns());
}

TEST_F(FioRunnerTest, SequentialWritesAreZoneLegal) {
  // 48 KiB writes do not divide the zone size; the runner must clamp at
  // zone boundaries instead of issuing a crossing write.
  FioRunner fio(*dev_);
  JobSpec w;
  w.direction = IoDirection::kWrite;
  w.block_size = 48 * kKiB;
  w.region_size = 2 * 16 * kMiB;
  w.io_count = 684;  // 342 clamped IOs fill each 16 MiB zone exactly
  auto r = fio.Run({w});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(dev_->zones().Info(ZoneId{0}).state, ZoneState::kFull);
  EXPECT_EQ(dev_->zones().Info(ZoneId{1}).state, ZoneState::kFull);
}

TEST_F(FioRunnerTest, RandomReadsStayInRegion) {
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 16 * kMiB, 16 * kMiB, 512 * kKiB, &t).ok());
  FioRunner fio(*dev_);
  JobSpec rd;
  rd.direction = IoDirection::kRead;
  rd.pattern = IoPattern::kRandom;
  rd.block_size = 4096;
  rd.region_offset = 16 * kMiB;
  rd.region_size = 16 * kMiB;
  rd.io_count = 500;
  auto r = fio.Run({rd}, t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // any out-of-region read would fail
  EXPECT_EQ(r.value().total.ops, 500u);
}

TEST_F(FioRunnerTest, ZoneListConcatenatesZones) {
  SimTime t;
  FioRunner fio(*dev_);
  JobSpec w;
  w.direction = IoDirection::kWrite;
  w.block_size = 512 * kKiB;
  w.zone_list = {1, 3};
  w.io_count = 64;  // exactly two zones' worth
  auto r = fio.Run({w}, t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(dev_->zones().Info(ZoneId{1}).state, ZoneState::kFull);
  EXPECT_EQ(dev_->zones().Info(ZoneId{3}).state, ZoneState::kFull);
  EXPECT_EQ(dev_->zones().Info(ZoneId{2}).state, ZoneState::kEmpty);
}

TEST_F(FioRunnerTest, ZoneSpanLimitsAccessWindow) {
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, 2 * kMiB, 512 * kKiB, &t).ok());
  FioRunner fio(*dev_);
  JobSpec rd;
  rd.direction = IoDirection::kRead;
  rd.pattern = IoPattern::kRandom;
  rd.block_size = 4096;
  rd.zone_list = {0};
  rd.zone_span_bytes = 2 * kMiB;
  rd.io_count = 300;
  auto r = fio.Run({rd}, t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(FioRunnerTest, WrapWithResetRewritesZones) {
  FioRunner fio(*dev_);
  JobSpec w;
  w.direction = IoDirection::kWrite;
  w.block_size = 512 * kKiB;
  w.zone_list = {0};
  w.io_count = 80;  // 2.5 passes over one 16 MiB zone
  w.reset_zones_on_wrap = true;
  auto r = fio.Run({w});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(dev_->zones().Info(ZoneId{0}).resets, 2u);
}

TEST_F(FioRunnerTest, MultipleJobsInterleave) {
  FioRunner fio(*dev_);
  std::vector<JobSpec> jobs;
  for (int j = 0; j < 2; ++j) {
    JobSpec w;
    w.name = "j" + std::to_string(j);
    w.direction = IoDirection::kWrite;
    w.block_size = 384 * kKiB;
    w.zone_list = {static_cast<std::uint64_t>(j)};  // opposite buffers
    w.io_count = 20;
    jobs.push_back(w);
  }
  auto r = fio.Run(jobs);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().jobs.size(), 2u);
  // Concurrency: the two jobs' spans overlap rather than run back-to-back.
  const auto& a = r.value().jobs[0];
  const auto& b = r.value().jobs[1];
  EXPECT_LT(a.first_issue, b.last_completion);
  EXPECT_LT(b.first_issue, a.last_completion);
  const double serial =
      a.throughput.elapsed.seconds() + b.throughput.elapsed.seconds();
  EXPECT_LT(r.value().total.elapsed.seconds(), serial);
}

TEST_F(FioRunnerTest, OneEventPerChainStep) {
  // Each chain step is one event, and each chain ends with one event that
  // finds its job done: an error-free run executes ops + sum(iodepth).
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, 16 * kMiB, 512 * kKiB, &t).ok());
  JobSpec rd;
  rd.direction = IoDirection::kRead;
  rd.pattern = IoPattern::kRandom;
  rd.block_size = 4096;
  rd.region_size = 16 * kMiB;
  rd.io_count = 1300;
  rd.iodepth = 8;
  rd.seed = 3;
  JobSpec rd2 = rd;
  rd2.io_count = 800;
  rd2.iodepth = 4;
  rd2.seed = 5;
  JobSpec wr;
  wr.direction = IoDirection::kWrite;
  wr.block_size = 64 * kKiB;
  wr.region_offset = 32 * kMiB;
  wr.region_size = 16 * kMiB;
  wr.io_count = 200;
  wr.iodepth = 2;
  auto r = FioRunner(*dev_).Run({rd, rd2, wr}, t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().io_errors, 0u);
  EXPECT_EQ(r.value().total.ops, 2300u);
  EXPECT_EQ(r.value().events, 2300u + 8 + 4 + 2);
}

TEST_F(FioRunnerTest, ValidationRejectsBadSpecs) {
  FioRunner fio(*dev_);
  JobSpec w;  // empty region
  EXPECT_FALSE(fio.Run({w}).ok());
  w.region_size = 1 * kMiB;
  EXPECT_FALSE(fio.Run({w}).ok());  // no stop condition
  w.io_count = 1;
  w.block_size = 100;  // misaligned
  EXPECT_FALSE(fio.Run({w}).ok());
  w.block_size = 4096;
  w.region_offset = dev_->info().capacity_bytes;
  EXPECT_FALSE(fio.Run({w}).ok());  // beyond capacity
  JobSpec z;
  z.zone_list = {999};  // no such zone
  z.io_count = 1;
  EXPECT_FALSE(fio.Run({z}).ok());
}

TEST_F(FioRunnerTest, DeviceErrorsAbortTheRun) {
  FioRunner fio(*dev_);
  JobSpec rd;  // reading unwritten space fails inside the device
  rd.direction = IoDirection::kRead;
  rd.block_size = 4096;
  rd.region_size = 1 * kMiB;
  rd.io_count = 5;
  auto r = fio.Run({rd});
  EXPECT_FALSE(r.ok());
}

TEST_F(FioRunnerTest, PreconditionFillsAndFlushes) {
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, 16 * kMiB, 512 * kKiB, &t).ok());
  EXPECT_GT(t.ns(), 0u);
  EXPECT_EQ(dev_->zones().Info(ZoneId{0}).state, ZoneState::kFull);
  // Everything durable: no buffer-RAM reads afterwards.
  std::vector<std::uint64_t> got;
  auto r = TestRead(*dev_, 0, 16 * kMiB, t, &got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(dev_->stats().buffer_ram_reads, 0u);
}

// --- determinism & pipelining regressions ---

// Mixed random-read + sequential-write workload used by the determinism
// and iodepth tests below.
std::vector<JobSpec> MixedJobs(std::uint32_t iodepth) {
  JobSpec rd;
  rd.name = "randread";
  rd.pattern = IoPattern::kRandom;
  rd.direction = IoDirection::kRead;
  rd.block_size = 4096;
  rd.region_offset = 0;
  rd.region_size = 8 * kMiB;
  rd.io_count = 400;
  rd.seed = 7;
  rd.iodepth = iodepth;

  JobSpec wr;
  wr.name = "seqwrite";
  wr.pattern = IoPattern::kSequential;
  wr.direction = IoDirection::kWrite;
  wr.block_size = 4096;
  wr.region_offset = 8 * kMiB;
  wr.region_size = 8 * kMiB;
  wr.io_count = 300;
  wr.seed = 11;
  wr.iodepth = iodepth;
  return {rd, wr};
}

// Run MixedJobs at `iodepth` on a fresh device and return the result.
RunResult RunMixedOnFreshDevice(std::uint32_t iodepth) {
  auto dev = ConZoneDevice::Create(SmallCfg());
  EXPECT_TRUE(dev.ok());
  SimTime t;
  EXPECT_TRUE(
      FioRunner::Precondition(*dev.value(), 0, 8 * kMiB, 512 * kKiB, &t).ok());
  FioRunner fio(*dev.value());
  auto r = fio.Run(MixedJobs(iodepth), t);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.end_time.ns(), b.end_time.ns());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total.bytes, b.total.bytes);
  EXPECT_EQ(a.total.ops, b.total.ops);
  EXPECT_EQ(a.total.elapsed.ns(), b.total.elapsed.ns());
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean().ns(), b.latency.mean().ns());
  EXPECT_EQ(a.latency.min().ns(), b.latency.min().ns());
  EXPECT_EQ(a.latency.max().ns(), b.latency.max().ns());
  EXPECT_EQ(a.latency.Percentile(0.5).ns(), b.latency.Percentile(0.5).ns());
  EXPECT_EQ(a.latency.Percentile(0.99).ns(), b.latency.Percentile(0.99).ns());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].throughput.bytes, b.jobs[i].throughput.bytes);
    EXPECT_EQ(a.jobs[i].throughput.ops, b.jobs[i].throughput.ops);
    EXPECT_EQ(a.jobs[i].first_issue.ns(), b.jobs[i].first_issue.ns());
    EXPECT_EQ(a.jobs[i].last_completion.ns(), b.jobs[i].last_completion.ns());
  }
}

TEST(FioDeterminismTest, IdenticalRunsAreBitIdentical) {
  ExpectBitIdentical(RunMixedOnFreshDevice(1), RunMixedOnFreshDevice(1));
}

TEST(FioDeterminismTest, IdenticalPipelinedRunsAreBitIdentical) {
  ExpectBitIdentical(RunMixedOnFreshDevice(4), RunMixedOnFreshDevice(4));
}

TEST(FioDeterminismTest, IodepthMonotonicallyImprovesSimulatedIops) {
  double prev = 0.0;
  for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
    const RunResult r = RunMixedOnFreshDevice(depth);
    // More outstanding requests can only expose more device parallelism;
    // simulated throughput must never regress as iodepth grows.
    EXPECT_GE(r.Kiops(), prev) << "iodepth " << depth;
    prev = r.Kiops();
  }
}

TEST_F(FioRunnerTest, ThinkTimeSpacesRequests) {
  FioRunner fio(*dev_);
  JobSpec w;
  w.direction = IoDirection::kWrite;
  w.block_size = 4096;
  w.region_size = 1 * kMiB;
  w.io_count = 10;
  w.think_time = SimDuration::Millis(1);
  auto r = fio.Run({w});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().total.elapsed.ms(), 9.0);
}

}  // namespace
}  // namespace conzone
