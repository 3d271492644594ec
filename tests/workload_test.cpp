// Tests for the FIO-like workload runner against the real ConZone device.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

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

// Zone-list jobs pass the same block-size checks as region jobs, and
// their span must be aligned and fit in one zone: a span past the zone
// end would write the next zone, which is not on the list.
TEST_F(FioRunnerTest, ValidationRejectsBadZoneListSpecs) {
  const std::uint64_t zs = dev_->info().zone_size_bytes;
  FioRunner fio(*dev_);
  JobSpec w;
  w.name = "zonewriter";
  w.direction = IoDirection::kWrite;
  w.block_size = 512 * kKiB;
  w.zone_list = {0};
  w.zone_span_bytes = 2 * zs;
  w.io_count = 2 * zs / w.block_size;
  auto too_wide = fio.Run({w});
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dev_->zones().Info(ZoneId{1}).state, ZoneState::kEmpty);

  w.zone_span_bytes = 1000;  // misaligned span
  EXPECT_EQ(fio.Run({w}).status().code(), StatusCode::kInvalidArgument);

  w.zone_span_bytes = 64 * kKiB;  // smaller than one block
  EXPECT_EQ(fio.Run({w}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dev_->zones().Info(ZoneId{0}).state, ZoneState::kEmpty);

  w.zone_span_bytes = 0;
  w.block_size = 1000;  // misaligned block: the runner rejects it, not the device
  auto misaligned = fio.Run({w});
  ASSERT_FALSE(misaligned.ok());
  EXPECT_EQ(misaligned.status().message(),
            "zonewriter: block size must be a multiple of 4096");
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

// --- issue order ---

// Reads of the first MiB complete 50 ns before they were submitted; all
// others complete 100 ns after. Logs which half each read hit and when
// it was submitted.
class SkewedDevice final : public StorageDevice {
 public:
  DeviceInfo info() const override {
    DeviceInfo di;
    di.name = "skewed";
    di.capacity_bytes = 2 * kMiB;
    return di;
  }
  Result<IoResult> Write(const IoRequest& req) override { return Read(req); }
  Result<IoResult> Read(const IoRequest& req) override {
    const bool early = req.offset < kMiB;
    issued.emplace_back(early ? 'E' : 'L', req.now.ns());
    IoResult res;
    res.done = early ? SimTime::FromNanos(req.now.ns() - 50) : req.now + SimDuration::Nanos(100);
    return res;
  }
  std::vector<std::pair<char, std::uint64_t>> issued;
};

// A chain whose IO completes before it was submitted steps again at the
// current time, after the steps already due then: submit times never go
// back, and steps due together run in the order they were armed. Such a
// completion counts as completing at once, so its latency is 0.
TEST(FioIssueOrderTest, CompletionsInThePastStepAfterDueChains) {
  SkewedDevice dev;
  JobSpec early;
  early.name = "early";
  early.region_size = 1 * kMiB;
  early.io_count = 5;
  early.iodepth = 2;
  JobSpec late = early;
  late.name = "late";
  late.region_offset = 1 * kMiB;
  late.io_count = 3;
  late.iodepth = 1;
  auto r = FioRunner(dev).Run({early, late}, SimTime::FromNanos(1000));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<std::pair<char, std::uint64_t>> want = {
      {'E', 1000}, {'E', 1000}, {'L', 1000}, {'E', 1000},
      {'E', 1000}, {'E', 1000}, {'L', 1100}, {'L', 1200}};
  EXPECT_EQ(dev.issued, want);
  EXPECT_TRUE(std::is_sorted(dev.issued.begin(), dev.issued.end(),
                             [](const auto& a, const auto& b) { return a.second < b.second; }));
  EXPECT_EQ(r.value().events, 8u + 2 + 1);
  EXPECT_EQ(r.value().end_time.ns(), 1300u);
  EXPECT_EQ(r.value().jobs[0].latency.max().ns(), 0u);
  EXPECT_EQ(r.value().latency.max().ns(), 100u);
}

}  // namespace
}  // namespace conzone
