// Bit-for-bit pin of the FIO runner's issue order.
//
// A recording wrapper sits between FioRunner and the device. It hashes
// every request the runner issues (kind, offset or zone, length and
// submit time) and then the request's completion time or status code.
// Each run also hashes the preconditioning end time and the RunResult:
// the step count, the error count, the end time, the totals, and per job
// the ops, bytes, last completion, latency mean and max, and first error.
// A change to when or in what order the runner issues IOs, or to how it
// counts them, moves the digest.
//
// The five runs cover the three device models and a host volume:
// ConZone with readers at two depths and two wrapping zone-list writers;
// ConZone with SLC program faults until it turns read-only, so the
// per-IO error path runs; Legacy with a random writer; FEMU with a
// wrapping zone-list writer; and a striped volume over two FEMU members
// with the FEMU mix.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "conzone/conzone.hpp"

#include "test_digest.hpp"

namespace conzone {
namespace {

/// Forwards to `inner` and digests every request FioRunner issues.
class RecordingDevice final : public StorageDevice {
 public:
  RecordingDevice(StorageDevice& inner, Digest& dg) : inner_(inner), dg_(dg) {}

  DeviceInfo info() const override { return inner_.info(); }
  Result<IoResult> Write(const IoRequest& req) override {
    AddRequest(1, req);
    return AddOutcome(inner_.Write(req));
  }
  Result<IoResult> Read(const IoRequest& req) override {
    AddRequest(2, req);
    return AddOutcome(inner_.Read(req));
  }
  Result<SimTime> ResetZone(ZoneId zone, SimTime now) override {
    for (std::uint64_t v : {std::uint64_t{3}, zone.value(), now.ns()}) dg_.Add(v);
    Result<SimTime> r = inner_.ResetZone(zone, now);
    dg_.Add(r);
    return r;
  }

 private:
  void AddRequest(std::uint64_t kind, const IoRequest& req) {
    for (std::uint64_t v : {kind, req.offset, req.len, req.now.ns()}) dg_.Add(v);
  }
  Result<IoResult> AddOutcome(Result<IoResult> r) {
    dg_.Add(r.ok() ? r.value().done.ns()
                   : 0xE000u + static_cast<std::uint64_t>(r.status().code()));
    return r;
  }

  StorageDevice& inner_;
  Digest& dg_;
};

JobSpec RandomReader(const char* name, std::uint64_t block, std::uint32_t iodepth,
                     std::uint64_t io_count, std::uint64_t region, std::uint64_t seed) {
  JobSpec j;
  j.name = name;
  j.pattern = IoPattern::kRandom;
  j.direction = IoDirection::kRead;
  j.block_size = block;
  j.region_size = region;
  j.io_count = io_count;
  j.iodepth = iodepth;
  j.seed = seed;
  return j;
}

/// The reader pair of runs 1, 3, 4 and 5 over the preconditioned `region`.
std::vector<JobSpec> Readers(std::uint64_t region) {
  return {RandomReader("rand4k", 4 * kKiB, 8, 1200, region, 3),
          RandomReader("rand16k", 16 * kKiB, 3, 500, region, 5)};
}

JobSpec ZoneWriter(const char* name, std::uint64_t block, std::vector<std::uint64_t> zones,
                   std::uint32_t iodepth, std::uint64_t io_count) {
  JobSpec j;
  j.name = name;
  j.direction = IoDirection::kWrite;
  j.block_size = block;
  j.zone_list = std::move(zones);
  j.reset_zones_on_wrap = true;
  j.io_count = io_count;
  j.iodepth = iodepth;
  return j;
}

void AddRun(Digest& dg, const RunResult& r) {
  for (std::uint64_t v : {r.events, r.io_errors, r.end_time.ns(), r.total.bytes, r.total.ops,
                          r.total.elapsed.ns()}) {
    dg.Add(v);
  }
  for (const JobResult& j : r.jobs) {
    for (std::uint64_t v :
         {j.throughput.ops, j.throughput.bytes, j.last_completion.ns(), j.latency.mean().ns(),
          j.latency.max().ns(), static_cast<std::uint64_t>(j.first_error.code())}) {
      dg.Add(v);
    }
  }
}

/// Preconditions [0, precondition_bytes) of `dev`, runs `jobs` from the
/// end of it through a RecordingDevice into `out`, and returns the digest.
std::uint64_t RunPinned(StorageDevice& dev, std::uint64_t precondition_bytes,
                        const std::vector<JobSpec>& jobs, RunResult& out) {
  Digest dg;
  SimTime t;
  const Status pre = FioRunner::Precondition(dev, 0, precondition_bytes, 512 * kKiB, &t);
  EXPECT_TRUE(pre.ok()) << pre.ToString();
  dg.Add(t.ns());
  RecordingDevice rec(dev, dg);
  auto r = FioRunner(rec).Run(jobs, t);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return 0;
  AddRun(dg, r.value());
  out = std::move(r).value();
  return dg.value();
}

ConZoneConfig SmallConZone() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  return cfg;
}

FlashGeometry SmallGeometry() {
  FlashGeometry geo;
  geo.blocks_per_chip = 20;
  geo.slc_blocks_per_chip = 4;
  return geo;
}

std::unique_ptr<StorageDevice> MakeFemu() {
  FemuConfig cfg;
  cfg.geometry = SmallGeometry();
  return std::move(FemuModelDevice::Create(cfg)).value();
}

/// The FEMU mix of runs 4 and 5: both readers over four preconditioned
/// zones and a 48 KiB writer that wraps its two zones twice.
std::uint64_t RunFemuMix(StorageDevice& dev) {
  const DeviceInfo di = dev.info();
  const std::uint64_t zs = di.zone_size_bytes;
  const std::uint64_t per_pass = 2 * ((zs + 48 * kKiB - 1) / (48 * kKiB));
  std::vector<JobSpec> jobs = Readers(4 * zs);
  jobs.push_back(ZoneWriter("zonewrite", 48 * kKiB, {di.num_zones - 1, di.num_zones - 3}, 2,
                            2 * per_pass + 50));
  RunResult r;
  const std::uint64_t digest = RunPinned(dev, 4 * zs, jobs, r);
  EXPECT_EQ(r.io_errors, 0u);
  EXPECT_EQ(r.total.ops, 1200 + 500 + 2 * per_pass + 50);
  return digest;
}

TEST(FioPathPinTest, ConZoneMixedDepthsBitForBit) {
  auto dev = ConZoneDevice::Create(SmallConZone());
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  const std::uint64_t zs = dev.value()->info().zone_size_bytes;
  std::vector<JobSpec> jobs = Readers(4 * zs);
  // 342 clamped 48 KiB writes fill one 16 MiB zone: the first writer
  // wraps its zone twice, the second its pair once.
  jobs.push_back(ZoneWriter("wrap1", 48 * kKiB, {6}, 1, 800));
  jobs.push_back(ZoneWriter("wrap2", 48 * kKiB, {9, 11}, 2, 800));
  RunResult r;
  const std::uint64_t dg = RunPinned(*dev.value(), 4 * zs, jobs, r);
  EXPECT_EQ(r.io_errors, 0u);
  EXPECT_EQ(r.events, 1200u + 500 + 800 + 800 + 8 + 3 + 1 + 2);
  EXPECT_EQ(dev.value()->zones().Info(ZoneId{6}).resets, 2u);
  EXPECT_EQ(dev.value()->zones().Info(ZoneId{9}).resets, 1u);
  EXPECT_EQ(dg, 0x1D5B60BF9266A1E2ull) << std::hex << dg;
}

TEST(FioPathPinTest, ConZoneReadOnlyRejectionBitForBit) {
  // Eight SLC blocks per chip (32 in all) put the floor of 16 healthy
  // spares a few hundred IOs away, so both writers run before it trips.
  ConZoneConfig cfg = SmallConZone();
  cfg.geometry.blocks_per_chip = 24;
  cfg.geometry.slc_blocks_per_chip = 8;
  cfg.fault.slc.program_fail = 0.02;
  cfg.fault.read_only_spare_floor_blocks = 16;
  auto dev = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  // Small writes force SLC staging, so program faults retire blocks
  // until the spare floor trips and each writer's next write is refused.
  const std::vector<JobSpec> jobs = {ZoneWriter("w4k", 4 * kKiB, {0, 1, 2, 3}, 2, 100000),
                                     ZoneWriter("w8k", 8 * kKiB, {8, 9}, 1, 100000)};
  RunResult r;
  const std::uint64_t dg = RunPinned(*dev.value(), 0, jobs, r);
  ASSERT_EQ(r.jobs.size(), 2u);
  for (const JobResult& j : r.jobs) {
    EXPECT_EQ(j.io_errors, 1u) << j.name;
    EXPECT_EQ(j.first_error.code(), StatusCode::kResourceExhausted) << j.name;
    EXPECT_LT(j.throughput.ops, 100000u) << j.name;
  }
  EXPECT_NE(r.jobs[0].last_completion, r.jobs[1].last_completion);
  // Each chain's last step is the refused write or a step that finds its
  // job stopped, so the step count is still ops + sum(iodepth).
  EXPECT_EQ(r.events, r.total.ops + 2 + 1);
  EXPECT_TRUE(dev.value()->read_only());
  EXPECT_EQ(dg, 0x5C443AAEBCBD84A7ull) << std::hex << dg;
}

TEST(FioPathPinTest, LegacyRandomWriterBitForBit) {
  LegacyConfig cfg;
  cfg.geometry = SmallGeometry();
  auto dev = LegacyDevice::Create(cfg);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  std::vector<JobSpec> jobs = Readers(32 * kMiB);
  JobSpec w;
  w.name = "randwrite";
  w.pattern = IoPattern::kRandom;
  w.direction = IoDirection::kWrite;
  w.block_size = 16 * kKiB;
  w.region_offset = 32 * kMiB;
  w.region_size = 16 * kMiB;
  w.io_count = 600;
  w.iodepth = 4;
  w.seed = 9;
  jobs.push_back(w);
  RunResult r;
  const std::uint64_t dg = RunPinned(*dev.value(), 32 * kMiB, jobs, r);
  EXPECT_EQ(r.io_errors, 0u);
  EXPECT_EQ(r.events, 1200u + 500 + 600 + 8 + 3 + 4);
  EXPECT_EQ(dg, 0x0D908BD472EE3C88ull) << std::hex << dg;
}

TEST(FioPathPinTest, FemuWrappingWriterBitForBit) {
  auto dev = MakeFemu();
  const std::uint64_t dg = RunFemuMix(*dev);
  EXPECT_EQ(dg, 0x5F463F2F6EA7E377ull) << std::hex << dg;
}

TEST(FioPathPinTest, StripedFemuVolumeBitForBit) {
  std::vector<std::unique_ptr<StorageDevice>> members;
  members.push_back(MakeFemu());
  members.push_back(MakeFemu());
  auto vol = StripedVolume::Create(std::move(members));
  ASSERT_TRUE(vol.ok()) << vol.status().ToString();
  const std::uint64_t dg = RunFemuMix(*vol.value());
  EXPECT_EQ(dg, 0x90B3A8CFF93BF479ull) << std::hex << dg;
}

}  // namespace
}  // namespace conzone
