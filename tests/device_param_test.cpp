// Parameterized whole-device sweeps: the full write→flush→read→reset
// cycle must hold across geometries (channel/chip counts, block sizes,
// media types, buffer pools, strategies) — the configuration space a
// ConZone user explores — plus bit-exact determinism of the simulation,
// and range checks that hold on every StorageDevice when offset + len
// wraps past 2^64.
#include <gtest/gtest.h>

#include "core/device.hpp"
#include "femu/femu_device.hpp"
#include "host/redundant_volume.hpp"
#include "host/striped_volume.hpp"
#include "legacy/legacy_device.hpp"
#include "workload/fio.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

struct GeometryCase {
  const char* name;
  std::uint32_t channels;
  std::uint32_t chips_per_channel;
  std::uint32_t pages_per_block;
  CellType cell;
  std::uint64_t program_unit;
  std::uint64_t zone_size;
  std::uint32_t num_buffers;
  L2pSearchStrategy strategy;
};

// Without this, gtest prints a case as its raw bytes, which include the
// address of `name`. Address randomisation then changes the test names
// ctest discovers from build to build.
void PrintTo(const GeometryCase& p, std::ostream* os) { *os << p.name; }

ConZoneConfig MakeConfig(const GeometryCase& p) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.channels = p.channels;
  cfg.geometry.chips_per_channel = p.chips_per_channel;
  cfg.geometry.pages_per_block = p.pages_per_block;
  cfg.geometry.normal_cell = p.cell;
  cfg.geometry.program_unit = p.program_unit;
  cfg.geometry.blocks_per_chip = 16;
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.zone_size_bytes = p.zone_size;
  cfg.buffers.num_buffers = p.num_buffers;
  cfg.translator.strategy = p.strategy;
  return cfg;
}

class DeviceGeometrySweep : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(DeviceGeometrySweep, FullCycleRoundTrips) {
  auto devr = ConZoneDevice::Create(MakeConfig(GetParam()));
  ASSERT_TRUE(devr.ok()) << devr.status().ToString();
  ConZoneDevice& dev = **devr;
  const std::uint64_t zb = dev.info().zone_size_bytes;
  ASSERT_GE(dev.info().num_zones, 2u);

  // Fill zone 0 with a mix of large and small writes (provoking both the
  // direct and the SLC-staged flush paths), verify, reset, rewrite.
  SimTime t;
  std::vector<std::uint64_t> tokens;
  std::uint64_t pos = 0;
  Rng rng(GetParam().zone_size);
  while (pos < zb) {
    const std::uint64_t len =
        std::min<std::uint64_t>((1 + rng.NextBelow(64)) * 4096, zb - pos);
    std::vector<std::uint64_t> tk(len / 4096);
    for (auto& v : tk) v = pos / 4096 + (&v - tk.data()) + 1000000;
    auto r = TestWrite(dev, pos, len, t, tk);
    ASSERT_TRUE(r.ok()) << "pos " << pos << ": " << r.status().ToString();
    t = r.value();
    tokens.insert(tokens.end(), tk.begin(), tk.end());
    pos += len;
  }
  EXPECT_EQ(dev.zones().Info(ZoneId{0}).state, ZoneState::kFull);

  std::vector<std::uint64_t> got;
  auto rr = TestRead(dev, 0, zb, t, &got);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(got, tokens);

  auto rs = dev.ResetZone(ZoneId{0}, rr.value());
  ASSERT_TRUE(rs.ok());
  auto w2 = TestWrite(dev, 0, 4096, rs.value());
  ASSERT_TRUE(w2.ok());
  std::vector<std::uint64_t> got2;
  ASSERT_TRUE(TestRead(dev, 0, 4096, w2.value(), &got2).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DeviceGeometrySweep,
    ::testing::Values(
        // Paper configuration, all three strategies.
        GeometryCase{"paper_bitmap", 2, 2, 252, CellType::kTlc, 96 * kKiB, 16 * kMiB,
                     2, L2pSearchStrategy::kBitmap},
        GeometryCase{"paper_multiple", 2, 2, 252, CellType::kTlc, 96 * kKiB, 16 * kMiB,
                     2, L2pSearchStrategy::kMultiple},
        GeometryCase{"paper_pinned", 2, 2, 252, CellType::kTlc, 96 * kKiB, 16 * kMiB,
                     2, L2pSearchStrategy::kPinned},
        // QLC with its 64 KiB one-shot unit (no alignment patch).
        GeometryCase{"qlc", 2, 2, 256, CellType::kQlc, 64 * kKiB, 16 * kMiB, 2,
                     L2pSearchStrategy::kBitmap},
        // Wider and narrower topologies.
        GeometryCase{"one_channel", 1, 2, 252, CellType::kTlc, 96 * kKiB, 8 * kMiB, 2,
                     L2pSearchStrategy::kBitmap},
        GeometryCase{"four_channels", 4, 2, 252, CellType::kTlc, 96 * kKiB, 32 * kMiB,
                     2, L2pSearchStrategy::kBitmap},
        GeometryCase{"single_chip", 1, 1, 252, CellType::kTlc, 96 * kKiB, 4 * kMiB, 1,
                     L2pSearchStrategy::kBitmap},
        // Tiny buffers stress the premature-flush path on every write.
        GeometryCase{"one_buffer", 2, 2, 252, CellType::kTlc, 96 * kKiB, 16 * kMiB, 1,
                     L2pSearchStrategy::kMultiple},
        GeometryCase{"six_buffers", 2, 2, 252, CellType::kTlc, 96 * kKiB, 16 * kMiB, 6,
                     L2pSearchStrategy::kBitmap}),
    [](const auto& info) { return std::string(info.param.name); });

// --- determinism ---

struct DeterminismCase {
  const char* name;
  IoPattern pattern;
  IoDirection direction;
  std::uint64_t block;
};

void PrintTo(const DeterminismCase& c, std::ostream* os) { *os << c.name; }

class DeterminismTest : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(DeterminismTest, IdenticalRunsProduceIdenticalTimelines) {
  auto run = [&]() -> std::pair<double, std::uint64_t> {
    ConZoneConfig cfg = ConZoneConfig::PaperConfig();
    cfg.geometry.blocks_per_chip = 16;
    cfg.geometry.slc_blocks_per_chip = 4;
    auto dev = ConZoneDevice::Create(cfg);
    EXPECT_TRUE(dev.ok());
    SimTime t;
    if (GetParam().direction == IoDirection::kRead) {
      EXPECT_TRUE(FioRunner::Precondition(**dev, 0, 32 * kMiB, 512 * kKiB, &t).ok());
    }
    FioRunner fio(**dev);
    JobSpec job;
    job.pattern = GetParam().pattern;
    job.direction = GetParam().direction;
    job.block_size = GetParam().block;
    job.region_size = 32 * kMiB;
    job.io_count = 300;
    job.reset_zones_on_wrap = true;  // sequential writes may lap the region
    job.seed = 12345;
    auto r = fio.Run({job}, t);
    EXPECT_TRUE(r.ok());
    return {r.value().latency.mean().us(), r.value().end_time.ns()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DeterminismTest,
    ::testing::Values(
        DeterminismCase{"seq_write", IoPattern::kSequential, IoDirection::kWrite,
                        512 * kKiB},
        DeterminismCase{"rand_write_small", IoPattern::kSequential, IoDirection::kWrite,
                        48 * kKiB},
        DeterminismCase{"seq_read", IoPattern::kSequential, IoDirection::kRead,
                        512 * kKiB},
        DeterminismCase{"rand_read", IoPattern::kRandom, IoDirection::kRead, 4096}),
    [](const auto& info) { return std::string(info.param.name); });

// --- ranges whose end wraps past 2^64 ---

struct DeviceCase {
  const char* name;
  std::unique_ptr<StorageDevice> (*make)();
};

void PrintTo(const DeviceCase& c, std::ostream* os) { *os << c.name; }

FlashGeometry SmallGeometry() {
  FlashGeometry geo;
  geo.blocks_per_chip = 20;
  geo.slc_blocks_per_chip = 4;
  return geo;
}

std::unique_ptr<StorageDevice> MakeConZone() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  return std::move(ConZoneDevice::Create(cfg)).value();
}

std::unique_ptr<StorageDevice> MakeLegacy() {
  LegacyConfig cfg;
  cfg.geometry = SmallGeometry();
  return std::move(LegacyDevice::Create(cfg)).value();
}

std::unique_ptr<StorageDevice> MakeFemu() {
  FemuConfig cfg;
  cfg.geometry = SmallGeometry();
  return std::move(FemuModelDevice::Create(cfg)).value();
}

std::vector<std::unique_ptr<StorageDevice>> TwoFemus() {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  devs.push_back(MakeFemu());
  devs.push_back(MakeFemu());
  return devs;
}

std::unique_ptr<StorageDevice> MakeStriped() {
  return std::move(StripedVolume::Create(TwoFemus(), {})).value();
}

std::unique_ptr<StorageDevice> MakeMirror() {
  return std::move(RedundantVolume::Create(TwoFemus(), {})).value();
}

class WrappingRangeTest : public ::testing::TestWithParam<DeviceCase> {};

TEST_P(WrappingRangeTest, RangeEndingPast2To64IsRejected) {
  std::unique_ptr<StorageDevice> dev = GetParam().make();
  const std::uint64_t slot = dev->info().io_alignment;
  // Two slots at offset 0 put zone 0's write pointer at 2 * slot.
  auto w = TestWrite(*dev, 0, 2 * slot, SimTime{});
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const SimTime t = w.value();
  const StatsSnapshot before = dev->Stats();
  auto range_error = [](const Status& st) {
    return st.code() == StatusCode::kOutOfRange ||
           st.code() == StatusCode::kInvalidArgument;
  };
  // [2^64 - slot, 2^64 + slot): the end wraps to `slot`.
  const std::uint64_t near_top = 0 - slot;
  auto rd = dev->Read(IoRequest{near_top, 2 * slot, t, {}, /*want_tokens=*/true});
  ASSERT_FALSE(rd.ok()) << "returned " << rd.value().tokens.size() << " tokens";
  EXPECT_TRUE(range_error(rd.status())) << rd.status().ToString();
  // At the write pointer, a length whose end wraps to `slot`.
  auto wr = dev->Write(IoRequest{2 * slot, near_top, t});
  ASSERT_FALSE(wr.ok());
  EXPECT_TRUE(range_error(wr.status())) << wr.status().ToString();
  EXPECT_EQ(dev->Stats(), before);
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, WrappingRangeTest,
    ::testing::Values(DeviceCase{"conzone", MakeConZone}, DeviceCase{"legacy", MakeLegacy},
                      DeviceCase{"femu", MakeFemu}, DeviceCase{"striped2", MakeStriped},
                      DeviceCase{"mirror2", MakeMirror}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace conzone
