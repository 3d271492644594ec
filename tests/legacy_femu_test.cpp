// Tests for the two baseline devices: the Legacy traditional FTL and the
// FEMU behavioral model.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "femu/femu_device.hpp"
#include "legacy/legacy_device.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

LegacyConfig SmallLegacyCfg() {
  LegacyConfig cfg;
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  return cfg;
}

std::vector<std::uint64_t> Tokens(std::uint64_t first, std::uint64_t n,
                                  std::uint64_t salt = 0) {
  std::vector<std::uint64_t> t(n);
  for (std::uint64_t i = 0; i < n; ++i) t[i] = (first + i) * 7919 + salt;
  return t;
}

class LegacyDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = LegacyDevice::Create(SmallLegacyCfg());
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    dev_ = std::move(dev).value();
  }

  void WriteAt(std::uint64_t off, std::uint64_t len, SimTime& t, std::uint64_t salt = 0) {
    auto r = TestWrite(*dev_, off, len, t, Tokens(off / 4096, len / 4096, salt));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value();
  }

  void VerifyRead(std::uint64_t off, std::uint64_t len, SimTime& t,
                  std::uint64_t salt = 0) {
    std::vector<std::uint64_t> got;
    auto r = TestRead(*dev_, off, len, t, &got);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value();
    EXPECT_EQ(got, Tokens(off / 4096, len / 4096, salt));
  }

  std::unique_ptr<LegacyDevice> dev_;
};

TEST_F(LegacyDeviceTest, InfoExposesOverProvisionedCapacity) {
  const DeviceInfo di = dev_->info();
  EXPECT_EQ(di.zone_size_bytes, 0u);  // conventional device
  EXPECT_LT(di.capacity_bytes, dev_->config().geometry.NormalRegionBytes());
  EXPECT_GT(di.capacity_bytes, 0u);
}

TEST_F(LegacyDeviceTest, SequentialWriteReadRoundTrip) {
  SimTime t;
  WriteAt(0, 4 * kMiB, t);
  VerifyRead(0, 4 * kMiB, t);
}

TEST_F(LegacyDeviceTest, InPlaceUpdateInvalidatesOldCopy) {
  SimTime t;
  WriteAt(0, 512 * kKiB, t, 1);
  auto f1 = dev_->Flush(t);
  ASSERT_TRUE(f1.ok());
  t = f1.value();
  WriteAt(0, 512 * kKiB, t, 2);  // overwrite — legal on Legacy
  auto f2 = dev_->Flush(t);
  ASSERT_TRUE(f2.ok());
  t = f2.value();
  VerifyRead(0, 512 * kKiB, t, 2);
  EXPECT_GT(dev_->stats().overwrites, 0u);
}

// Legacy twins of ConventionalZoneTest's buffered-rewrite tests: at
// most one buffered copy of an LPN, and the newest one wins.
TEST_F(LegacyDeviceTest, RewriteOfBufferedSlotReadsNewestCopy) {
  SimTime t;
  WriteAt(100 * 4096, 4096, t, /*salt=*/1);
  WriteAt(100 * 4096, 4096, t, /*salt=*/2);
  VerifyRead(100 * 4096, 4096, t, 2);
}

TEST_F(LegacyDeviceTest, FlushKeepsNewestOfTwoBufferedCopies) {
  SimTime t;
  WriteAt(98 * 4096, 4096, t, /*salt=*/1);
  WriteAt(100 * 4096, 4096, t, /*salt=*/1);
  WriteAt(99 * 4096, 4096, t, /*salt=*/2);
  WriteAt(100 * 4096, 4096, t, /*salt=*/2);
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  t = f.value();
  VerifyRead(100 * 4096, 4096, t, 2);
}

TEST_F(LegacyDeviceTest, RandomSmallWritesLandInSlcAndReadBack) {
  SimTime t;
  // Non-contiguous 4 KiB writes break the aggregation stream; most land
  // in SLC after premature flushes.
  for (std::uint64_t i = 0; i < 32; ++i) {
    WriteAt((i * 37 % 64) * 64 * kKiB, 4096, t, 3);
  }
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  t = f.value();
  EXPECT_GT(dev_->media_counters().slots_programmed_slc, 0u);
  for (std::uint64_t i = 0; i < 32; ++i) {
    VerifyRead((i * 37 % 64) * 64 * kKiB, 4096, t, 3);
  }
}

TEST_F(LegacyDeviceTest, GcMigratesLiveDataUnderRandomOverwrites) {
  SimTime t;
  // Random overwrites leave superblocks partially valid, so device-side
  // GC must move live data before erasing (Fig. 1 E.1 — the lifetime
  // cost the zone abstraction removes).
  const std::uint64_t region = 64 * kMiB;
  const std::uint64_t block = 512 * kKiB;
  std::map<std::uint64_t, std::uint64_t> last_salt;
  Rng rng(42);
  for (int i = 0; i < 900; ++i) {
    const std::uint64_t off = rng.NextBelow(region / block) * block;
    WriteAt(off, block, t, static_cast<std::uint64_t>(i));
    last_salt[off] = static_cast<std::uint64_t>(i);
  }
  EXPECT_GT(dev_->stats().gc_runs, 0u);
  EXPECT_GT(dev_->stats().gc_slots_migrated, 0u);
  // Every surviving version reads back intact.
  for (const auto& [off, salt] : last_salt) VerifyRead(off, block, t, salt);
}

TEST_F(LegacyDeviceTest, CountsHostFlushes) {
  SimTime t;
  WriteAt(0, 64 * kKiB, t);
  for (int i = 0; i < 3; ++i) {
    auto f = dev_->Flush(t);
    ASSERT_TRUE(f.ok());
    t = f.value();
  }
  EXPECT_EQ(dev_->Stats().host_flushes, 3u);
  EXPECT_EQ(dev_->Stats().buffer_flushes, 1u);  // only the first had data
}

TEST_F(LegacyDeviceTest, ReadOfUnwrittenFails) {
  SimTime t;
  auto r = TestRead(*dev_, 0, 4096, t);
  EXPECT_FALSE(r.ok());
}

TEST_F(LegacyDeviceTest, AlignmentEnforced) {
  SimTime t;
  EXPECT_FALSE(TestWrite(*dev_, 100, 4096, t).ok());
  EXPECT_FALSE(TestWrite(*dev_, 0, 100, t).ok());
  EXPECT_FALSE(TestWrite(*dev_, dev_->info().capacity_bytes, 4096, t).ok());
}

TEST_F(LegacyDeviceTest, PrefetchServesSequentialReads) {
  SimTime t;
  WriteAt(0, 8 * kMiB, t);
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  t = f.value();
  dev_->ResetStats();
  VerifyRead(0, 8 * kMiB, t);
  // 2048 translations; the 1023-entry prefetch window keeps misses to a
  // handful per map page.
  EXPECT_LT(dev_->translator().stats().MissRate(), 0.01);
}

// --- FEMU model ---

class FemuDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = FemuModelDevice::Create(FemuConfig{});
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    dev_ = std::move(dev).value();
  }
  std::unique_ptr<FemuModelDevice> dev_;
};

TEST_F(FemuDeviceTest, InfoUsesNaturalZoneSize) {
  const DeviceInfo di = dev_->info();
  EXPECT_EQ(di.zone_size_bytes, 16128 * kKiB);  // no SLC patching in FEMU
  EXPECT_EQ(di.num_zones, 96u);
}

TEST_F(FemuDeviceTest, WriteReadRoundTrip) {
  SimTime t;
  auto w = TestWrite(*dev_, 0, 1 * kMiB, t, Tokens(0, 256));
  ASSERT_TRUE(w.ok());
  std::vector<std::uint64_t> got;
  auto r = TestRead(*dev_, 0, 1 * kMiB, w.value(), &got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(got, Tokens(0, 256));
}

TEST_F(FemuDeviceTest, ZoneSemanticsEnforced) {
  SimTime t;
  ASSERT_TRUE(TestWrite(*dev_, 0, 4096, t).ok());
  EXPECT_FALSE(TestWrite(*dev_, 8192, 4096, t).ok());         // skips wp
  EXPECT_FALSE(TestRead(*dev_, 8192, 4096, t).ok());          // beyond wp
  ASSERT_TRUE(dev_->ResetZone(ZoneId{0}, t).ok());
  EXPECT_FALSE(TestRead(*dev_, 0, 4096, t).ok());              // reset zone
  EXPECT_TRUE(TestWrite(*dev_, 0, 4096, t).ok());              // wp rewound
}

TEST_F(FemuDeviceTest, CountsHostFlushesAndZoneResets) {
  SimTime t;
  t = TestWrite(*dev_, 0, 64 * kKiB, t).value();
  t = dev_->Flush(t).value();
  t = dev_->Flush(t).value();
  ASSERT_TRUE(dev_->ResetZone(ZoneId{0}, t).ok());
  ASSERT_TRUE(dev_->ResetZone(ZoneId{1}, t).ok());
  EXPECT_FALSE(dev_->ResetZone(ZoneId{1000}, t).ok());  // not counted
  const StatsSnapshot s = dev_->Stats();
  EXPECT_EQ(s.host_flushes, 2u);
  EXPECT_EQ(s.zone_resets, 2u);
}

TEST_F(FemuDeviceTest, KvmJitterDominatesSmallReads) {
  SimTime t;
  t = TestWrite(*dev_, 0, 1 * kMiB, t).value();
  LatencyHistogram lat;
  SimTime now = t + SimDuration::Millis(10);
  for (int i = 0; i < 200; ++i) {
    const SimTime end = TestRead(*dev_, 0, 4096, now).value();
    lat.Record(end - now);
    now = end;
  }
  // Base cost is overhead(25) + sense(32); jitter adds U(20,80) so the
  // mean sits near 107us and the spread is tens of microseconds — the
  // §IV-B "indispensable latency fluctuations".
  EXPECT_GT(lat.mean().us(), 85.0);
  EXPECT_GT(lat.max().us() - lat.min().us(), 30.0);
}

TEST_F(FemuDeviceTest, DeterministicAcrossRuns) {
  auto dev2 = FemuModelDevice::Create(FemuConfig{});
  ASSERT_TRUE(dev2.ok());
  SimTime a, b;
  a = TestWrite(*dev_, 0, 64 * kKiB, a).value();
  b = TestWrite(**dev2, 0, 64 * kKiB, b).value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(TestRead(*dev_, 0, 64 * kKiB, a).value(), TestRead(**dev2, 0, 64 * kKiB, b).value());
}

TEST_F(FemuDeviceTest, SequentialReadsSerializePages) {
  SimTime t;
  t = TestWrite(*dev_, 0, 1 * kMiB, t).value();
  const SimTime start = t + SimDuration::Millis(5);
  const SimTime small = TestRead(*dev_, 0, 16 * kKiB, start).value();
  const SimTime big = TestRead(*dev_, 0, 512 * kKiB, small).value();
  // 32 pages serially (sense + jitter each) dwarf a single page read.
  EXPECT_GT((big - small).us(), 10.0 * (small - start).us());
}

}  // namespace
}  // namespace conzone
