// Tests for the conventional-zone extension (§III-E): in-place updates
// for the host's metadata region, coexisting with sequential zones on
// one device.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "core/device.hpp"
#include "workload/fio.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

ConZoneConfig ConvConfig(std::uint32_t conventional = 2) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 24;  // 4 SLC + 20 normal
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.num_conventional_zones = conventional;
  return cfg;
}

std::vector<std::uint64_t> Tokens(std::uint64_t first, std::uint64_t n,
                                  std::uint64_t salt) {
  std::vector<std::uint64_t> t(n);
  for (std::uint64_t i = 0; i < n; ++i) t[i] = (first + i) * 31337 + salt;
  return t;
}

class ConventionalZoneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = ConZoneDevice::Create(ConvConfig());
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    dev_ = std::move(dev).value();
    zb_ = dev_->info().zone_size_bytes;
  }

  void WriteAt(std::uint64_t off, std::uint64_t len, SimTime& t, std::uint64_t salt) {
    auto r = TestWrite(*dev_, off, len, t, Tokens(off / 4096, len / 4096, salt));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value();
  }

  void VerifyRead(std::uint64_t off, std::uint64_t len, SimTime& t,
                  std::uint64_t salt) {
    std::vector<std::uint64_t> got;
    auto r = TestRead(*dev_, off, len, t, &got);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value();
    EXPECT_EQ(got, Tokens(off / 4096, len / 4096, salt));
  }

  std::unique_ptr<ConZoneDevice> dev_;
  std::uint64_t zb_ = 0;
};

TEST_F(ConventionalZoneTest, PoolReservationShrinksSequentialZones) {
  // 20 normal superblocks; 2 conventional zones auto-size to
  // ceil(32 MiB / 15.75 MiB) + 2 = 5 superblocks -> 15 sequential zones.
  EXPECT_EQ(dev_->num_conventional_zones(), 2u);
  EXPECT_EQ(dev_->layout().num_zones(), 15u);
  EXPECT_EQ(dev_->info().num_zones, 17u);
}

TEST_F(ConventionalZoneTest, InPlaceUpdatesAllowed) {
  SimTime t;
  WriteAt(64 * kKiB, 16 * kKiB, t, 1);   // arbitrary offset: no write pointer
  VerifyRead(64 * kKiB, 16 * kKiB, t, 1);
  WriteAt(64 * kKiB, 16 * kKiB, t, 2);   // overwrite in place
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  t = f.value();
  VerifyRead(64 * kKiB, 16 * kKiB, t, 2);
  EXPECT_GT(dev_->stats().conventional_writes, 0u);
  EXPECT_GT(dev_->stats().conventional_overwrites, 0u);
}

TEST_F(ConventionalZoneTest, SequentialZonesKeepTheirRules) {
  SimTime t;
  const std::uint64_t seq0 = 2 * zb_;  // first sequential zone
  // Sequential zone still demands write-pointer order...
  EXPECT_FALSE(TestWrite(*dev_, seq0 + 8192, 4096, t).ok());
  ASSERT_TRUE(TestWrite(*dev_, seq0, 4096, t).ok());
  // ...while the conventional zone does not.
  EXPECT_TRUE(TestWrite(*dev_, 1 * zb_ + 512 * kKiB, 4096, t).ok());
}

TEST_F(ConventionalZoneTest, MixedTrafficKeepsIntegrity) {
  SimTime t;
  // Interleave metadata-style 4-16 KiB in-place updates with a
  // sequential zone fill, then verify both.
  std::map<std::uint64_t, std::uint64_t> meta;  // offset -> salt
  Rng rng(5);
  std::uint64_t seq_pos = 0;
  const std::uint64_t seq0 = 2 * zb_;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t off = rng.NextBelow(2 * zb_ / 4096) * 4096;
    WriteAt(off, 4096, t, static_cast<std::uint64_t>(i));
    meta[off] = static_cast<std::uint64_t>(i);
    if (seq_pos < zb_) {
      const std::uint64_t len = std::min<std::uint64_t>(96 * kKiB, zb_ - seq_pos);
      WriteAt(seq0 + seq_pos, len, t, 777);
      seq_pos += len;
    }
  }
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  t = f.value();
  for (const auto& [off, salt] : meta) VerifyRead(off, 4096, t, salt);
  VerifyRead(seq0, zb_, t, 777);
  EXPECT_EQ(dev_->stats().aggregates_zone, 1u);  // sequential zone aggregated
}

TEST_F(ConventionalZoneTest, ConventionalDataNeverAggregates) {
  SimTime t;
  for (std::uint64_t off = 0; off < zb_; off += 512 * kKiB) {
    WriteAt(off, 512 * kKiB, t, 9);
  }
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(dev_->mapping().Get(Lpn{0}).gran, MapGranularity::kPage);
  EXPECT_EQ(dev_->stats().aggregates_zone, 0u);
}

// A rewrite of a buffered slot can land in another write buffer than
// the older copy (the write does not continue that buffer's extent).
// The older copy must go to media first, so reads see the newer one.
TEST_F(ConventionalZoneTest, RewriteOfBufferedSlotReadsNewestCopy) {
  SimTime t;
  WriteAt(100 * 4096, 4096, t, /*salt=*/1);
  WriteAt(100 * 4096, 4096, t, /*salt=*/2);
  VerifyRead(100 * 4096, 4096, t, 2);
}

// The newer copy of LPN 100 joins the extent 98..99 while the older one
// sits alone in the other buffer; after a flush the newer copy wins.
TEST_F(ConventionalZoneTest, FlushKeepsNewestOfTwoBufferedCopies) {
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

TEST_F(ConventionalZoneTest, GcReclaimsThePoolUnderChurn) {
  SimTime t;
  // Rewrite the two conventional zones' space repeatedly at random: the
  // 5-superblock pool must be collected multiple times.
  Rng rng(11);
  for (int i = 0; i < 1200; ++i) {
    const std::uint64_t off = rng.NextBelow(2 * zb_ / (64 * kKiB)) * 64 * kKiB;
    WriteAt(off, 64 * kKiB, t, static_cast<std::uint64_t>(i));
  }
  EXPECT_GT(dev_->stats().conventional_gc_runs, 0u);
  EXPECT_GT(dev_->stats().conventional_gc_migrated, 0u);
}

TEST_F(ConventionalZoneTest, ResetDropsConventionalZone) {
  SimTime t;
  WriteAt(0, 256 * kKiB, t, 3);
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  t = f.value();
  auto r = dev_->ResetZone(ZoneId{0}, t);
  ASSERT_TRUE(r.ok());
  t = r.value();
  EXPECT_FALSE(TestRead(*dev_, 0, 4096, t).ok());
  WriteAt(0, 4096, t, 4);  // immediately rewritable
  VerifyRead(0, 4096, t, 4);
}

TEST_F(ConventionalZoneTest, FinishRejectedOnConventional) {
  SimTime t;
  EXPECT_EQ(dev_->FinishZone(ZoneId{0}, t).status().code(),
            StatusCode::kFailedPrecondition);
}

// The pool is derived from the zone count and must leave room for one
// sequential zone.
TEST(ConventionalZoneConfigTest, RejectsConventionalPoolThatDoesNotFit) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  // 2^32 - 2^26 zones of 16 MiB need exactly 2^32 superblocks, a count
  // that wraps to 0 in 32 bits.
  cfg.num_conventional_zones = 4227858432u;
  EXPECT_FALSE(ConZoneDevice::Create(cfg).ok());

  // The largest zone count that fits leaves at least one sequential
  // zone; one conventional zone more does not fit.
  std::uint32_t fits = 0;
  for (cfg.num_conventional_zones = 1; cfg.Validate().ok(); ++cfg.num_conventional_zones) {
    fits = cfg.num_conventional_zones;
  }
  ASSERT_GT(fits, 0u);
  cfg.num_conventional_zones = fits;
  auto dev = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  EXPECT_GE((*dev)->layout().num_zones(), 1u);
  cfg.num_conventional_zones = fits + 1;
  EXPECT_FALSE(ConZoneDevice::Create(cfg).ok());
}

TEST(ConventionalZoneConfigTest, FioRunnerDrivesMetadataWorkload) {
  auto dev = ConZoneDevice::Create(ConvConfig(1));
  ASSERT_TRUE(dev.ok());
  FioRunner fio(**dev);
  // Random in-place 4 KiB writes confined to the conventional zone — the
  // F2FS-metadata pattern the paper motivates.
  JobSpec w;
  w.direction = IoDirection::kWrite;
  w.pattern = IoPattern::kRandom;
  w.block_size = 4096;
  w.zone_list = {0};
  w.io_count = 500;
  auto r = fio.Run({w});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*dev)->stats().conventional_writes, 500u);
}

}  // namespace
}  // namespace conzone
