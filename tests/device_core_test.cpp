// End-to-end tests of ConZoneDevice: the write path (buffering, premature
// flush, SLC staging, fold-back, the alignment patch), the read path
// (buffer hits, hybrid translation), the erase path (zone reset), and the
// statistics the paper's experiments rely on.
#include <gtest/gtest.h>

#include "core/device.hpp"
#include "workload/fio.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

ConZoneConfig SmallConfig() {
  // Paper geometry shrunk for fast tests: 2ch x 2chips, TLC, 96 KiB
  // units, 16 MiB zones with a 256 KiB SLC patch — but fewer blocks.
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;  // 4 SLC + 16 normal => 16 zones
  cfg.geometry.slc_blocks_per_chip = 4;
  return cfg;
}

std::vector<std::uint64_t> Tokens(std::uint64_t first_lpn, std::uint64_t count,
                                  std::uint64_t salt = 0) {
  std::vector<std::uint64_t> t(count);
  for (std::uint64_t i = 0; i < count; ++i) t[i] = (first_lpn + i) * 1000003 + salt;
  return t;
}

class ConZoneDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = ConZoneDevice::Create(SmallConfig());
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    dev_ = std::move(dev).value();
    zone_bytes_ = dev_->config().zone_size_bytes;
  }

  /// Write with integrity tokens and verify a later read returns them.
  void WriteAt(std::uint64_t off, std::uint64_t len, SimTime& t, std::uint64_t salt = 0) {
    auto tokens = Tokens(off / 4096, len / 4096, salt);
    auto r = TestWrite(*dev_, off, len, t, tokens);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value();
  }

  void VerifyRead(std::uint64_t off, std::uint64_t len, SimTime& t,
                  std::uint64_t salt = 0) {
    std::vector<std::uint64_t> got;
    auto r = TestRead(*dev_, off, len, t, &got);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value();
    auto want = Tokens(off / 4096, len / 4096, salt);
    ASSERT_EQ(got, want) << "payload mismatch at offset " << off;
  }

  std::unique_ptr<ConZoneDevice> dev_;
  std::uint64_t zone_bytes_ = 0;
};

TEST_F(ConZoneDeviceTest, InfoMatchesConfig) {
  const DeviceInfo di = dev_->info();
  EXPECT_EQ(di.zone_size_bytes, 16 * kMiB);
  EXPECT_EQ(di.num_zones, 16u);
  EXPECT_EQ(di.capacity_bytes, 16 * 16 * kMiB);
  EXPECT_EQ(di.io_alignment, 4096u);
}

TEST_F(ConZoneDeviceTest, SmallWriteStaysInBufferAndReadsBack) {
  SimTime t;
  WriteAt(0, 8 * 4096, t);
  // Nothing flushed yet: all data still in the volatile buffer.
  EXPECT_EQ(dev_->stats().flushes, 0u);
  EXPECT_EQ(dev_->media_counters().TotalSlotsProgrammed(), 0u);
  VerifyRead(0, 8 * 4096, t);
  EXPECT_EQ(dev_->stats().buffer_ram_reads, 8u);
}

TEST_F(ConZoneDeviceTest, FullBufferFlushProgramsSuperpage) {
  SimTime t;
  const std::uint64_t superpage = dev_->config().geometry.SuperpageBytes();
  WriteAt(0, superpage, t);
  EXPECT_EQ(dev_->stats().flushes, 1u);
  // A full superpage goes straight to normal blocks: no SLC staging.
  EXPECT_EQ(dev_->stats().premature_flushes, 0u);
  EXPECT_EQ(dev_->media_counters().slots_programmed_slc, 0u);
  EXPECT_EQ(dev_->media_counters().slots_programmed_normal, superpage / 4096);
  VerifyRead(0, superpage, t);
}

TEST_F(ConZoneDeviceTest, PrematureFlushStagesToSlc) {
  SimTime t;
  // 48 KiB into zone 0, then a write to zone 2 (same buffer, 2 buffers:
  // zones 0 and 2 are both even) forces a premature flush.
  WriteAt(0, 48 * kKiB, t);
  WriteAt(2 * zone_bytes_, 4096, t);
  EXPECT_EQ(dev_->stats().conflict_flushes, 1u);
  EXPECT_EQ(dev_->stats().premature_flushes, 1u);
  // 48 KiB < 96 KiB program unit: all 12 slots partial-programmed to SLC.
  EXPECT_EQ(dev_->media_counters().slots_programmed_slc, 12u);
  EXPECT_EQ(dev_->media_counters().slots_programmed_normal, 0u);
  VerifyRead(0, 48 * kKiB, t);
}

TEST_F(ConZoneDeviceTest, FoldReadsBackSlcAndProgramsNormal) {
  SimTime t;
  WriteAt(0, 48 * kKiB, t);                    // zone 0, buffered
  WriteAt(2 * zone_bytes_, 4096, t);           // conflict: 48 KiB staged to SLC
  WriteAt(48 * kKiB, 48 * kKiB, t);            // zone 0 again: 48 staged + 48 new
  WriteAt(2 * zone_bytes_ + 4096, 4096, t);    // conflict: fold 96 KiB to normal
  EXPECT_EQ(dev_->stats().folds, 1u);
  EXPECT_EQ(dev_->stats().fold_slots_read, 12u);  // the staged 48 KiB
  EXPECT_EQ(dev_->media_counters().slots_programmed_normal, 24u);  // one unit
  VerifyRead(0, 96 * kKiB, t);
}

TEST_F(ConZoneDeviceTest, FullZoneWriteAggregatesAndPatches) {
  SimTime t;
  // Fill zone 0 completely with 512 KiB writes.
  for (std::uint64_t off = 0; off < zone_bytes_; off += 512 * kKiB) {
    WriteAt(off, 512 * kKiB, t);
  }
  EXPECT_EQ(dev_->zones().Info(ZoneId{0}).state, ZoneState::kFull);
  // The 256 KiB tail beyond the 15.75 MiB reserved capacity went to SLC
  // as one contiguous patch run (§III-E).
  EXPECT_EQ(dev_->stats().patch_runs, 1u);
  const std::uint64_t patch_slots = dev_->layout().patch_bytes() / 4096;
  EXPECT_EQ(dev_->media_counters().slots_programmed_slc, patch_slots);
  // Zone-level aggregation happened (Fig. 5): one zone aggregate stamped.
  EXPECT_EQ(dev_->stats().aggregates_zone, 1u);
  EXPECT_EQ(dev_->mapping().Get(Lpn{0}).gran, MapGranularity::kZone);
  // Reads across the whole zone (including the patch) verify.
  VerifyRead(0, zone_bytes_, t);
}

TEST_F(ConZoneDeviceTest, ChunkAggregationHappensAsChunksComplete) {
  SimTime t;
  // Write 8.25 MiB = 22 full superpages, so flushes land exactly on the
  // 384 KiB buffer boundary and the first two 4 MiB chunks are durable in
  // the normal region.
  for (std::uint64_t off = 0; off < 8448 * kKiB; off += 384 * kKiB) {
    WriteAt(off, 384 * kKiB, t);
  }
  EXPECT_GE(dev_->stats().aggregates_chunk, 2u);
  EXPECT_EQ(dev_->mapping().Get(Lpn{0}).gran, MapGranularity::kChunk);
  EXPECT_EQ(dev_->mapping().Get(Lpn{1024}).gran, MapGranularity::kChunk);
  EXPECT_EQ(dev_->mapping().Get(Lpn{2048}).gran, MapGranularity::kPage);
}

TEST_F(ConZoneDeviceTest, ChunkTailStagedInSlcBlocksAggregation) {
  SimTime t;
  // 8 MiB written but the last 128 KiB (8 MiB % 384 KiB) is still
  // buffered; an explicit flush stages it to SLC — so chunk 1 is NOT
  // physically contiguous and must stay page-mapped (§III-C: "data
  // temporarily written to SLC cannot be aggregated").
  for (std::uint64_t off = 0; off < 8 * kMiB; off += 512 * kKiB) {
    WriteAt(off, 512 * kKiB, t);
  }
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(dev_->mapping().Get(Lpn{0}).gran, MapGranularity::kChunk);
  EXPECT_EQ(dev_->mapping().Get(Lpn{1024}).gran, MapGranularity::kPage);
}

TEST_F(ConZoneDeviceTest, ZoneResetErasesAndUnmaps) {
  SimTime t;
  // Zone 0 is full, with its patch in SLC. Zone 1 holds one normal unit
  // and a flushed SLC-staged tail.
  for (std::uint64_t off = 0; off < zone_bytes_; off += 512 * kKiB) {
    WriteAt(off, 512 * kKiB, t);
  }
  WriteAt(zone_bytes_, 140 * kKiB, t);
  t = dev_->Flush(t).value();

  const FlashGeometry& geo = dev_->config().geometry;
  const std::uint64_t lpns = zone_bytes_ / 4096;
  auto slc_valid = [&] {
    std::uint64_t v = 0;
    for (std::uint64_t b = 0; b < geo.TotalBlocks(); ++b) {
      if (geo.IsSlcBlock(BlockId{b})) v += dev_->array().ValidSlots(BlockId{b});
    }
    return v;
  };
  for (const std::uint64_t z : {0u, 1u}) {
    std::uint64_t slc_resident = 0;
    for (std::uint64_t i = 0; i < lpns; ++i) {
      const MapEntry e = dev_->mapping().Get(Lpn{z * lpns + i});
      if (e.mapped() && geo.IsSlcBlock(geo.BlockOfSlot(e.ppn))) ++slc_resident;
    }
    ASSERT_GT(slc_resident, 0u) << "zone " << z;
    const std::uint64_t slc_before = slc_valid();
    auto r = dev_->ResetZone(ZoneId{z}, t);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value();
    EXPECT_EQ(dev_->zones().Info(ZoneId{z}).state, ZoneState::kEmpty);
    EXPECT_EQ(dev_->mapping().zone_mapped_count(ZoneId{z}), 0u) << "zone " << z;
    std::uint64_t still_mapped = 0;
    for (std::uint64_t i = 0; i < lpns; ++i) {
      if (dev_->mapping().Get(Lpn{z * lpns + i}).mapped()) ++still_mapped;
    }
    EXPECT_EQ(still_mapped, 0u) << "zone " << z;
    EXPECT_EQ(slc_before - slc_valid(), slc_resident) << "zone " << z;
  }
  // Reads of a reset zone fail.
  auto bad = TestRead(*dev_, 0, 4096, t);
  EXPECT_FALSE(bad.ok());
  // The zone is writable again and data verifies with fresh payloads.
  WriteAt(0, 512 * kKiB, t, /*salt=*/7);
  VerifyRead(0, 512 * kKiB, t, /*salt=*/7);
}

TEST_F(ConZoneDeviceTest, NonSequentialWriteRejected) {
  SimTime t;
  WriteAt(0, 4096, t);
  auto r = TestWrite(*dev_, 8192, 4096, t);  // skips the write pointer
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ConZoneDeviceTest, WriteCrossingZoneBoundaryRejected) {
  SimTime t;
  for (std::uint64_t off = 0; off < zone_bytes_ - 512 * kKiB; off += 512 * kKiB) {
    WriteAt(off, 512 * kKiB, t);
  }
  auto r = TestWrite(*dev_, zone_bytes_ - 4096, 8192, t);
  EXPECT_FALSE(r.ok());
}

TEST_F(ConZoneDeviceTest, ReadBeyondWritePointerRejected) {
  SimTime t;
  WriteAt(0, 4096, t);
  auto r = TestRead(*dev_, 4096, 4096, t);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ConZoneDeviceTest, WriteAmplificationAccountsSlcDetour) {
  SimTime t;
  // Zone-switching 48 KiB writes between two same-parity zones: every
  // flush is premature, so data is written twice (SLC then normal).
  std::uint64_t off0 = 0, off2 = 2 * zone_bytes_;
  for (int i = 0; i < 32; ++i) {
    WriteAt(off0, 48 * kKiB, t);
    off0 += 48 * kKiB;
    WriteAt(off2, 48 * kKiB, t, 1);
    off2 += 48 * kKiB;
  }
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(dev_->Stats().WriteAmplification(), 1.2);
  EXPECT_GT(dev_->stats().premature_flushes, 10u);
}

TEST_F(ConZoneDeviceTest, FlushAllMakesDataDurable) {
  SimTime t;
  WriteAt(0, 12 * kKiB, t);
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok());
  t = f.value();
  EXPECT_EQ(dev_->stats().buffer_ram_reads, 0u);
  VerifyRead(0, 12 * kKiB, t);
  EXPECT_EQ(dev_->stats().buffer_ram_reads, 0u);  // served from SLC, not RAM
}

TEST_F(ConZoneDeviceTest, TimingLatenciesAreSane) {
  SimTime t;
  // A buffered 4 KiB write completes in microseconds (RAM, no flash).
  auto w = TestWrite(*dev_, 0, 4096, t);
  ASSERT_TRUE(w.ok());
  EXPECT_LT((w.value() - t).us(), 100.0);
  // Reading it back from the buffer is also fast.
  auto r = TestRead(*dev_, 0, 4096, w.value());
  ASSERT_TRUE(r.ok());
  EXPECT_LT((r.value() - w.value()).us(), 100.0);
}

TEST_F(ConZoneDeviceTest, L2pLogDisabledByDefault) {
  SimTime t;
  WriteAt(0, 512 * kKiB, t);
  EXPECT_EQ(dev_->l2p_log().stats().entries_appended, 0u);
  EXPECT_EQ(dev_->l2p_log().stats().flushes, 0u);
}

TEST(ConZoneL2pLogTest, LogAccumulatesAndFlushesBlocking) {
  ConZoneConfig cfg = SmallConfig();
  cfg.l2p_log.enabled = true;
  cfg.l2p_log.entry_bytes = 8;
  cfg.l2p_log.flush_threshold_bytes = 16 * kKiB;  // 2048 updates
  auto devr = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(devr.ok());
  ConZoneDevice& d = **devr;
  SimTime t;
  // 16 MiB of writes = 4096 mapping updates = 2 log flushes.
  for (std::uint64_t off = 0; off < 16 * kMiB; off += 512 * kKiB) {
    auto r = TestWrite(d, off, 512 * kKiB, t);
    ASSERT_TRUE(r.ok());
    t = r.value();
  }
  EXPECT_GE(d.l2p_log().stats().entries_appended, 4096u);
  // Each flush drains everything pending at the crossing.
  EXPECT_GE(d.l2p_log().stats().flushes, 1u);
  EXPECT_GE(d.l2p_log().stats().bytes_flushed, 16 * kKiB);
  // Remainder stays pending until the next threshold crossing.
  EXPECT_LT(d.l2p_log().pending_bytes(), 16 * kKiB);
  EXPECT_EQ(d.l2p_log().stats().bytes_flushed + d.l2p_log().pending_bytes(),
            d.l2p_log().stats().entries_appended * 8);
}

TEST(ConZoneL2pLogTest, LogFlushCostsWriteTime) {
  auto run = [](bool log_on) {
    ConZoneConfig cfg = SmallConfig();
    cfg.l2p_log.enabled = log_on;
    cfg.l2p_log.flush_threshold_bytes = 4 * kKiB;  // aggressive, every 512 updates
    auto devr = ConZoneDevice::Create(cfg);
    EXPECT_TRUE(devr.ok());
    SimTime t;
    for (std::uint64_t off = 0; off < 16 * kMiB; off += 512 * kKiB) {
      t = TestWrite(**devr, off, 512 * kKiB, t).value();
    }
    auto f = (*devr)->Flush(t);
    EXPECT_TRUE(f.ok());
    return f.value();
  };
  EXPECT_GT(run(true), run(false));
}

TEST(ConZoneL2pLogTest, ConfigValidated) {
  ConZoneConfig cfg = SmallConfig();
  cfg.l2p_log.enabled = true;
  cfg.l2p_log.entry_bytes = 8;
  cfg.l2p_log.flush_threshold_bytes = 4;  // below entry size
  EXPECT_FALSE(ConZoneDevice::Create(cfg).ok());
}

TEST_F(ConZoneDeviceTest, SequentialFillWholeDeviceAndVerify) {
  // Fill 4 zones, read everything back — integrity across buffer, SLC
  // staging, fold-back and the patch path.
  SimTime t;
  for (std::uint64_t z = 0; z < 4; ++z) {
    for (std::uint64_t off = 0; off < zone_bytes_; off += 512 * kKiB) {
      WriteAt(z * zone_bytes_ + off, 512 * kKiB, t, z);
    }
  }
  for (std::uint64_t z = 0; z < 4; ++z) {
    VerifyRead(z * zone_bytes_, zone_bytes_, t, z);
  }
  EXPECT_EQ(dev_->stats().aggregates_zone, 4u);
}

TEST(ConZoneZoneOpsTest, OpenAndCloseCheckLikeFinish) {
  // Conventional zones have no zone state to open or close: opening them
  // must not use up the open and active limits a sequential zone needs.
  ConZoneConfig cfg = SmallConfig();
  cfg.num_conventional_zones = 2;
  cfg.max_open_zones = 2;
  cfg.max_active_zones = 2;
  cfg.fault.power_loss = true;
  auto made = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  EXPECT_EQ(dev.OpenZone(ZoneId{0}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.OpenZone(ZoneId{1}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.CloseZone(ZoneId{0}).code(), StatusCode::kFailedPrecondition);
  const std::uint64_t zone_bytes = cfg.zone_size_bytes;
  auto w = TestWrite(dev, 2 * zone_bytes, 4096, SimTime());
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_TRUE(dev.CloseZone(ZoneId{2}).ok());
  EXPECT_TRUE(dev.OpenZone(ZoneId{2}).ok());

  // A powered-off device refuses them like every other zone op.
  ASSERT_TRUE(dev.PowerCut(w.value()).ok());
  EXPECT_EQ(dev.OpenZone(ZoneId{3}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.CloseZone(ZoneId{2}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dev.zones().Info(ZoneId{3}).state, ZoneState::kEmpty);
  ASSERT_TRUE(dev.Recover(w.value()).ok());
  EXPECT_TRUE(dev.OpenZone(ZoneId{3}).ok());
}

TEST(ConZoneZoneOpsTest, ReadPastFinishedZoneDataEndIsOutOfRange) {
  // FINISH moves the write pointer to capacity, so the zone check admits
  // reads up to it; past the data FINISH flushed there is nothing to read.
  auto made = ConZoneDevice::Create(ConZoneConfig::PaperConfig());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  const std::uint64_t zone_bytes = dev.info().zone_size_bytes;
  auto w = TestWrite(dev, 0, 40 * kKiB, SimTime());
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto f = dev.FinishZone(ZoneId{0}, w.value());
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  const SimTime t = f.value();
  const std::string past = "OUT_OF_RANGE: read beyond the data end of finished zone 0";
  EXPECT_EQ(TestRead(dev, 40 * kKiB, 4 * kKiB, t).status().ToString(), past);
  EXPECT_EQ(TestRead(dev, 0, 44 * kKiB, t).status().ToString(), past);
  EXPECT_EQ(TestRead(dev, zone_bytes - 4 * kKiB, 4 * kKiB, t).status().ToString(), past);
  std::vector<std::uint64_t> got;
  ASSERT_TRUE(TestRead(dev, 0, 40 * kKiB, t, &got).ok());
  EXPECT_EQ(got.size(), 10u);

  // A zone filled by writes is full too; its buffered tail still reads.
  SimTime t1 = t;
  for (std::uint64_t off = 0; off < zone_bytes; off += 512 * kKiB) {
    auto r = TestWrite(dev, zone_bytes + off, 512 * kKiB, t1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t1 = r.value();
  }
  ASSERT_EQ(dev.zones().Info(ZoneId{1}).state, ZoneState::kFull);
  EXPECT_TRUE(TestRead(dev, 2 * zone_bytes - 4 * kKiB, 4 * kKiB, t1).ok());
  EXPECT_TRUE(TestRead(dev, zone_bytes, zone_bytes, t1).ok());
}

TEST(ConZoneMultiSuperblockTest, TwoSuperblockZonesFillReadRemountAndReset) {
  // 32 MiB zones span two 15.75 MiB superblocks (a 512 KiB SLC patch).
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.zone_size_bytes = 32 * kMiB;
  cfg.fault.power_loss = true;
  cfg.l2p_log.enabled = true;
  cfg.checkpoint.enabled = true;
  auto made = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  ASSERT_EQ(dev.info().num_zones, 48u);
  const std::uint64_t zone_bytes = cfg.zone_size_bytes;
  SimTime t;
  for (std::uint64_t z = 0; z < 3; ++z) {
    for (std::uint64_t off = 0; off < zone_bytes; off += 512 * kKiB) {
      const std::uint64_t at = z * zone_bytes + off;
      auto r = TestWrite(dev, at, 512 * kKiB, t, Tokens(at / 4096, 128, z));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      t = r.value();
    }
  }
  auto verify = [&] {
    for (std::uint64_t z = 0; z < 3; ++z) {
      std::vector<std::uint64_t> got;
      auto r = TestRead(dev, z * zone_bytes, zone_bytes, t, &got);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      t = r.value();
      ASSERT_EQ(got, Tokens(z * zone_bytes / 4096, zone_bytes / 4096, z)) << "zone " << z;
    }
  };
  ASSERT_NO_FATAL_FAILURE(verify());
  EXPECT_EQ(dev.stats().aggregates_zone, 3u);
  EXPECT_EQ(dev.stats().patch_runs, 3u);

  auto flushed = dev.Flush(t);
  ASSERT_TRUE(flushed.ok());
  auto ck = dev.CheckpointNow(flushed.value());
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();
  ASSERT_TRUE(dev.PowerCut(ck.value()).ok());
  auto rec = dev.Recover(ck.value());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  t = rec.value();
  EXPECT_EQ(dev.Recovery().zones_restored, 48u);
  ASSERT_NO_FATAL_FAILURE(verify());

  // A reset erases both superblocks of the zone.
  const std::uint64_t erases = dev.media_counters().erases_normal;
  auto reset = dev.ResetZone(ZoneId{1}, t);
  ASSERT_TRUE(reset.ok()) << reset.status().ToString();
  EXPECT_EQ(dev.media_counters().erases_normal - erases, 2u * cfg.geometry.NumChips());
  EXPECT_EQ(dev.zones().Info(ZoneId{1}).write_pointer, 0u);
  EXPECT_EQ(dev.mapping().zone_mapped_count(ZoneId{1}), 0u);
}

}  // namespace
}  // namespace conzone
