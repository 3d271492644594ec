// Durable L2P checkpoints (DESIGN.md §12).
//
// Covers: image wire-format round-trip, the pinned encoding, and
// rejection of corrupt, truncated, malformed and wrapping blobs;
// ping-pong slot election including sequence ties, serial-number
// wraparound and torn-slot fallback; the device-level policy hooks
// (interval, host flush, CheckpointNow); checkpoint-bounded tail scans
// at remount; reset- and rebuild-epoch regressions (a stale image must
// never resurrect dead mappings); the full crash sweep and random-cut
// matrix with checkpointing enabled; bit-identical recovery against a
// checkpoint-off twin; incremental images held byte for byte to the
// from-scratch builder; and an opt-in random-interval soak
// (CONZONE_CRASH_SOAK=1).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "conzone/conzone.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

ConZoneConfig SmallConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;  // 4 SLC + 16 normal => 16 zones
  cfg.geometry.slc_blocks_per_chip = 4;
  return cfg;
}

ConZoneConfig CrashConfig() {
  ConZoneConfig cfg = SmallConfig();
  cfg.fault.power_loss = true;
  cfg.l2p_log.enabled = true;
  return cfg;
}

/// CrashConfig + checkpointing tuned so short test runs cross the
/// interval and the per-Flush hook both fire.
ConZoneConfig CkptCrashConfig(std::uint64_t interval = 128,
                              std::uint64_t min_flush = 32) {
  ConZoneConfig cfg = CrashConfig();
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.interval_entries = interval;
  cfg.checkpoint.min_flush_entries = min_flush;
  return cfg;
}

/// A representative image exercising every payload section.
CheckpointImage SampleImage(std::uint64_t seq = 3) {
  CheckpointImage img;
  img.seq = seq;
  img.program_seq = 977;
  img.mappings = {{0, 41, 2}, {7, 4096, 3}, {4095, 9, 1}};
  img.zones = {
      ZoneSnap{0, 0, ~0ull, ZoneSnap::kFlagRestorable},
      ZoneSnap{65536, 65536, 7, ZoneSnap::kFlagPatchContiguous},
      ZoneSnap{4096, 0, ~0ull, 0},
      ZoneSnap{0, 0, ~0ull, ZoneSnap::kFlagDegraded},
  };
  img.free_slc = {2, 3};
  img.free_normal = {11, 12, 13};
  return img;
}

/// A chip-striped zone: equal-length lpn-contiguous runs whose ppns
/// advance by a constant stride, that whole interleave repeating with a
/// second-level stride — the shape Encode folds to one super record —
/// then a descending progression and an irregular per-run tail.
CheckpointImage StridedImage() {
  CheckpointImage img;
  img.seq = 9;
  std::uint64_t lpn = 0;
  for (std::uint64_t rep = 0; rep < 16; ++rep) {
    for (std::uint64_t w = 0; w < 4; ++w) {
      img.mappings.push_back(MapRun{lpn, 1000 + rep * 24 + w * 40320, 24});
      lpn += 24;
    }
  }
  // A descending progression (the stride wraps as an unsigned delta).
  lpn += 13;
  for (std::uint64_t w = 0; w < 3; ++w) {
    img.mappings.push_back(MapRun{lpn, 500000 - w * 1000, 8});
    lpn += 8;
  }
  // And an irregular tail that must stay per-run.
  img.mappings.push_back(MapRun{lpn + 5, 9, 1});
  img.mappings.push_back(MapRun{lpn + 9, 777, 2});
  return img;
}

/// A blob as its little-endian u64 words.
std::vector<std::uint64_t> Words(const std::vector<std::uint8_t>& blob) {
  std::vector<std::uint64_t> out(blob.size() / 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      out[i] |= static_cast<std::uint64_t>(blob[8 * i + b]) << (8 * b);
    }
  }
  return out;
}

std::vector<std::uint64_t> Tokens(std::uint64_t first, std::uint64_t n,
                                  std::uint64_t salt = 0) {
  std::vector<std::uint64_t> t(n);
  for (std::uint64_t i = 0; i < n; ++i) t[i] = (first + i) * 7919 + salt + 1;
  return t;
}

// ---------------------------------------------------------------------------
// Image wire format
// ---------------------------------------------------------------------------

TEST(CheckpointImageTest, EncodeDecodeRoundTrip) {
  const CheckpointImage img = SampleImage();
  const auto blob = img.Encode();
  const auto back = CheckpointImage::Decode(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, img.seq);
  EXPECT_EQ(back->program_seq, img.program_seq);
  EXPECT_EQ(back->mappings, img.mappings);
  EXPECT_EQ(back->zones, img.zones);
  EXPECT_EQ(back->free_slc, img.free_slc);
  EXPECT_EQ(back->free_normal, img.free_normal);
}

TEST(CheckpointImageTest, EmptyImageRoundTrips) {
  CheckpointImage img;
  img.seq = 1;
  const auto back = CheckpointImage::Decode(img.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 1u);
  EXPECT_TRUE(back->mappings.empty());
  EXPECT_TRUE(back->zones.empty());
}

TEST(CheckpointImageTest, StridedRunFoldingRoundTripsLosslessly) {
  const CheckpointImage img = StridedImage();
  const auto blob = img.Encode();
  // Folded: far below one record per run.
  EXPECT_LT(blob.size(), (8 + 3 * img.mappings.size() + 1) * 8);
  const auto back = CheckpointImage::Decode(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mappings, img.mappings);
}

TEST(CheckpointImageTest, EncodingIsPinned) {
  // Round trips cannot see a format change Encode and Decode make
  // together, so the exact words of two images are pinned: the sample
  // (every payload section) and the strided one (all three record tags).
  EXPECT_EQ(Words(SampleImage().Encode()),
            (std::vector<std::uint64_t>{
                0x434f4e5a43504b54, 1, 3, 977, 3, 4, 2, 3,         // header
                1, 0, 41, 2, 1, 7, 4096, 3, 1, 4095, 9, 1,         // runs
                0, 0, ~0ull, 4, 65536, 65536, 7, 2,                // zones
                4096, 0, ~0ull, 0, 0, 0, ~0ull, 1,
                2, 3, 11, 12, 13,                                  // free lists
                0xbd7ba7074433c4c5}));                             // checksum
  EXPECT_EQ(Words(StridedImage().Encode()),
            (std::vector<std::uint64_t>{
                0x434f4e5a43504b54, 1, 9, 0, 4, 0, 0, 0,
                3, 0, 1000, 24, 4, 40320, 16, 24,                  // super
                2, 1549, 500000, 8, 3, ~0ull - 999,                // group
                1, 1578, 9, 1, 1, 1582, 777, 2,                    // runs
                0x1030cfb7712c9497}));
}

TEST(CheckpointImageTest, DecodeRejectsRunsThatWrap) {
  // A checksum-valid image may carry any words. A run whose last lpn or
  // last ppn would pass 2^64 - 1 must not decode: the mount's bounds
  // tests would wrap on it.
  for (const MapRun& run : {MapRun{~0ull, 0, 2}, MapRun{0, ~0ull, 2}}) {
    CheckpointImage img = SampleImage();
    img.mappings = {run};
    EXPECT_FALSE(CheckpointImage::Decode(img.Encode()).has_value())
        << "lpn " << run.lpn << " ppn " << run.ppn;
  }
  // Runs ending exactly at 2^64 - 1 still decode.
  CheckpointImage edge = SampleImage();
  edge.mappings = {MapRun{~0ull - 1, ~0ull - 1, 2}};
  const auto back = CheckpointImage::Decode(edge.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mappings, edge.mappings);
}

TEST(CheckpointImageTest, EverySingleByteCorruptionIsRejected) {
  const auto blob = SampleImage().Encode();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    auto bad = blob;
    bad[i] ^= 0xFF;
    EXPECT_FALSE(CheckpointImage::Decode(bad).has_value())
        << "byte " << i << " corruption slipped past the checksum";
  }
}

TEST(CheckpointImageTest, TruncatedAndMisalignedBlobsAreRejected) {
  const auto blob = SampleImage().Encode();
  for (std::size_t len : {std::size_t{0}, std::size_t{8}, blob.size() - 8,
                          blob.size() - 1, blob.size() + 8}) {
    auto bad = blob;
    bad.resize(len);
    EXPECT_FALSE(CheckpointImage::Decode(bad).has_value()) << "len " << len;
  }
}

TEST(CheckpointImageTest, SeqNewerUsesSerialNumberArithmetic) {
  EXPECT_TRUE(CheckpointImage::SeqNewer(2, 1));
  EXPECT_FALSE(CheckpointImage::SeqNewer(1, 2));
  EXPECT_FALSE(CheckpointImage::SeqNewer(5, 5));
  // Wraparound: 0 and 1 are newer than the pre-wrap maximum.
  EXPECT_TRUE(CheckpointImage::SeqNewer(0, ~0ull));
  EXPECT_TRUE(CheckpointImage::SeqNewer(1, ~0ull));
  EXPECT_FALSE(CheckpointImage::SeqNewer(~0ull, 0));
}

// ---------------------------------------------------------------------------
// Slot store: ping-pong, election, torn writes
// ---------------------------------------------------------------------------

TEST(CheckpointStoreTest, PingPongAlwaysTargetsTheOtherSlot) {
  CheckpointStore store;
  EXPECT_EQ(store.NextSlot(), 0);
  EXPECT_EQ(store.NextSeq(), 1u);
  store.Commit(0, SampleImage(1).Encode(), 1, SimTime::FromNanos(100));
  EXPECT_EQ(store.NextSlot(), 1);
  EXPECT_EQ(store.NextSeq(), 2u);
  store.Commit(1, SampleImage(2).Encode(), 2, SimTime::FromNanos(200));
  EXPECT_EQ(store.NextSlot(), 0);
  ASSERT_NE(store.NewestValid(), nullptr);
  EXPECT_EQ(store.NewestValid()->seq, 2u);
}

TEST(CheckpointStoreTest, SequenceTieElectsLowerSlot) {
  CheckpointStore store;
  store.Commit(0, SampleImage(5).Encode(), 5, SimTime::FromNanos(100));
  store.Commit(1, SampleImage(5).Encode(), 5, SimTime::FromNanos(200));
  ASSERT_NE(store.NewestValid(), nullptr);
  EXPECT_EQ(store.NewestValid(), &store.slot(0));
}

TEST(CheckpointStoreTest, WraparoundElectsPostWrapImage) {
  CheckpointStore store;
  store.Commit(0, SampleImage(~0ull).Encode(), ~0ull, SimTime::FromNanos(100));
  store.Commit(1, SampleImage(0).Encode(), 0, SimTime::FromNanos(200));
  ASSERT_NE(store.NewestValid(), nullptr);
  EXPECT_EQ(store.NewestValid(), &store.slot(1));
  EXPECT_EQ(store.NextSeq(), 1u);
}

TEST(CheckpointStoreTest, CutMidWriteTearsOnlyTheInFlightSlot) {
  CheckpointStore store;
  store.Commit(0, SampleImage(1).Encode(), 1, SimTime::FromNanos(1000));
  store.Commit(1, SampleImage(2).Encode(), 2, SimTime::FromNanos(2000));
  // Cut lands after slot 0's completion but inside slot 1's write.
  EXPECT_EQ(store.ApplyPowerCut(SimTime::FromNanos(1500)), 1u);
  ASSERT_NE(store.NewestValid(), nullptr);
  EXPECT_EQ(store.NewestValid()->seq, 1u);
  // The torn slot is reusable as the next target.
  EXPECT_EQ(store.NextSlot(), 1);
}

TEST(CheckpointStoreTest, BothSlotsTornFallsBackToNothing) {
  CheckpointStore store;
  store.Commit(0, SampleImage(1).Encode(), 1, SimTime::FromNanos(1000));
  store.Commit(1, SampleImage(2).Encode(), 2, SimTime::FromNanos(2000));
  EXPECT_EQ(store.ApplyPowerCut(SimTime::FromNanos(500)), 2u);
  EXPECT_EQ(store.NewestValid(), nullptr);
  EXPECT_EQ(store.NextSlot(), 0);
  EXPECT_EQ(store.NextSeq(), 1u);
}

TEST(CheckpointStoreTest, CorruptNewestLosesElectionToOlderImage) {
  CheckpointStore store;
  store.Commit(0, SampleImage(1).Encode(), 1, SimTime::FromNanos(100));
  store.Commit(1, SampleImage(2).Encode(), 2, SimTime::FromNanos(200));
  store.CorruptByteForTest(1, 16);
  ASSERT_NE(store.NewestValid(), nullptr);
  EXPECT_EQ(store.NewestValid()->seq, 1u);
}

// ---------------------------------------------------------------------------
// Device policy hooks and configuration
// ---------------------------------------------------------------------------

TEST(CheckpointDeviceTest, CheckpointNowRequiresEnabledConfig) {
  auto dev = ConZoneDevice::Create(CrashConfig());
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ((*dev)->CheckpointNow(SimTime::Zero()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointDeviceTest, CheckpointingRequiresL2pLog) {
  ConZoneConfig cfg = CkptCrashConfig();
  cfg.l2p_log.enabled = false;
  EXPECT_EQ(ConZoneDevice::Create(cfg).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointDeviceTest, EmptyDeviceCheckpointRoundTrips) {
  auto dev = ConZoneDevice::Create(CkptCrashConfig());
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  auto ck = d.CheckpointNow(SimTime::Zero());
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();
  EXPECT_EQ(d.recovery_stats().checkpoints_written, 1u);

  ASSERT_TRUE(d.PowerCut(ck.value()).ok());
  auto r = d.Recover(ck.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(d.recovery_stats().checkpoint_loaded, 1u);
  EXPECT_EQ(d.recovery_stats().checkpoint_mappings, 0u);
  EXPECT_EQ(d.mapping().mapped_count(), 0u);
  // The device serves writes again after an image-served empty mount.
  EXPECT_TRUE(TestWrite(d, 0, 4096, r.value()).ok());
}

TEST(CheckpointDeviceTest, IntervalPolicyWritesCheckpointsWithoutHostFlush) {
  ConZoneConfig cfg = CkptCrashConfig(/*interval=*/64);
  cfg.checkpoint.min_flush_entries = UINT64_MAX;  // no image on a host Flush
  auto dev = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  const std::uint64_t zone_bytes = d.config().zone_size_bytes;
  SimTime t;
  for (std::uint64_t z = 0; z < 4; ++z) {
    auto w = TestWrite(d, z * zone_bytes, zone_bytes, t);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    t = w.value();
  }
  EXPECT_GT(d.recovery_stats().checkpoints_written, 0u);
}

TEST(CheckpointDeviceTest, HostFlushPolicyHonorsMinimumEntryFloor) {
  auto dev = ConZoneDevice::Create(
      CkptCrashConfig(/*interval=*/1 << 30, /*min_flush=*/16));
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  // 4 slots < the 16-entry floor: the flush must not pay for an image.
  auto w = TestWrite(d, 0, 4 * 4096, SimTime::Zero());
  ASSERT_TRUE(w.ok());
  auto f = d.Flush(w.value());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(d.recovery_stats().checkpoints_written, 0u);
  // 28 more cross it: the next flush checkpoints.
  auto w2 = TestWrite(d, 4 * 4096, 28 * 4096, f.value());
  ASSERT_TRUE(w2.ok());
  auto f2 = d.Flush(w2.value());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(d.recovery_stats().checkpoints_written, 1u);
}

TEST(CheckpointDeviceTest, WrappingImageRunFallsBackToFullScan) {
  // A checksum-valid image whose only run wraps past 2^64, with a
  // watermark no block exceeds: the mount must not trust it. It falls
  // back to the full scan and recovers the empty table.
  auto dev = ConZoneDevice::Create(CkptCrashConfig());
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  CheckpointImage img;
  img.seq = 1;
  img.program_seq = ~0ull;
  img.mappings = {MapRun{~0ull, 0, 2}};
  d.mutable_checkpoint_store().Commit(0, img.Encode(), img.seq, SimTime::Zero());
  ASSERT_TRUE(d.PowerCut(SimTime::Zero()).ok());
  auto r = d.Recover(SimTime::Zero());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(d.recovery_stats().checkpoint_loaded, 0u);
  EXPECT_EQ(d.mapping().mapped_count(), 0u);
  EXPECT_TRUE(TestWrite(d, 0, 4096, r.value()).ok());
}

// ---------------------------------------------------------------------------
// Checkpoint-bounded remount
// ---------------------------------------------------------------------------

TEST(CheckpointDeviceTest, MountSkipsBlocksOlderThanTheWatermark) {
  // Only explicit checkpoints: the tail is exactly what lands after
  // CheckpointNow.
  ConZoneConfig cfg = CkptCrashConfig(/*interval=*/1 << 30);
  cfg.checkpoint.min_flush_entries = UINT64_MAX;  // no image on a host Flush
  auto dev = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  const std::uint64_t zone_bytes = d.config().zone_size_bytes;
  const std::uint64_t zone_slots = zone_bytes / 4096;

  // Two full zones reach media, then checkpoint, then a small tail.
  const auto tok0 = Tokens(0, zone_slots);
  const auto tok1 = Tokens(zone_slots, zone_slots);
  auto w0 = TestWrite(d, 0, zone_bytes, SimTime::Zero(), tok0);
  ASSERT_TRUE(w0.ok());
  auto w1 = TestWrite(d, zone_bytes, zone_bytes, w0.value(), tok1);
  ASSERT_TRUE(w1.ok());
  auto f = d.Flush(w1.value());
  ASSERT_TRUE(f.ok());
  auto ck = d.CheckpointNow(f.value());
  ASSERT_TRUE(ck.ok()) << ck.status().ToString();

  const auto tail = Tokens(9000, 16);
  auto w2 = TestWrite(d, 2 * zone_bytes, 16 * 4096, ck.value(), tail);
  ASSERT_TRUE(w2.ok());
  auto f2 = d.Flush(w2.value());
  ASSERT_TRUE(f2.ok());

  ASSERT_TRUE(d.PowerCut(f2.value()).ok());
  auto r = d.Recover(f2.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const RecoveryStats& rs = d.recovery_stats();
  EXPECT_EQ(rs.checkpoint_loaded, 1u);
  EXPECT_GT(rs.checkpoint_mappings, 0u);
  // The checkpointed zones' blocks sit below the watermark: the scan
  // skipped more used pages than it sensed.
  EXPECT_GT(rs.pages_skipped, 0u);
  EXPECT_GT(rs.pages_skipped, rs.pages_scanned);

  std::vector<std::uint64_t> got;
  ASSERT_TRUE(TestRead(d, 0, zone_bytes, r.value(), &got).ok());
  EXPECT_EQ(got, tok0);
  ASSERT_TRUE(TestRead(d, zone_bytes, zone_bytes, r.value(), &got).ok());
  EXPECT_EQ(got, tok1);
  ASSERT_TRUE(TestRead(d, 2 * zone_bytes, 16 * 4096, r.value(), &got).ok());
  EXPECT_EQ(got, tail);
  EXPECT_EQ(d.zones().Info(ZoneId{2}).write_pointer, 16 * 4096u);
}

TEST(CheckpointDeviceTest, ZoneResetAfterCheckpointDoesNotResurrectOldEpoch) {
  ConZoneConfig cfg = CkptCrashConfig(/*interval=*/1 << 30);
  cfg.checkpoint.min_flush_entries = UINT64_MAX;  // no image on a host Flush
  auto dev = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  const std::uint64_t zone_bytes = d.config().zone_size_bytes;
  const std::uint64_t zone_slots = zone_bytes / 4096;

  // Epoch 1 fills the zone and is captured by a checkpoint image.
  auto w = TestWrite(d, 0, zone_bytes, SimTime::Zero(), Tokens(0, zone_slots));
  ASSERT_TRUE(w.ok());
  auto f = d.Flush(w.value());
  ASSERT_TRUE(f.ok());
  auto ck = d.CheckpointNow(f.value());
  ASSERT_TRUE(ck.ok());

  // Epoch 2: reset, rewrite a short prefix, make it durable, cut.
  auto rz = d.ResetZone(ZoneId{0}, ck.value());
  ASSERT_TRUE(rz.ok()) << rz.status().ToString();
  const auto fresh = Tokens(5000, 8);
  auto w2 = TestWrite(d, 0, 8 * 4096, rz.value(), fresh);
  ASSERT_TRUE(w2.ok());
  auto f2 = d.Flush(w2.value());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(d.PowerCut(f2.value()).ok());
  auto r = d.Recover(f2.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The stale image entries pointed at erased or re-owned slots and must
  // have been dropped, not replayed.
  EXPECT_EQ(d.recovery_stats().checkpoint_loaded, 1u);
  EXPECT_GT(d.recovery_stats().checkpoint_stale_dropped, 0u);
  EXPECT_EQ(d.zones().Info(ZoneId{0}).write_pointer, 8 * 4096u);
  std::vector<std::uint64_t> got;
  ASSERT_TRUE(TestRead(d, 0, 8 * 4096, r.value(), &got).ok());
  EXPECT_EQ(got, fresh);
  // Nothing from epoch 1 is readable past the recovered pointer.
  EXPECT_FALSE(TestRead(d, 8 * 4096, 4096, r.value()).ok());
}

// ---------------------------------------------------------------------------
// Crash sweeps with checkpointing enabled (tier-1 property suite)
// ---------------------------------------------------------------------------

TEST(CheckpointCrashTest, EveryOpBoundaryRecoversConsistent) {
  constexpr std::size_t kOps = 48;
  for (std::size_t k = 1; k <= kOps; ++k) {
    CrashHarness::Options opt;
    opt.seed = 42;
    CrashHarness h(CkptCrashConfig(), opt);
    ASSERT_TRUE(h.Init().ok());
    ASSERT_TRUE(h.RunOps(k).ok()) << "ops=" << k;
    const double frac = (k % 3 == 0) ? 0.0 : (k % 3 == 1) ? 0.5 : 1.0;
    ASSERT_TRUE(h.Cut(frac).ok()) << "ops=" << k;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "cut after op " << k << " (frac " << frac
                         << "): " << st.message();
  }
}

TEST(CheckpointCrashTest, RandomCutTimesAcrossSeedsRecoverConsistent) {
  Rng pick(0xD00DF00Dull);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    CrashHarness::Options opt;
    opt.seed = seed;
    CrashHarness h(CkptCrashConfig(), opt);
    ASSERT_TRUE(h.Init().ok());
    ASSERT_TRUE(h.RunOps(10 + pick.NextBelow(40)).ok()) << "seed=" << seed;
    ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.5).ok()) << "seed=" << seed;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.message();
  }
}

TEST(CheckpointCrashTest, CutsDuringCheckpointWritesFallBackCleanly) {
  // A tight interval keeps an image write in flight much of the time, so
  // random cuts repeatedly land inside one; recovery must fall back to
  // the previous image (or the full scan) and stay consistent.
  CrashHarness::Options opt;
  opt.seed = 13;
  opt.flush_prob = 0.25;
  CrashHarness h(CkptCrashConfig(/*interval=*/32, /*min_flush=*/8), opt);
  ASSERT_TRUE(h.Init().ok());
  Rng pick(0x7EA4ull);
  for (int round = 0; round < 40; ++round) {
    ASSERT_TRUE(h.RunOps(6 + pick.NextBelow(18)).ok()) << "round=" << round;
    ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.5).ok()) << "round=" << round;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.message();
  }
  const RecoveryStats& rs = h.device().recovery_stats();
  EXPECT_GT(rs.checkpoints_written, 0u);
  EXPECT_GT(rs.checkpoints_torn, 0u) << "no cut ever landed mid-image";
  EXPECT_GT(rs.checkpoint_loaded, 0u);
}

/// The durable readable prefix of one member zone, slot by slot.
std::vector<std::uint64_t> MemberZonePrefix(StorageDevice& dev,
                                            std::uint64_t zone, SimTime now) {
  const DeviceInfo di = dev.info();
  const std::uint64_t mzs = di.zone_size_bytes;
  std::vector<std::uint64_t> out;
  for (std::uint64_t off = 0; off < mzs; off += di.io_alignment) {
    auto r = dev.Read(IoRequest{zone * mzs + off, di.io_alignment, now, {},
                                /*want_tokens=*/true});
    if (!r.ok()) break;
    out.push_back(r.value().tokens[0]);
  }
  return out;
}

/// Corrupt `dev`'s newest valid image until no slot decodes, so its next
/// mount takes the full scan, as a device with no valid image does. Only
/// a slot that still decodes is flipped: flipping a byte twice would
/// restore the image.
void InvalidateImages(ConZoneDevice& dev) {
  CheckpointStore& store = dev.mutable_checkpoint_store();
  while (const CheckpointStore::Slot* s = store.NewestValid()) {
    store.CorruptByteForTest(s == &store.slot(0) ? 0 : 1, 0);
  }
}

TEST(CheckpointCrashTest, FastPathRecoversBitIdenticalToFullScan) {
  // Twin devices, same seed, same ops, same cut: one mounts via the
  // newest image + tail scan; the reference writes the same images but
  // has them corrupted before each mount, so it does the full scan.
  // Recovered state must match bit for bit. (The checker fingerprint
  // mixes the remount DURATION — which the fast path exists to change —
  // so the comparison reads the state out directly.)
  const ConZoneConfig cfg = CkptCrashConfig(/*interval=*/64, /*min_flush=*/16);

  CrashHarness::Options opt;
  opt.seed = 2718;
  CrashHarness fast(cfg, opt);
  CrashHarness full(cfg, opt);
  ASSERT_TRUE(fast.Init().ok());
  ASSERT_TRUE(full.Init().ok());

  Rng pick(0xFA57ull);
  for (int round = 0; round < 4; ++round) {
    const std::size_t ops = 12 + pick.NextBelow(24);
    const double frac = pick.NextDouble() * 1.3;
    ASSERT_TRUE(fast.RunOps(ops).ok()) << "round=" << round;
    ASSERT_TRUE(full.RunOps(ops).ok()) << "round=" << round;
    ASSERT_TRUE(fast.Cut(frac).ok()) << "round=" << round;
    ASSERT_TRUE(full.Cut(frac).ok()) << "round=" << round;
    InvalidateImages(full.device());
    Status sa = fast.RecoverAndVerify();
    ASSERT_TRUE(sa.ok()) << "fast round " << round << ": " << sa.message();
    Status sb = full.RecoverAndVerify();
    ASSERT_TRUE(sb.ok()) << "full round " << round << ": " << sb.message();

    const std::uint32_t zones = fast.device().info().num_zones;
    for (std::uint32_t z = 0; z < zones; ++z) {
      EXPECT_EQ(fast.device().zones().Info(ZoneId{z}).write_pointer,
                full.device().zones().Info(ZoneId{z}).write_pointer)
          << "round " << round << " zone " << z;
      EXPECT_EQ(MemberZonePrefix(fast.device(), z, fast.now()),
                MemberZonePrefix(full.device(), z, full.now()))
          << "round " << round << " zone " << z;
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ma, mb;
    fast.device().mapping().ForEachMapped(
        [&](Lpn l, Ppn p) { ma.emplace_back(l.value(), p.value()); });
    full.device().mapping().ForEachMapped(
        [&](Lpn l, Ppn p) { mb.emplace_back(l.value(), p.value()); });
    EXPECT_EQ(ma, mb) << "round " << round;
  }
  // The comparison is only meaningful if the fast path really took the
  // image route at least once.
  EXPECT_GT(fast.device().recovery_stats().checkpoint_loaded, 0u);
  EXPECT_EQ(full.device().recovery_stats().checkpoint_loaded, 0u);
}

// ---------------------------------------------------------------------------
// Incremental images against the from-scratch builder
// ---------------------------------------------------------------------------

/// What the image-equivalence sweep reached, so it can assert its reach.
struct ImageSweep {
  std::uint64_t images = 0;
  /// Images holding a run that crosses a zone boundary: only they can
  /// tell a join of the cached runs without the tail merge apart.
  std::uint64_t cross_zone_images = 0;
  std::uint64_t zones_restored = 0;
  std::uint64_t checkpoints_torn = 0;
  std::uint64_t zone_resets = 0;
  std::uint64_t gc_runs = 0;

  void Add(const ConZoneDevice& d) {
    zones_restored += d.recovery_stats().zones_restored;
    checkpoints_torn += d.recovery_stats().checkpoints_torn;
    zone_resets += d.stats().zone_resets;
    gc_runs += d.gc().stats().runs;
  }
};

/// Checkpoint now and hold the committed image to the from-scratch
/// reference byte for byte. Returns when the image is durable.
Result<SimTime> CheckpointAndCompare(CrashHarness& h, ImageSweep& sweep) {
  ConZoneDevice& d = h.device();
  auto ck = d.CheckpointNow(h.now());
  if (!ck.ok()) return ck.status();
  const CheckpointStore::Slot* slot = d.checkpoint_store().NewestValid();
  if (slot == nullptr) return Status::Internal("no valid image after CheckpointNow");
  if (slot->blob != d.CheckpointBlobForTest(slot->seq)) {
    return Status::Internal("image differs from the from-scratch reference");
  }
  ++sweep.images;
  const std::uint64_t lpns_per_zone =
      d.config().zone_size_bytes / d.config().geometry.slot_size;
  const std::optional<CheckpointImage> img = CheckpointImage::Decode(slot->blob);
  for (const MapRun& run : img->mappings) {
    if (run.lpn / lpns_per_zone != (run.lpn + run.count - 1) / lpns_per_zone) {
      ++sweep.cross_zone_images;
      break;
    }
  }
  return ck.value();
}

TEST(CheckpointCrashTest, IncrementalImagesMatchFromScratchBuilder) {
  // WriteCheckpoint re-walks only the zones whose mapping changed and
  // reuses cached runs and reconciles for the rest; a mount seeds the
  // cache of every zone it restores from the image. A checkpoint at every
  // op boundary and after every remount must commit exactly the bytes
  // the from-scratch builder produces.
  struct Leg {
    const char* name;
    ConZoneConfig cfg;
    std::uint64_t seeds;
    int rounds;
    std::uint64_t min_ops, max_ops;
  };
  // Tight intervals, so images are written mid-op and cuts tear them;
  // two conventional zones, whose fixed set-up below maps one run across
  // the boundary between them.
  ConZoneConfig tight = CkptCrashConfig(/*interval=*/8, /*min_flush=*/4);
  tight.num_conventional_zones = 2;
  // The crash_remount workload's device: default image policy, one
  // filled zone past the four active ones.
  ConZoneConfig remount = ConZoneConfig::PaperConfig();
  remount.geometry.blocks_per_chip = 40;
  remount.geometry.slc_blocks_per_chip = 8;
  remount.fault.power_loss = true;
  remount.l2p_log.enabled = true;
  remount.checkpoint.enabled = true;
  const Leg legs[] = {{"tight", tight, 3, 40, 3, 20}, {"remount", remount, 2, 12, 100, 100}};

  ImageSweep sweep;
  for (const Leg& leg : legs) {
    const FlashGeometry& geo = leg.cfg.geometry;
    const std::uint64_t zone_bytes = leg.cfg.zone_size_bytes;
    const std::uint64_t unit = geo.program_unit / geo.slot_size;
    for (std::uint64_t seed = 1; seed <= leg.seeds; ++seed) {
      CrashHarness::Options opt;
      opt.seed = seed;
      CrashHarness h(leg.cfg, opt);
      ASSERT_TRUE(h.Init().ok());
      if (leg.cfg.num_conventional_zones > 0) {
        // Conventional units round-robin over the chips: zone 0's last
        // unit, one unit on every other chip, then zone 1's first unit,
        // which lands right behind zone 0's in the same pool block.
        ASSERT_TRUE(h.WriteAndFlush(zone_bytes - unit * geo.slot_size, unit).ok());
        ASSERT_TRUE(h.WriteAndFlush(zone_bytes + unit * geo.slot_size,
                                    unit * (geo.NumChips() - 1))
                        .ok());
        ASSERT_TRUE(h.WriteAndFlush(zone_bytes, unit).ok());
      } else {
        const ZoneId filled{4};
        ASSERT_TRUE(h.WriteAndFlush(filled.value() * zone_bytes,
                                    h.device().zones().config().zone_capacity_bytes /
                                        geo.slot_size)
                        .ok());
      }
      Rng pick(seed);
      for (int round = 0; round < leg.rounds; ++round) {
        const std::uint64_t ops = leg.min_ops + pick.NextBelow(leg.max_ops - leg.min_ops + 1);
        SimTime image_done;
        for (std::uint64_t op = 0; op < ops; ++op) {
          ASSERT_TRUE(h.RunOps(1).ok());
          auto ck = CheckpointAndCompare(h, sweep);
          ASSERT_TRUE(ck.ok()) << leg.name << " seed " << seed << " round " << round
                               << " op " << op << ": " << ck.status().ToString();
          image_done = ck.value();
        }
        // Cut inside the last image's write (tearing it, so the mount
        // falls back to the image before) or after it.
        const std::uint64_t window = (image_done - h.now()).ns();
        ASSERT_TRUE(h.CutAt(h.now() + SimDuration::Nanos(static_cast<std::uint64_t>(
                                          pick.NextDouble() * 1.5 *
                                          static_cast<double>(window))))
                        .ok());
        Status st = h.RecoverAndVerify();
        ASSERT_TRUE(st.ok()) << leg.name << " seed " << seed << " round " << round << ": "
                             << st.message();
        auto ck = CheckpointAndCompare(h, sweep);
        ASSERT_TRUE(ck.ok()) << leg.name << " seed " << seed << " round " << round
                             << " after the remount: " << ck.status().ToString();
      }
      sweep.Add(h.device());
    }
  }
  // The sweep reached every case the cache must get right.
  EXPECT_GT(sweep.cross_zone_images, 0u);
  EXPECT_GT(sweep.zones_restored, 0u) << "no mount seeded the cache";
  EXPECT_GT(sweep.checkpoints_torn, 0u) << "no cut tore an image";
  EXPECT_GT(sweep.zone_resets, 0u);
  EXPECT_GT(sweep.gc_runs, 0u);
}

// ---------------------------------------------------------------------------
// Interaction with live member rebuild (PR 7 ReplaceMember)
// ---------------------------------------------------------------------------

TEST(CheckpointCrashTest, MidRebuildCheckpointDoesNotResurrectStaleMappings) {
  // Every rebuild tick ends in a member Flush, so min_flush_entries=1
  // makes the fresh member checkpoint continuously while rows stream in.
  // A cut + image-served remount mid-rebuild must leave only the durable
  // row prefix — never rows the image predates or postdates.
  ConZoneConfig cfg = CkptCrashConfig(/*interval=*/256, /*min_flush=*/1);

  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 5));
    ASSERT_TRUE(dev.ok());
    devs.push_back(std::move(dev).value());
  }
  RedundantVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  opt.rows_per_tick = 4;
  auto volr = RedundantVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t zb = v.info().zone_size_bytes;

  SimTime t;
  auto w = v.Write(IoRequest{0, zb, t, Tokens(0, zb / 4096)});
  ASSERT_TRUE(w.ok());
  auto w2 = v.Write(IoRequest{zb, zb / 2, w.value().done,
                              Tokens(4000, zb / 2 / 4096)});
  ASSERT_TRUE(w2.ok());
  SimTime now = w2.value().done;

  auto freshr = ConZoneDevice::Create(cfg.ForShard(9, 5));
  ASSERT_TRUE(freshr.ok());
  ConZoneDevice* fresh = freshr.value().get();
  ASSERT_TRUE(v.MarkFailed(1).ok());
  ASSERT_TRUE(v.ReplaceMember(1, std::move(freshr).value(), now).ok());

  for (int i = 0; i < 3 && v.rebuild_active(); ++i) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_TRUE(v.rebuild_active());
  // The per-tick flushes really did write images before the cut.
  ASSERT_GT(fresh->recovery_stats().checkpoints_written, 0u);
  ASSERT_TRUE(fresh->PowerCut(now).ok());

  auto dead = v.Tick(now);
  ASSERT_FALSE(dead.ok());

  auto rec = fresh->Recover(now);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  now = rec.value();
  int ticks = 0;
  for (; ticks < 100000 && v.rebuild_active(); ++ticks) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_FALSE(v.rebuild_active()) << "rebuild did not finish in " << ticks;
  EXPECT_EQ(v.Redundancy().rebuilds_completed, 1u);

  const std::uint32_t zones = v.member(0).info().num_zones;
  for (std::uint32_t z = 0; z < zones; ++z) {
    EXPECT_EQ(MemberZonePrefix(v.member(1), z, now),
              MemberZonePrefix(v.member(0), z, now))
        << "zone " << z;
  }
}

// ---------------------------------------------------------------------------
// Opt-in soak (CI crash-matrix label / CONZONE_CRASH_SOAK=1)
// ---------------------------------------------------------------------------

TEST(CheckpointCrashSoakTest, ManyRandomCutsWithRandomIntervalsSoak) {
  if (std::getenv("CONZONE_CRASH_SOAK") == nullptr) {
    GTEST_SKIP() << "set CONZONE_CRASH_SOAK=1 to run the 10k-cut soak";
  }
  Rng pick(0xC4B7ull);
  constexpr int kInstances = 5;
  constexpr int kCutsPerInstance = 2000;
  for (int inst = 0; inst < kInstances; ++inst) {
    // Random interval per instance: 16..4096 entries, random flush floor.
    const std::uint64_t interval = 16ull << pick.NextBelow(9);
    const std::uint64_t min_flush = 1 + pick.NextBelow(interval);
    CrashHarness::Options opt;
    opt.seed = 0x50A7ull + static_cast<std::uint64_t>(inst);
    CrashHarness h(CkptCrashConfig(interval, min_flush), opt);
    ASSERT_TRUE(h.Init().ok());
    for (int round = 0; round < kCutsPerInstance; ++round) {
      ASSERT_TRUE(h.RunOps(3 + pick.NextBelow(15)).ok())
          << "inst=" << inst << " round=" << round;
      ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.5).ok())
          << "inst=" << inst << " round=" << round;
      Status st = h.RecoverAndVerify();
      ASSERT_TRUE(st.ok()) << "inst " << inst << " (interval " << interval
                           << ") round " << round << ": " << st.message();
    }
    EXPECT_EQ(h.device().recovery_stats().recoveries,
              static_cast<std::uint64_t>(kCutsPerInstance));
  }
}

}  // namespace
}  // namespace conzone
