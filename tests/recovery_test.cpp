// The mount's media passes (core/recovery.hpp), driven directly on a bare
// FlashArray, MappingTable and FlashTimingEngine: pass A's clean-run
// rule, the tail scan's skip/sense split and timing, pass B's install
// and stale drops, and the one double-copy check both installing passes
// share. Then the per-pass remount times of RecoveryStats, held to
// remount = re-erase + max(image load, tail scan) on every mount of a
// seeded crash stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/crash_checker.hpp"
#include "core/recovery.hpp"
#include "flash/array.hpp"
#include "flash/geometry.hpp"
#include "flash/timing.hpp"
#include "flash/timing_engine.hpp"
#include "ftl/mapping.hpp"

namespace conzone {
namespace {

constexpr std::uint32_t kZones = 8;
constexpr std::uint32_t kLpnsPerZone = 64;

/// 4 chips x 8 blocks (2 SLC each) of 12 pages: 48 slots per block, 16
/// usable in an SLC block. Block b's slot s is ppn 48 b + s.
FlashGeometry Geo() {
  FlashGeometry g;
  g.blocks_per_chip = 8;
  g.slc_blocks_per_chip = 2;
  g.pages_per_block = 12;
  return g;
}

class MountPassTest : public ::testing::Test {
 protected:
  MountPassTest()
      : array_(geo_),
        engine_(geo_, TimingConfig{}),
        table_(MappingGeometry{kZones * kLpnsPerZone, 16, kLpnsPerZone, 4096}),
        ms_(kZones, geo_.TotalBlocks(), {}) {}

  std::uint64_t SlotsPerBlock() const { return geo_.pages_per_block * geo_.SlotsPerPage(); }
  /// Ppn of slot `s` of block `b`.
  std::uint64_t PpnOf(std::uint64_t b, std::uint64_t s = 0) const {
    return b * SlotsPerBlock() + s;
  }
  /// Program `n` slots holding lpns first, first + 1, ... at block `b`'s
  /// cursor.
  void Program(std::uint64_t b, std::uint64_t first, std::uint64_t n) {
    std::vector<SlotWrite> w;
    for (std::uint64_t i = 0; i < n; ++i) w.push_back(SlotWrite{Lpn{first + i}, first + i});
    ASSERT_TRUE(array_.ProgramSlots(BlockId{b}, w).ok());
  }
  /// The image the mount loaded: `runs`, taken at the array's current
  /// program sequence.
  void TakeImage(std::vector<MapRun> runs) {
    ms_.image = CheckpointImage{};
    ms_.image->program_seq = array_.program_seq();
    ms_.image->mappings = std::move(runs);
  }
  std::vector<std::uint8_t> DirtyZones() const { return ms_.zone_dirty; }

  const FlashGeometry geo_ = Geo();
  FlashArray array_;
  FlashTimingEngine engine_;
  MappingTable table_;
  MountState ms_;
  RecoveryStats stats_;
};

// ---------------------------------------------------------------------------
// Pass A
// ---------------------------------------------------------------------------

TEST_F(MountPassTest, PassAKeepsRunsOverUnchangedMediaAndDirtiesTheZonesOfTheRest) {
  Program(0, 0, 16);    // zone 0
  Program(1, 64, 16);   // zone 1; a slot goes invalid after the image
  Program(8, 128, 16);  // zone 2; the cut's undo pass flags the block
  Program(9, 312, 16);  // zones 4 and 5
  Program(16, 376, 8);  // zones 5 and 6; programmed again after the image
  const std::uint64_t total_slots = geo_.TotalBlocks() * SlotsPerBlock();
  TakeImage({
      {0, PpnOf(0), 16},                  // clean
      {64, PpnOf(1), 16},                 // a block changed since the image
      {128, PpnOf(8), 16},                // a block flagged for a rescan
      {192, total_slots - 4, 8},          // ppns out of bounds (zone 3)
      {312, PpnOf(9), 16},                // clean, across zones 4 and 5
      {376, PpnOf(16), 16},               // a block changed, across zones 5 and 6
      {kZones * kLpnsPerZone - 8, 0, 16}  // lpns out of bounds (zone 7)
  });
  ASSERT_TRUE(array_.InvalidateSlot(Ppn{PpnOf(1, 3)}).ok());
  Program(16, 384, 8);
  ms_.rescan[8] = 1;

  MarkCleanRuns(array_, table_, ms_);
  EXPECT_EQ(ms_.run_clean, (std::vector<std::uint8_t>{1, 0, 0, 0, 1, 0, 0}));
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> keep{{0, 16}, {312, 16}};
  EXPECT_EQ(ms_.keep, keep);
  // An unclean run dirties exactly the zones it spans: zone 4 stays
  // clean, though its clean run continues into dirty zone 5.
  EXPECT_EQ(DirtyZones(), (std::vector<std::uint8_t>{0, 1, 1, 1, 0, 1, 1, 1}));
}

TEST_F(MountPassTest, PassAChecksEveryBlockARunSpans) {
  // Blocks 2 and 3 are consecutive normal blocks: a run over the last
  // slots of 2 and the first of 3 spans both.
  Program(2, 0, 24);
  const MapRun run{0, PpnOf(3) - 4, 8};
  TakeImage({run});
  MarkCleanRuns(array_, table_, ms_);
  EXPECT_EQ(ms_.run_clean, (std::vector<std::uint8_t>{1}));

  MountState later(kZones, geo_.TotalBlocks(), {});
  later.image = ms_.image;
  Program(3, 100, 24);  // only the second block changes
  MarkCleanRuns(array_, table_, later);
  EXPECT_EQ(later.run_clean, (std::vector<std::uint8_t>{0}));
  EXPECT_TRUE(later.keep.empty());
  EXPECT_EQ(later.zone_dirty, (std::vector<std::uint8_t>{1, 0, 0, 0, 0, 0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Tail scan
// ---------------------------------------------------------------------------

TEST_F(MountPassTest, TailScanSkipsBlocksTheImageCoversAndSensesTheRest) {
  Program(0, 0, 16);   // covered: at the watermark, not flagged
  Program(1, 64, 8);   // at the watermark, but flagged
  TakeImage({});
  Program(8, 128, 4);  // after the watermark
  ms_.rescan[1] = 1;
  const SimTime now = SimTime::Zero() + SimDuration::Micros(500);

  auto done = ScanTail(array_, table_, engine_, ms_, now, stats_);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(stats_.pages_skipped, 4u);  // block 0's 16 slots
  EXPECT_EQ(stats_.pages_scanned, 3u);  // 2 pages of block 1, 1 of block 8
  EXPECT_EQ(array_.counters().page_reads, 3u);
  // One sense per page, chained per block from `now`; the chips overlap.
  FlashTimingEngine ref(geo_, TimingConfig{});
  SimTime b1 = now;
  for (int p = 0; p < 2; ++p) b1 = ref.ReadPage(ChipId{0}, CellType::kSlc, geo_.page_size, b1);
  const SimTime b8 = ref.ReadPage(ChipId{1}, CellType::kSlc, geo_.page_size, now);
  EXPECT_EQ(done.value(), Later(b1, b8));

  EXPECT_EQ(stats_.replayed_mappings, 12u);
  EXPECT_EQ(table_.mapped_count(), 12u);
  EXPECT_FALSE(table_.Get(Lpn{0}).mapped());
  EXPECT_EQ(table_.Get(Lpn{70}).ppn, Ppn{PpnOf(1, 6)});
  EXPECT_EQ(table_.Get(Lpn{131}).ppn, Ppn{PpnOf(8, 3)});
  EXPECT_EQ(DirtyZones(), (std::vector<std::uint8_t>{0, 1, 1, 0, 0, 0, 0, 0}));
}

TEST_F(MountPassTest, TailScanWithoutAnImageSensesEveryUsedBlock) {
  Program(0, 0, 16);
  Program(8, 128, 4);
  ASSERT_TRUE(array_.InvalidateSlot(Ppn{PpnOf(0, 2)}).ok());
  auto done = ScanTail(array_, table_, engine_, ms_, SimTime::Zero(), stats_);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(stats_.pages_skipped, 0u);
  EXPECT_EQ(stats_.pages_scanned, 5u);
  EXPECT_GT(done.value(), SimTime::Zero());
  EXPECT_EQ(table_.mapped_count(), 19u);  // the invalid slot maps nothing
  EXPECT_FALSE(table_.Get(Lpn{2}).mapped());
}

/// A table left by ClearForMountExcept: `lpn` holds a stale entry in a
/// kept range, which the table's counts do not include.
void KeepStaleEntry(MappingTable& table, std::uint64_t lpn) {
  table.Set(Lpn{lpn}, Ppn{7});
  table.ClearForMountExcept({{lpn, 1}});
  ASSERT_EQ(table.mapped_count(), 0u);
}

TEST_F(MountPassTest, TailScanFailsOnTwoValidCopiesWithAWhollyClearedTable) {
  Program(0, 0, 8);
  Program(8, 5, 1);  // a second valid copy of lpn 5
  KeepStaleEntry(table_, 300);
  auto done = ScanTail(array_, table_, engine_, ms_, SimTime::Zero(), stats_);
  ASSERT_FALSE(done.ok());
  EXPECT_EQ(done.status().code(), StatusCode::kInternal);
  EXPECT_EQ(done.status().message(), "mount scan found two valid copies of lpn 5");
  EXPECT_EQ(table_.mapped_count(), 0u);
  EXPECT_FALSE(table_.Get(Lpn{5}).mapped());
  EXPECT_FALSE(table_.Get(Lpn{300}).mapped());  // the kept range too
}

// ---------------------------------------------------------------------------
// Pass B
// ---------------------------------------------------------------------------

TEST_F(MountPassTest, PassBInstallsCleanRunsWithTheirZonesMapBits) {
  // One clean run over the end of zone 0 and the start of zone 1. Zone 0
  // aggregates its first 48 lpns at chunk granularity, zone 1 the whole
  // zone.
  TakeImage({{40, 1000, 40}});
  ms_.run_clean = {1};
  ms_.agg[0] = Aggregation{48, MapGranularity::kChunk};
  ms_.agg[1] = Aggregation{kLpnsPerZone, MapGranularity::kZone};
  table_.ClearForMountExcept({{40, 40}});
  ASSERT_TRUE(InstallImage(array_, table_, ms_, stats_).ok());
  for (std::uint64_t lpn = 40; lpn < 80; ++lpn) {
    const MapEntry e = table_.Get(Lpn{lpn});
    EXPECT_EQ(e.ppn, Ppn{1000 + lpn - 40}) << lpn;
    const MapGranularity want = lpn < 48   ? MapGranularity::kChunk
                                : lpn < 64 ? MapGranularity::kPage
                                           : MapGranularity::kZone;
    EXPECT_EQ(e.gran, want) << lpn;
  }
  EXPECT_EQ(table_.mapped_count(), 40u);
  EXPECT_EQ(stats_.checkpoint_mappings, 40u);
  EXPECT_EQ(stats_.replayed_mappings, 40u);
  EXPECT_EQ(stats_.checkpoint_stale_dropped, 0u);
}

TEST_F(MountPassTest, PassBChecksUncleanRunsEntryByEntry) {
  Program(0, 0, 8);
  Program(0, 100, 4);  // slots 8-11 hold other lpns
  ASSERT_TRUE(array_.InvalidateSlot(Ppn{PpnOf(0, 2)}).ok());
  TakeImage({
      {0, PpnOf(0), 12},                  // lpn 2 invalid, 8-11 re-owned
      {200, PpnOf(8), 2},                 // free slots
      {kZones * kLpnsPerZone - 2, 0, 4},  // wrong lpns, then past the table
  });
  ms_.run_clean = {0, 0, 0};
  table_.Set(Lpn{0}, Ppn{PpnOf(0)});  // the tail scan's identical mapping
  ASSERT_TRUE(InstallImage(array_, table_, ms_, stats_).ok());
  EXPECT_EQ(stats_.checkpoint_stale_dropped, 1u + 4u + 4u + 2u);
  EXPECT_EQ(stats_.checkpoint_mappings, 6u);  // lpns 1 and 3-7
  EXPECT_EQ(stats_.replayed_mappings, 6u);
  EXPECT_EQ(table_.mapped_count(), 7u);
  EXPECT_FALSE(table_.Get(Lpn{2}).mapped());
  EXPECT_FALSE(table_.Get(Lpn{8}).mapped());
  EXPECT_EQ(table_.Get(Lpn{7}).ppn, Ppn{PpnOf(0, 7)});
  EXPECT_EQ(table_.Get(Lpn{7}).gran, MapGranularity::kPage);
}

TEST_F(MountPassTest, PassBFailsOnADoubleCopyLikeTheTailScan) {
  Program(0, 0, 8);
  Program(8, 5, 1);
  KeepStaleEntry(table_, 300);
  table_.Set(Lpn{5}, Ppn{PpnOf(8)});  // the tail scan sensed block 8's copy
  TakeImage({{0, PpnOf(0), 8}});
  ms_.run_clean = {0};
  const Status st = InstallImage(array_, table_, ms_, stats_);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "mount scan found two valid copies of lpn 5");
  EXPECT_EQ(table_.mapped_count(), 0u);
  EXPECT_FALSE(table_.Get(Lpn{0}).mapped());
  EXPECT_FALSE(table_.Get(Lpn{300}).mapped());
}

// ---------------------------------------------------------------------------
// Where a remount's simulated time goes
// ---------------------------------------------------------------------------

TEST(RemountTimeTest, RemountIsReeraseThenTheLongerOfImageLoadAndTailScan) {
  for (const bool checkpoints : {false, true}) {
    ConZoneConfig cfg = ConZoneConfig::PaperConfig();
    cfg.geometry.blocks_per_chip = 40;
    cfg.geometry.slc_blocks_per_chip = 8;
    cfg.fault.power_loss = true;
    cfg.l2p_log.enabled = true;
    cfg.checkpoint.enabled = checkpoints;
    CrashHarness::Options opt;
    opt.seed = 3;
    CrashHarness h(cfg, opt);
    ASSERT_TRUE(h.Init().ok());
    Rng pick(0x7133ull);
    int reerased = 0, loaded = 0, scanned = 0;
    for (int cut = 0; cut < 60; ++cut) {
      ASSERT_TRUE(h.RunOps(40).ok()) << "cut " << cut;
      ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.5).ok()) << "cut " << cut;
      const RecoveryStats before = h.device().recovery_stats();
      const Status st = h.RecoverAndVerify();
      ASSERT_TRUE(st.ok()) << "cut " << cut << ": " << st.message();
      const RecoveryStats& after = h.device().recovery_stats();
      const SimDuration remount = after.remount_time - before.remount_time;
      const SimDuration reerase = after.reerase_time - before.reerase_time;
      const SimDuration load = after.image_load_time - before.image_load_time;
      const SimDuration scan = after.tail_scan_time - before.tail_scan_time;
      EXPECT_EQ(remount.ns(), (reerase + std::max(load, scan)).ns())
          << "checkpoints " << checkpoints << " cut " << cut;
      reerased += reerase > SimDuration() ? 1 : 0;
      loaded += load > SimDuration() ? 1 : 0;
      scanned += scan > SimDuration() ? 1 : 0;
    }
    // The identity is only tested where each pass took time.
    EXPECT_GT(reerased, 0) << "checkpoints " << checkpoints;
    EXPECT_GT(scanned, 0) << "checkpoints " << checkpoints;
    if (checkpoints) {
      EXPECT_GT(loaded, 0);
    } else {
      EXPECT_EQ(loaded, 0);
    }
  }
}

}  // namespace
}  // namespace conzone
