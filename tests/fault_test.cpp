// Reliability-path tests: deterministic fault injection (FaultModel),
// bad-block retirement at the media layer, GC behavior around retired
// blocks, the device-level recovery paths (program-failure re-drive,
// erase-failure retirement, read-only degradation), per-IO error
// reporting in the workload runner, and a randomized 10k-IO fault soak
// with full data-integrity and counter-reconciliation checks.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/device.hpp"
#include "fault/fault_model.hpp"
#include "flash/array.hpp"
#include "flash/slc_allocator.hpp"
#include "gc/slc_gc.hpp"
#include "workload/fio.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

// ---------------------------------------------------------------------------
// FaultModel unit tests
// ---------------------------------------------------------------------------

FaultConfig Rates(double pf, double ef, double rr) {
  FaultConfig cfg;
  cfg.slc.program_fail = pf;
  cfg.slc.erase_fail = ef;
  cfg.slc.read_retry = rr;
  cfg.normal = cfg.slc;
  return cfg;
}

TEST(FaultModelTest, NullModelIsDisabled) {
  FaultModel null_model;
  EXPECT_FALSE(null_model.enabled());
  EXPECT_FALSE(FaultConfig{}.AnyFaults());
  FaultModel zero_rates{FaultConfig{}};
  EXPECT_FALSE(zero_rates.enabled());
}

TEST(FaultModelTest, ValidateRejectsBadRates) {
  EXPECT_TRUE(FaultConfig{}.Validate().ok());
  EXPECT_TRUE(FaultConfig::ConsumerDefaults().Validate().ok());
  EXPECT_FALSE(Rates(-0.1, 0, 0).Validate().ok());
  EXPECT_FALSE(Rates(0, 1.5, 0).Validate().ok());
  FaultConfig bad_decay = Rates(0, 0, 0.1);
  bad_decay.read_retry_decay = 2.0;
  EXPECT_FALSE(bad_decay.Validate().ok());
}

TEST(FaultModelTest, SameSeedSameSequence) {
  const FaultConfig cfg = Rates(0.3, 0.3, 0.3);
  FaultModel a{cfg};
  FaultModel b{cfg};
  for (int i = 0; i < 2000; ++i) {
    const bool slc = (i % 3) != 0;
    const std::uint32_t ec = static_cast<std::uint32_t>(i % 7);
    ASSERT_EQ(a.ProgramFails(slc, ec), b.ProgramFails(slc, ec)) << i;
    ASSERT_EQ(a.EraseFails(slc, ec), b.EraseFails(slc, ec)) << i;
    ASSERT_EQ(a.ReadRetryLevel(slc, ec), b.ReadRetryLevel(slc, ec)) << i;
  }
  EXPECT_EQ(a.counters().program_faults, b.counters().program_faults);
  EXPECT_EQ(a.counters().erase_faults, b.counters().erase_faults);
  EXPECT_EQ(a.counters().reads_with_retry, b.counters().reads_with_retry);
  EXPECT_EQ(a.counters().retry_steps, b.counters().retry_steps);
  EXPECT_GT(a.counters().program_faults, 0u);  // rates high enough to fire
}

TEST(FaultModelTest, DifferentSeedDifferentSequence) {
  FaultConfig cfg = Rates(0.3, 0.3, 0.3);
  FaultModel a{cfg};
  cfg.seed ^= 0xDEADBEEFull;
  FaultModel b{cfg};
  bool diverged = false;
  for (int i = 0; i < 2000 && !diverged; ++i) {
    diverged = a.ProgramFails(true, 0) != b.ProgramFails(true, 0);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultModelTest, RetryLevelsRespectCapAndDecay) {
  // decay = 1: each further step is a fresh p=0.5 draw (geometric), so
  // levels spread over [0, cap] and the cap is hit but never exceeded.
  FaultConfig cfg = Rates(0, 0, 0.5);
  cfg.read_retry_decay = 1.0;
  cfg.max_read_retries = 5;
  FaultModel capped{cfg};
  bool saw_cap = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t level = capped.ReadRetryLevel(true, 0);
    ASSERT_LE(level, 5u);
    saw_cap |= (level == 5);
  }
  EXPECT_TRUE(saw_cap);

  // decay = 0: never more than one step.
  cfg.read_retry_decay = 0.0;
  FaultModel single{cfg};
  bool saw_one = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t level = single.ReadRetryLevel(true, 0);
    ASSERT_LE(level, 1u);
    saw_one |= (level == 1);
  }
  EXPECT_TRUE(saw_one);
}

TEST(FaultModelTest, WearCouplingRaisesFailureRate) {
  FaultConfig cfg = Rates(0.01, 0, 0);
  cfg.rated_endurance = 100;
  cfg.wear_slope = 0.05;  // 100 erases past rating => 5x the base rate
  FaultModel model{cfg};
  int fresh = 0, worn = 0;
  for (int i = 0; i < 20000; ++i) {
    if (model.ProgramFails(true, 0)) ++fresh;
    if (model.ProgramFails(true, 200)) ++worn;
  }
  EXPECT_GT(worn, 2 * fresh);
}

// ---------------------------------------------------------------------------
// Media layer: retirement, scrubbing, counters
// ---------------------------------------------------------------------------

FlashGeometry FaultGeo() {
  FlashGeometry g;
  g.blocks_per_chip = 10;
  g.slc_blocks_per_chip = 4;
  g.pages_per_block = 12;
  return g;
}

std::vector<SlotWrite> MakeWrites(std::uint64_t first_lpn, std::size_t n) {
  std::vector<SlotWrite> w;
  for (std::size_t i = 0; i < n; ++i) w.push_back({Lpn{first_lpn + i}, first_lpn + i});
  return w;
}

TEST(ArrayFaultTest, ProgramFailureBurnsSlotsAndRetiresBlock) {
  FlashArray array(FaultGeo());
  FaultModel model{Rates(1.0, 0, 0)};
  array.AttachFaultModel(&model);
  const BlockId block{0};  // SLC

  const auto writes = MakeWrites(0, 4);
  Status st = array.ProgramSlots(block, writes);
  ASSERT_EQ(st.code(), StatusCode::kMediaError) << st.ToString();
  EXPECT_TRUE(array.IsRetired(block));
  // The pulse burned the slots: cursor advanced, nothing valid, nothing
  // counted as programmed.
  EXPECT_EQ(array.NextProgramSlot(block), 4u);
  EXPECT_EQ(array.ValidSlots(block), 0u);
  EXPECT_EQ(array.counters().slots_programmed_slc, 0u);
  EXPECT_EQ(array.reliability().program_failures_slc, 1u);
  EXPECT_EQ(array.reliability().retired_blocks_slc, 1u);
  EXPECT_EQ(model.counters().program_faults, 1u);

  // Retired blocks refuse further programs and erases outright.
  EXPECT_EQ(array.ProgramSlots(block, writes).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(array.EraseBlock(block).code(), StatusCode::kFailedPrecondition);
}

TEST(ArrayFaultTest, EraseFailureAccruesWearAndScrubKeepsCursor) {
  FlashArray array(FaultGeo());
  FaultModel model{Rates(0, 1.0, 0)};
  array.AttachFaultModel(&model);
  const BlockId block{0};

  ASSERT_TRUE(array.ProgramSlots(block, MakeWrites(0, 4)).ok());
  Status st = array.EraseBlock(block);
  ASSERT_EQ(st.code(), StatusCode::kMediaError) << st.ToString();
  EXPECT_TRUE(array.IsRetired(block));
  EXPECT_EQ(array.EraseCount(block), 1u);  // the failed pulse still wore the oxide
  EXPECT_EQ(array.reliability().erase_failures_slc, 1u);

  // Scrub drops the untrusted content but keeps the cursor: the block is
  // never programmed again, so stripe math stays consistent.
  array.ScrubBlock(block);
  EXPECT_EQ(array.ValidSlots(block), 0u);
  EXPECT_EQ(array.NextProgramSlot(block), 4u);
  EXPECT_EQ(array.StateOfSlot(Ppn{0}), SlotState::kInvalid);
}

TEST(ArrayFaultTest, HealthySlcBlocksTracksRetirement) {
  FlashArray array(FaultGeo());
  const std::uint32_t total = FaultGeo().slc_blocks_per_chip * FaultGeo().NumChips();
  EXPECT_EQ(array.HealthySlcBlocks(), total);
  array.RetireBlock(BlockId{0});
  array.RetireBlock(BlockId{0});  // idempotent
  EXPECT_EQ(array.HealthySlcBlocks(), total - 1);
  EXPECT_EQ(array.reliability().retired_blocks_slc, 1u);
}

TEST(ArrayFaultTest, SlotsPastTheProgramCursorStayErased) {
  // Seeded program, burn, invalidate, scrub, erase and cut sequences:
  // after every step, every slot at or past a block's program cursor
  // reads erased. An erase journals and clears only the slots below the
  // cursor on the strength of this invariant.
  FaultConfig fc;
  fc.slc.program_fail = fc.normal.program_fail = 0.01;
  fc.slc.erase_fail = fc.normal.erase_fail = 0.01;
  std::uint64_t burns = 0, erase_failures = 0, restored = 0, reerased = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fc.seed = seed;
    FaultModel fault(fc);
    FlashArray a(FaultGeo());
    a.AttachFaultModel(&fault);
    a.EnableJournal(true);
    const FlashGeometry& geo = a.geometry();
    const std::uint64_t per_block = std::uint64_t{geo.pages_per_block} * geo.SlotsPerPage();
    const auto unit = static_cast<std::uint32_t>(geo.program_unit / geo.slot_size);
    Rng rng(seed);
    std::uint64_t now = 1000;
    std::uint64_t token = 1;
    for (int step = 0; step < 1500; ++step) {
      const BlockId b{rng.NextBelow(geo.TotalBlocks())};
      const std::uint32_t cursor = a.NextProgramSlot(b);
      const std::uint64_t mark = a.MarkJournal();
      switch (rng.NextBelow(6)) {
        case 0:
        case 1: {  // a program fault burns the slots and retires the block
          const std::uint32_t n =
              geo.IsSlcBlock(b) ? 1 + static_cast<std::uint32_t>(rng.NextBelow(4)) : unit;
          if (a.IsRetired(b) || cursor + n > a.UsableSlots(b)) break;
          std::vector<SlotWrite> w(n);
          for (SlotWrite& sw : w) {
            sw = SlotWrite{Lpn{token}, token};
            ++token;
          }
          (void)a.ProgramSlots(b, w);
          break;
        }
        case 2:
          if (cursor > 0) {
            const Ppn p{b.value() * per_block + rng.NextBelow(cursor)};
            if (a.StateOfSlot(p) == SlotState::kValid) ASSERT_TRUE(a.InvalidateSlot(p).ok());
          }
          break;
        case 3:
          if (a.IsRetired(b)) a.ScrubBlock(b);
          break;
        case 4:  // a failed erase retires the block and leaves its slots
          if (!a.IsRetired(b)) (void)a.EraseBlock(b);
          break;
        default: {  // cut into recent windows, then re-erase what it tore
          const auto rep = a.ApplyPowerCut(SimTime::FromNanos(now - rng.NextBelow(400)));
          restored += rep.restored_erases;
          a.PauseJournal(true);
          for (const BlockId r : rep.reerase) {
            ++reerased;
            if (!a.IsRetired(r) && !a.EraseBlock(r).ok()) a.ScrubBlock(r);
          }
          a.PauseJournal(false);
          break;
        }
      }
      a.StampJournal(mark, SimTime::FromNanos(now),
                     SimTime::FromNanos(now + 50 + rng.NextBelow(200)));
      now += 1 + rng.NextBelow(100);
      for (std::uint64_t blk = 0; blk < geo.TotalBlocks(); ++blk) {
        for (std::uint64_t s = a.NextProgramSlot(BlockId{blk}); s < per_block; ++s) {
          const SlotRead r = a.PeekSlot(Ppn{blk * per_block + s});
          ASSERT_TRUE(r.state == SlotState::kFree && !r.lpn.valid() && r.token == 0)
              << "seed " << seed << " step " << step << " block " << blk << " slot " << s;
        }
      }
    }
    burns += a.reliability().program_failures_slc + a.reliability().program_failures_normal;
    erase_failures +=
        a.reliability().erase_failures_slc + a.reliability().erase_failures_normal;
  }
  // The sequences reached every path that touches the cursor or the slots.
  EXPECT_GT(burns, 0u);
  EXPECT_GT(erase_failures, 0u);
  EXPECT_GT(restored, 0u);
  EXPECT_GT(reerased, 0u);
}

// ---------------------------------------------------------------------------
// GC around retired blocks
// ---------------------------------------------------------------------------

class GcFaultTest : public ::testing::Test {
 protected:
  GcFaultTest()
      : array_(FaultGeo()),
        engine_(FaultGeo(), TimingConfig{}),
        pool_(FaultGeo()),
        alloc_(array_, pool_),
        gc_(array_, engine_, pool_, alloc_) {}

  std::vector<Ppn> Stage(std::uint64_t first_lpn, std::size_t n) {
    auto ppns = alloc_.Program(MakeWrites(first_lpn, n));
    EXPECT_TRUE(ppns.ok()) << ppns.status().ToString();
    return {ppns.value().begin(), ppns.value().end()};
  }

  FlashArray array_;
  FlashTimingEngine engine_;
  SuperblockPool pool_;
  SlcAllocator alloc_;
  SlcGarbageCollector gc_;
};

TEST_F(GcFaultTest, VictimSelectionSkipsFullyRetiredSuperblocks) {
  const FlashGeometry geo = FaultGeo();
  const std::uint64_t per_sb =
      static_cast<std::uint64_t>(geo.SlcUsableSlotsPerBlock()) * geo.NumChips();
  auto first = Stage(0, per_sb);       // superblock 0: will be fully retired
  auto second = Stage(10000, per_sb);  // superblock 1: mostly invalid
  Stage(20000, 1);                     // superblock 2: current (excluded)

  for (std::size_t i = 0; i < second.size() - 2; ++i) {
    ASSERT_TRUE(array_.InvalidateSlot(second[i]).ok());
  }
  // Retire every block of superblock 0: even with zero valid slots it must
  // never be selected — there is nothing erasable to reclaim.
  for (const Ppn p : first) ASSERT_TRUE(array_.InvalidateSlot(p).ok());
  const SuperblockId sb0 = geo.SuperblockOfBlock(geo.BlockOfSlot(first[0]));
  for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
    array_.RetireBlock(geo.BlockOfSuperblock(sb0, ChipId{c}));
  }

  const SuperblockId victim = gc_.SelectVictim();
  ASSERT_TRUE(victim.valid());
  EXPECT_EQ(victim, geo.SuperblockOfBlock(geo.BlockOfSlot(second[0])));
}

TEST_F(GcFaultTest, EraseFaultsDuringGcRetireWithoutReleasing) {
  FaultModel model{Rates(0, 1.0, 0)};  // every erase fails
  array_.AttachFaultModel(&model);
  const FlashGeometry geo = FaultGeo();
  const std::uint64_t per_sb =
      static_cast<std::uint64_t>(geo.SlcUsableSlotsPerBlock()) * geo.NumChips();
  auto a = Stage(0, per_sb);
  Stage(10000, 1);  // current
  for (const Ppn p : a) ASSERT_TRUE(array_.InvalidateSlot(p).ok());

  const SuperblockId victim = gc_.SelectVictim();
  ASSERT_TRUE(victim.valid());
  const std::size_t free_before = pool_.FreeSlcCount();
  auto done = gc_.Run(SimTime::Zero());
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  // Both chips' erases failed: the superblock is permanently lost — it
  // must NOT return to the free list, and it must never be selected again.
  EXPECT_EQ(pool_.FreeSlcCount(), free_before);
  EXPECT_EQ(array_.reliability().erase_failures_slc, geo.NumChips());
  EXPECT_EQ(array_.reliability().retired_blocks_slc, geo.NumChips());
  EXPECT_NE(gc_.SelectVictim(), victim);
}

// ---------------------------------------------------------------------------
// Device-level recovery paths
// ---------------------------------------------------------------------------

ConZoneConfig SmallConfig() {
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

class DeviceFaultTest : public ::testing::Test {
 protected:
  void Create(const FaultConfig& fault) {
    ConZoneConfig cfg = SmallConfig();
    cfg.fault = fault;
    auto dev = ConZoneDevice::Create(cfg);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    dev_ = std::move(dev).value();
  }

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
};

TEST_F(DeviceFaultTest, ProgramFailuresRedriveAndEveryLpnStaysReadable) {
  // Every program failure retires a whole block, and a retired reserved
  // block re-drives the rest of its zone stripe into SLC — so the SLC
  // region needs headroom for the cascade. Double it relative to
  // SmallConfig; the rates then exercise both recovery paths without
  // exhausting capacity (that IS the semantics: graceful degradation has
  // a real capacity cost).
  ConZoneConfig cfg = SmallConfig();
  cfg.geometry.blocks_per_chip = 24;  // 8 SLC + 16 normal => 16 zones
  cfg.geometry.slc_blocks_per_chip = 8;
  cfg.fault.slc.program_fail = 0.005;
  cfg.fault.normal.program_fail = 0.01;
  cfg.fault.read_only_spare_floor_blocks = 0;
  auto dev = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  dev_ = std::move(dev).value();

  const std::uint64_t zone_bytes = dev_->config().zone_size_bytes;
  SimTime t;
  // Zone 0: full sequential fill (exercises the fold path + its re-drive).
  // Frequent explicit flushes on zone 1 exercise the SLC staging path.
  WriteAt(0, zone_bytes, t);
  for (std::uint64_t off = 0; off < zone_bytes / 8; off += 8 * 4096) {
    WriteAt(zone_bytes + off, 8 * 4096, t, /*salt=*/7);
    auto f = dev_->Flush(t);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    t = f.value();
  }

  const ReliabilityStats rel = dev_->Reliability();
  EXPECT_GT(rel.program_failures_slc + rel.program_failures_normal, 0u);
  EXPECT_GT(rel.rewrite_slots, 0u);
  EXPECT_GT(rel.RetiredBlocks(), 0u);

  // Every acked write must read back its exact token, wherever recovery
  // put the data.
  VerifyRead(0, zone_bytes, t);
  VerifyRead(zone_bytes, zone_bytes / 8, t, /*salt=*/7);
}

TEST_F(DeviceFaultTest, ResetEraseFailureDegradesZoneButKeepsItWritable) {
  FaultConfig fault;
  fault.normal.erase_fail = 1.0;
  fault.read_only_spare_floor_blocks = 0;
  Create(fault);

  const std::uint64_t superpage = dev_->config().geometry.SuperpageBytes();
  SimTime t;
  WriteAt(0, superpage, t);  // full-buffer flush folds into the reserved blocks
  auto f = dev_->Flush(t);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  t = f.value();

  auto r = dev_->ResetZone(ZoneId{0}, t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  t = r.value();
  const ReliabilityStats rel = dev_->Reliability();
  EXPECT_GT(rel.erase_failures_normal, 0u);
  EXPECT_EQ(rel.retired_blocks_normal, rel.erase_failures_normal);

  // The zone's reserved blocks are gone, but the zone still accepts a full
  // rewrite: the data re-drives into SLC under page mapping. No pulse is
  // burned this time (the block was known-bad before programming), so the
  // evidence is SLC media traffic, not rewrite_slots.
  const std::uint64_t slc_before = dev_->media_counters().slots_programmed_slc;
  WriteAt(0, superpage, t, /*salt=*/3);
  VerifyRead(0, superpage, t, /*salt=*/3);
  EXPECT_GT(dev_->media_counters().slots_programmed_slc, slc_before);
}

TEST_F(DeviceFaultTest, SpareFloorTripsReadOnlyButReadsKeepWorking) {
  FaultConfig fault;
  fault.slc.program_fail = 0.5;
  // 16 SLC blocks total on this geometry: the first retirement trips.
  fault.read_only_spare_floor_blocks = 16;
  Create(fault);

  SimTime t;
  std::uint64_t written = 0;
  Status write_error;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t off = written;
    auto tokens = Tokens(off / 4096, 8);
    auto w = TestWrite(*dev_, off, 8 * 4096, t, tokens);
    if (!w.ok()) {
      write_error = w.status();
      break;
    }
    t = w.value();
    written += 8 * 4096;
    auto f = dev_->Flush(t);  // stage to SLC so program faults can fire
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    t = f.value();
  }
  ASSERT_FALSE(write_error.ok()) << "device never tripped read-only";
  EXPECT_EQ(write_error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(write_error.ToString().find("read-only"), std::string::npos)
      << write_error.ToString();
  EXPECT_TRUE(dev_->read_only());
  EXPECT_EQ(dev_->Reliability().read_only_trips, 1u);

  // Everything acked before the trip still reads back.
  VerifyRead(0, written, t);
}

// ---------------------------------------------------------------------------
// Workload runner: per-IO error reporting
// ---------------------------------------------------------------------------

TEST_F(DeviceFaultTest, FioRunnerRecordsReadOnlyRejectionInsteadOfAborting) {
  // Gradual rate: the first retirement happens inside some flush, and the
  // NEXT write observes the tripped floor — rather than the whole region
  // collapsing inside a single staging run.
  FaultConfig fault;
  fault.slc.program_fail = 0.02;
  fault.read_only_spare_floor_blocks = 16;
  Create(fault);

  // Small synchronous writes force SLC staging (premature flushes), so
  // program faults fire until the spare floor trips mid-run.
  JobSpec writer;
  writer.name = "writer";
  writer.direction = IoDirection::kWrite;
  writer.pattern = IoPattern::kSequential;
  writer.block_size = 4096;
  writer.zone_list = {0, 1, 2, 3};
  writer.io_count = 100000;
  writer.iodepth = 2;
  writer.reset_zones_on_wrap = true;

  FioRunner runner(*dev_);
  auto run = runner.Run({writer});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(run.value().io_errors, 1u);
  ASSERT_EQ(run.value().jobs.size(), 1u);
  EXPECT_EQ(run.value().jobs[0].first_error.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(dev_->read_only());
  // The job stopped at the error; it did not burn the full budget.
  EXPECT_LT(run.value().jobs[0].throughput.ops, writer.io_count);
}

// ---------------------------------------------------------------------------
// Determinism across a realistic concurrent run, and the 10k-IO soak
// ---------------------------------------------------------------------------

struct SoakOutcome {
  std::string reliability;
  FaultCounters injected;
  std::uint64_t end_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t io_errors = 0;
};

SoakOutcome RunConcurrentFaultJob() {
  ConZoneConfig cfg = SmallConfig();
  cfg.fault = FaultConfig::ConsumerDefaults();
  cfg.fault.read_only_spare_floor_blocks = 0;
  auto dev = ConZoneDevice::Create(cfg);
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();

  SimTime t;
  {
    std::uint64_t end_ns = 0;
    SimTime end = SimTime::Zero();
    (void)end_ns;
    Status st = FioRunner::Precondition(*dev.value(), 0,
                                        4 * cfg.zone_size_bytes, 512 * kKiB, &end);
    EXPECT_TRUE(st.ok()) << st.ToString();
    t = end;
  }

  JobSpec reader;
  reader.name = "rr";
  reader.direction = IoDirection::kRead;
  reader.pattern = IoPattern::kRandom;
  reader.block_size = 4096;
  reader.region_offset = 0;
  reader.region_size = 4 * cfg.zone_size_bytes;
  reader.io_count = 2000;
  reader.iodepth = 4;

  JobSpec writer;
  writer.name = "sw";
  writer.direction = IoDirection::kWrite;
  writer.pattern = IoPattern::kSequential;
  writer.block_size = 16 * 4096;
  writer.zone_list = {8, 9};
  writer.io_count = 1000;
  writer.iodepth = 2;
  writer.reset_zones_on_wrap = true;

  FioRunner runner(*dev.value());
  auto run = runner.Run({reader, writer}, t);
  EXPECT_TRUE(run.ok()) << run.status().ToString();

  SoakOutcome out;
  out.reliability = dev.value()->Reliability().Summary();
  out.injected = dev.value()->fault_model().counters();
  out.end_ns = run.ok() ? run.value().end_time.ns() : 0;
  out.ops = run.ok() ? run.value().total.ops : 0;
  out.io_errors = run.ok() ? run.value().io_errors : 0;
  return out;
}

TEST(FaultDeterminismTest, ConcurrentRunsWithSameSeedAreBitIdentical) {
  const SoakOutcome a = RunConcurrentFaultJob();
  const SoakOutcome b = RunConcurrentFaultJob();
  EXPECT_EQ(a.reliability, b.reliability);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.injected.program_faults, b.injected.program_faults);
  EXPECT_EQ(a.injected.erase_faults, b.injected.erase_faults);
  EXPECT_EQ(a.injected.reads_with_retry, b.injected.reads_with_retry);
  EXPECT_EQ(a.injected.retry_steps, b.injected.retry_steps);
  // ConsumerDefaults must actually exercise the retry path on this run.
  EXPECT_GT(a.injected.reads_with_retry, 0u);
}

// 10k randomized IOs against ConsumerDefaults rates. Invariants checked
// throughout: every acked write reads back its exact token; the injected
// fault counters reconcile with the media layer's observed
// ReliabilityStats; and two identically-seeded runs match bit for bit.
SoakOutcome RunSoak() {
  ConZoneConfig cfg = SmallConfig();
  cfg.fault = FaultConfig::ConsumerDefaults();
  cfg.fault.read_only_spare_floor_blocks = 0;
  auto devr = ConZoneDevice::Create(cfg);
  EXPECT_TRUE(devr.ok()) << devr.status().ToString();
  ConZoneDevice& dev = *devr.value();

  const std::uint64_t zone_bytes = cfg.zone_size_bytes;
  const std::uint64_t slots_per_zone = zone_bytes / 4096;
  constexpr std::uint64_t kZones = 6;
  constexpr std::uint64_t kIos = 10000;

  // expected[z][slot] = token of the acked write, absent if unwritten.
  std::vector<std::map<std::uint64_t, std::uint64_t>> expected(kZones);
  std::vector<std::uint64_t> wp(kZones, 0);  // write pointer, in slots
  Rng rng;
  rng.Seed(20260806);

  SimTime t;
  std::uint64_t salt = 0;
  SoakOutcome out;
  for (std::uint64_t io = 0; io < kIos; ++io) {
    const std::uint64_t z = rng.NextBelow(kZones);
    const std::uint64_t kind = rng.NextBelow(10);
    if (kind < 5) {
      // Sequential append of 1..16 slots at the zone's write pointer.
      std::uint64_t n = 1 + rng.NextBelow(16);
      if (wp[z] + n > slots_per_zone) {
        // Full zone: reset it and restart the log (occasionally exercises
        // the reset path mid-run too).
        auto r = dev.ResetZone(ZoneId{z}, t);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        t = r.value();
        expected[z].clear();
        wp[z] = 0;
      }
      const std::uint64_t first = z * slots_per_zone + wp[z];
      ++salt;
      auto tokens = Tokens(first, n, salt);
      auto w = TestWrite(dev, first * 4096, n * 4096, t, tokens);
      if (!w.ok()) {
        EXPECT_EQ(w.status().code(), StatusCode::kResourceExhausted)
            << w.status().ToString();
        ++out.io_errors;
        continue;
      }
      t = w.value();
      for (std::uint64_t k = 0; k < n; ++k) expected[z][wp[z] + k] = tokens[k];
      wp[z] += n;
      ++out.ops;
    } else if (kind < 9) {
      // Read 1..8 acked slots starting at a random written position.
      if (wp[z] == 0) continue;
      const std::uint64_t start = rng.NextBelow(wp[z]);
      const std::uint64_t n = std::min<std::uint64_t>(1 + rng.NextBelow(8),
                                                      wp[z] - start);
      const std::uint64_t first = z * slots_per_zone + start;
      std::vector<std::uint64_t> got;
      auto r = TestRead(dev, first * 4096, n * 4096, t, &got);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) continue;
      t = r.value();
      EXPECT_EQ(got.size(), n);
      if (got.size() != n) continue;
      for (std::uint64_t k = 0; k < n; ++k) {
        EXPECT_EQ(got[k], expected[z][start + k])
            << "corrupt read: zone " << z << " slot " << start + k;
      }
      ++out.ops;
    } else {
      // Periodic flush: drains the buffers through the SLC staging path.
      auto f = dev.Flush(t);
      EXPECT_TRUE(f.ok()) << f.status().ToString();
      t = f.value();
    }
  }

  // Reconcile: what the fault model injected is exactly what the media
  // layer observed and recovered from.
  const ReliabilityStats rel = dev.Reliability();
  const FaultCounters& inj = dev.fault_model().counters();
  EXPECT_EQ(inj.program_faults, rel.program_failures_slc + rel.program_failures_normal);
  EXPECT_EQ(inj.erase_faults, rel.erase_failures_slc + rel.erase_failures_normal);
  EXPECT_EQ(inj.reads_with_retry, rel.reads_with_retry);
  EXPECT_EQ(inj.retry_steps, rel.read_retries);
  EXPECT_EQ(inj.program_faults + inj.erase_faults, rel.RetiredBlocks());
  // The soak must actually exercise the fault paths to mean anything.
  EXPECT_GT(inj.reads_with_retry, 0u);
  EXPECT_GT(inj.program_faults, 0u);

  out.reliability = rel.Summary();
  out.injected = inj;
  out.end_ns = t.ns();
  return out;
}

TEST(FaultSoakTest, TenThousandIosNoInvariantViolationsAndDeterministic) {
  const SoakOutcome a = RunSoak();
  if (::testing::Test::HasFailure()) return;  // invariant details above
  const SoakOutcome b = RunSoak();
  EXPECT_EQ(a.reliability, b.reliability);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.io_errors, b.io_errors);
}

}  // namespace
}  // namespace conzone
