// Power-loss emulation and crash-consistent recovery.
//
// Covers: the PowerCut()/Recover() API contract, durability of
// acknowledged flushes, the L2P-log flush/crash accounting race, a
// deterministic cut sweep over every op boundary of a scripted workload,
// randomized cut times across seeds, bit-identical same-seed recovery,
// interaction with NAND fault injection, conventional-zone recovery
// semantics (a pinned cut stream), and opt-in many-cut soaks with and
// without conventional zones (CONZONE_CRASH_SOAK=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "core/crash_checker.hpp"
#include "core/device.hpp"
#include "flash/array.hpp"
#include "ftl/l2p_log.hpp"

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
  cfg.l2p_log.enabled = true;  // Exercise the log's volatile tail too.
  return cfg;
}

// ---------------------------------------------------------------------------
// API contract
// ---------------------------------------------------------------------------

TEST(CrashApiTest, PowerCutRequiresPowerLossEnabled) {
  auto dev = ConZoneDevice::Create(SmallConfig());
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ((*dev)->PowerCut(SimTime::Zero()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CrashApiTest, OpsRejectedWhilePoweredOffAndRecoverRestoresService) {
  auto dev = ConZoneDevice::Create(CrashConfig());
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  const std::uint64_t zone_bytes = d.config().zone_size_bytes;
  auto w = TestWrite(d, 0, 8 * 4096, SimTime::Zero());
  ASSERT_TRUE(w.ok());

  ASSERT_TRUE(d.PowerCut(w.value()).ok());
  EXPECT_TRUE(d.powered_off());
  EXPECT_EQ(TestWrite(d, zone_bytes, 4096, w.value()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(TestRead(d, 0, 4096, w.value()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(d.Flush(w.value()).status().code(), StatusCode::kFailedPrecondition);
  // Recover on a powered-off device works; on a powered-on one it fails.
  auto r = d.Recover(w.value());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(d.powered_off());
  EXPECT_GE(r.value(), w.value());
  EXPECT_EQ(d.Recover(r.value()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(d.recovery_stats().power_cuts, 1u);
  EXPECT_EQ(d.recovery_stats().recoveries, 1u);
}

TEST(CrashApiTest, CutMayNotPrecedeLastSubmission) {
  auto dev = ConZoneDevice::Create(CrashConfig());
  ASSERT_TRUE(dev.ok());
  const SimTime t = SimTime::FromNanos(1000000);
  ASSERT_TRUE(TestWrite(**dev, 0, 4096, t).ok());
  EXPECT_EQ((*dev)->PowerCut(SimTime::Zero()).code(), StatusCode::kInvalidArgument);
}

TEST(CrashApiTest, AcknowledgedFlushSurvivesImmediateCut) {
  auto dev = ConZoneDevice::Create(CrashConfig());
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  // An unaligned tail keeps part of the data in SRAM and SLC staging —
  // the exact state a flush must force all the way to media.
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t i = 0; i < 29; ++i) tokens.push_back(1000 + i);
  auto w = TestWrite(d, 0, tokens.size() * 4096, SimTime::Zero(), tokens);
  ASSERT_TRUE(w.ok());
  auto f = d.Flush(w.value());
  ASSERT_TRUE(f.ok());

  // Cut at the exact flush-completion instant: nothing acknowledged may
  // be lost, no matter how unlucky the timing.
  ASSERT_TRUE(d.PowerCut(f.value()).ok());
  auto r = d.Recover(f.value());
  ASSERT_TRUE(r.ok());

  std::vector<std::uint64_t> got;
  auto rd = TestRead(d, 0, tokens.size() * 4096, r.value(), &got);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(got, tokens);
  EXPECT_EQ(d.zones().Info(ZoneId{0}).write_pointer, tokens.size() * 4096);
}

TEST(CrashApiTest, UnflushedBufferContentIsLostButZoneStaysPrefixConsistent) {
  auto dev = ConZoneDevice::Create(CrashConfig());
  ASSERT_TRUE(dev.ok());
  ConZoneDevice& d = **dev;
  // 3 slots stay purely in SRAM (below any program threshold).
  std::vector<std::uint64_t> tokens{7, 8, 9};
  auto w = TestWrite(d, 0, 3 * 4096, SimTime::Zero(), tokens);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(d.PowerCut(w.value()).ok());
  auto r = d.Recover(w.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(d.zones().Info(ZoneId{0}).write_pointer, 0u);
  EXPECT_GE(d.recovery_stats().buffered_slots_lost, 3u);
  // The zone accepts writes from the reverted pointer again.
  EXPECT_TRUE(TestWrite(d, 0, 4096, r.value()).ok());
}

// ---------------------------------------------------------------------------
// L2P log flush accounting across a crash (satellite regression)
// ---------------------------------------------------------------------------

TEST(L2pLogCrashTest, FlushAtExactThresholdBoundaryKeepsAccountingConsistent) {
  L2pLogConfig cfg;
  cfg.enabled = true;
  cfg.entry_bytes = 8;
  cfg.flush_threshold_bytes = 64;
  L2pLog log(cfg);

  log.Append(8);  // Exactly one threshold worth.
  ASSERT_TRUE(log.NeedsFlush());
  const std::uint64_t bytes = log.BeginFlush();
  EXPECT_EQ(bytes, 64u);
  EXPECT_EQ(log.pending_bytes(), 0u);
  EXPECT_FALSE(log.NeedsFlush());
  log.CommitFlush(bytes, SimTime::FromNanos(500));

  // Crash-free invariant.
  EXPECT_EQ(log.stats().bytes_flushed + log.pending_bytes(),
            log.stats().entries_appended * cfg.entry_bytes);
}

TEST(L2pLogCrashTest, CrashDuringFlushNeverDoubleCountsBytes) {
  L2pLogConfig cfg;
  cfg.enabled = true;
  cfg.entry_bytes = 8;
  cfg.flush_threshold_bytes = 64;
  L2pLog log(cfg);

  log.Append(8);
  const std::uint64_t bytes = log.BeginFlush();
  log.CommitFlush(bytes, SimTime::FromNanos(500));
  log.Append(3);  // 24 pending bytes on top of the in-flight commit.

  // Cut lands before the flush program's media completion: the commit
  // must roll back exactly once, together with the pending tail.
  const std::uint64_t lost = log.DropVolatile(SimTime::FromNanos(100));
  EXPECT_EQ(lost, 64u + 24u);
  EXPECT_EQ(log.stats().bytes_flushed, 0u);
  EXPECT_EQ(log.stats().flushes, 0u);
  EXPECT_EQ(log.stats().flushes_lost, 1u);
  EXPECT_EQ(log.stats().bytes_lost, 88u);
  // Conservation: every appended byte is flushed, pending, or lost.
  EXPECT_EQ(log.stats().bytes_flushed + log.pending_bytes() + log.stats().bytes_lost,
            log.stats().entries_appended * cfg.entry_bytes);
}

TEST(L2pLogCrashTest, CompletedFlushSurvivesCutAndPruneForgetsOldCommits) {
  L2pLogConfig cfg;
  cfg.enabled = true;
  cfg.entry_bytes = 8;
  cfg.flush_threshold_bytes = 64;
  L2pLog log(cfg);

  log.Append(8);
  log.CommitFlush(log.BeginFlush(), SimTime::FromNanos(500));
  log.PruneCommits(SimTime::FromNanos(600));  // Commit is out of cut range.
  log.Append(2);
  const std::uint64_t lost = log.DropVolatile(SimTime::FromNanos(700));
  EXPECT_EQ(lost, 16u);  // Only the pending tail; the flush stands.
  EXPECT_EQ(log.stats().bytes_flushed, 64u);
  EXPECT_EQ(log.stats().flushes, 1u);
  EXPECT_EQ(log.stats().flushes_lost, 0u);
}

// ---------------------------------------------------------------------------
// Crash-point sweep (tier-1 property suite)
// ---------------------------------------------------------------------------

TEST(CrashSweepTest, EveryOpBoundaryRecoversConsistent) {
  // For a fixed scripted workload, cut at the submission boundary of
  // every op in turn (plus mid-window and completion variants) and run
  // the full consistency check each time.
  constexpr std::size_t kOps = 48;
  for (std::size_t k = 1; k <= kOps; ++k) {
    CrashHarness::Options opt;
    opt.seed = 42;
    CrashHarness h(CrashConfig(), opt);
    ASSERT_TRUE(h.Init().ok());
    ASSERT_TRUE(h.RunOps(k).ok()) << "ops=" << k;
    const double frac = (k % 3 == 0) ? 0.0 : (k % 3 == 1) ? 0.5 : 1.0;
    ASSERT_TRUE(h.Cut(frac).ok()) << "ops=" << k;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "cut after op " << k << " (frac " << frac
                         << "): " << st.message();
  }
}

TEST(CrashSweepTest, RandomCutTimesAcrossSeedsRecoverConsistent) {
  Rng pick(0xD00DF00Dull);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    CrashHarness::Options opt;
    opt.seed = seed;
    CrashHarness h(CrashConfig(), opt);
    ASSERT_TRUE(h.Init().ok());
    ASSERT_TRUE(h.RunOps(10 + pick.NextBelow(40)).ok()) << "seed=" << seed;
    // Reach up to 1.5x past the last op's completion: background program
    // pulses (premature flushes, folds, GC) extend beyond it and must
    // tear cleanly too.
    ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.5).ok()) << "seed=" << seed;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.message();
  }
}

TEST(CrashSweepTest, RepeatedCutsOnOneDeviceStayConsistent) {
  // The checker re-baselines after each verified recovery, so one device
  // can survive many cut/recover rounds with full verification each time.
  CrashHarness::Options opt;
  opt.seed = 7;
  CrashHarness h(CrashConfig(), opt);
  ASSERT_TRUE(h.Init().ok());
  Rng pick(0xBEEFull);
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(h.RunOps(8 + pick.NextBelow(24)).ok()) << "round=" << round;
    ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.2).ok()) << "round=" << round;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.message();
  }
  EXPECT_EQ(h.device().recovery_stats().recoveries, 12u);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(CrashDeterminismTest, SameSeedAndCutReproduceBitIdenticalRecovery) {
  auto run = [](std::uint64_t* fp1, std::uint64_t* fp2) {
    CrashHarness::Options opt;
    opt.seed = 99;
    CrashHarness h(CrashConfig(), opt);
    ASSERT_TRUE(h.Init().ok());
    ASSERT_TRUE(h.RunOps(40).ok());
    ASSERT_TRUE(h.Cut(0.37).ok());
    ASSERT_TRUE(h.RecoverAndVerify().ok());
    *fp1 = h.fingerprint();
    // A second cut/recover round must also replay identically.
    ASSERT_TRUE(h.RunOps(20).ok());
    ASSERT_TRUE(h.Cut(0.81).ok());
    ASSERT_TRUE(h.RecoverAndVerify().ok());
    *fp2 = h.fingerprint();
  };
  std::uint64_t a1 = 0, a2 = 0, b1 = 0, b2 = 0;
  run(&a1, &a2);
  run(&b1, &b2);
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a2, b2);
  EXPECT_NE(a1, a2);  // Different rounds observe different state.
}

// ---------------------------------------------------------------------------
// Interactions
// ---------------------------------------------------------------------------

TEST(CrashFaultInteropTest, CutsWithNandFaultInjectionStayConsistent) {
  ConZoneConfig cfg = CrashConfig();
  // Low rates: recovery paths fire occasionally without tripping the
  // read-only floor in a short run.
  cfg.fault.slc.program_fail = 5e-3;
  cfg.fault.slc.erase_fail = 5e-3;
  cfg.fault.normal.program_fail = 2e-3;
  cfg.fault.normal.erase_fail = 2e-3;
  cfg.fault.seed = 4242;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    CrashHarness::Options opt;
    opt.seed = seed;
    CrashHarness h(cfg, opt);
    ASSERT_TRUE(h.Init().ok());
    ASSERT_TRUE(h.RunOps(40).ok()) << "seed=" << seed;
    ASSERT_TRUE(h.Cut(0.6).ok());
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.message();
  }
}

TEST(CrashConventionalTest, ConventionalZonesRecoverDurableOrLaterValues) {
  ConZoneConfig cfg = CrashConfig();
  cfg.num_conventional_zones = 2;
  CrashHarness::Options opt;
  opt.seed = 11;
  opt.conv_prob = 0.5;  // Hammer the in-place region.
  CrashHarness h(cfg, opt);
  ASSERT_TRUE(h.Init().ok());
  Rng pick(0xC0FFEEull);
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(h.RunOps(25).ok()) << "round=" << round;
    ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.2).ok());
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.message();
  }
}

// The cut stream that first exposed lost conventional-zone overwrites: a
// rewrite landed in the other write buffer than the older copy, and the
// older copy's later flush superseded it (seed 2 failed at round 238).
ConZoneConfig ConventionalCrashConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 40;
  cfg.geometry.slc_blocks_per_chip = 8;
  cfg.num_conventional_zones = 2;
  cfg.fault.power_loss = true;
  cfg.l2p_log.enabled = true;
  return cfg;
}

void RunConventionalCutStream(std::uint64_t seed, int rounds) {
  CrashHarness::Options opt;
  opt.seed = seed;
  CrashHarness h(ConventionalCrashConfig(), opt);
  ASSERT_TRUE(h.Init().ok());
  Rng pick(seed * 7 + 1);
  for (int round = 0; round < rounds; ++round) {
    ASSERT_TRUE(h.RunOps(100).ok()) << "seed " << seed << " round " << round;
    ASSERT_TRUE(h.Cut(pick.NextDouble()).ok()) << "seed " << seed << " round " << round;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "seed " << seed << " round " << round << ": " << st.message();
  }
}

TEST(CrashConventionalTest, PinnedSeed2StreamSurvives240Cuts) {
  RunConventionalCutStream(/*seed=*/2, /*rounds=*/240);
}

// ---------------------------------------------------------------------------
// Undo-journal stamping scope
// ---------------------------------------------------------------------------

// A nested batch (GC running mid-flush) stamps only its own journal
// entries: the caller's pending invalidates keep the caller's window.
// Before mark-scoped stamping, the nested stamp captured the caller's
// unstamped suffix under its own earlier-closing window, so a cut
// between the two windows durably discarded the invalidated source
// copies while the superseding program was torn — acknowledged data
// lost. Caught by the fleet soak (shard 0, cut 47 of its schedule).
TEST(CrashJournalTest, NestedBatchStampCannotCaptureCallersPendingEntries) {
  FlashArray a(SmallConfig().geometry);
  a.EnableJournal(true);
  const FlashGeometry& geo = a.geometry();
  const BlockId src = geo.BlockAt(ChipId{0}, 0);    // SLC: holds the old copy
  const BlockId other = geo.BlockAt(ChipId{1}, 0);  // SLC: the nested batch's target
  const Ppn src_slot = geo.SlotAt(geo.PageAt(src, 0), 0);

  // Durable baseline: the source copy is on media, window long closed.
  const SlotWrite w[] = {{Lpn{7}, 111}};
  const std::uint64_t base_mark = a.MarkJournal();
  ASSERT_TRUE(a.ProgramSlots(src, w).ok());
  a.StampJournal(base_mark, SimTime::FromNanos(0), SimTime::FromNanos(10));
  a.PruneJournal(SimTime::FromNanos(10));

  // Outer batch begins: a fold invalidates the source copy, intending to
  // supersede it...
  const std::uint64_t outer_mark = a.MarkJournal();
  ASSERT_TRUE(a.InvalidateSlot(src_slot).ok());

  // ...but a nested batch runs first and stamps a window closing at 100.
  const std::uint64_t nested_mark = a.MarkJournal();
  const SlotWrite nested[] = {{Lpn{9}, 222}};
  ASSERT_TRUE(a.ProgramSlots(other, nested).ok());
  a.StampJournal(nested_mark, SimTime::FromNanos(50), SimTime::FromNanos(100));

  // The outer batch's superseding program closes only at 500; its stamp
  // must reach back past the nested (already stamped) entries to cover
  // the invalidate with the same window.
  const SlotWrite sup[] = {{Lpn{7}, 333}};
  ASSERT_TRUE(a.ProgramSlots(src, sup).ok());
  a.StampJournal(outer_mark, SimTime::FromNanos(50), SimTime::FromNanos(500));

  // Cut between the nested end (100) and the outer end (500): the nested
  // program is durable, the outer program is torn, and the source copy
  // it superseded must come back.
  const FlashArray::PowerCutReport rep = a.ApplyPowerCut(SimTime::FromNanos(200));
  EXPECT_EQ(rep.torn_program_slots, 1u);
  EXPECT_EQ(rep.resurrected_slots, 1u);
  EXPECT_EQ(a.StateOfSlot(src_slot), SlotState::kValid);
  EXPECT_EQ(a.ReadSlot(src_slot).token, 111u);
  EXPECT_EQ(a.StateOfSlot(geo.SlotAt(geo.PageAt(other, 0), 0)), SlotState::kValid);
}

// An erase journals only the block's programmed prefix. Undoing it must
// restore that prefix and erase what the programs undone after it left
// behind, so the block reads exactly as it did before the erase.
TEST(CrashJournalTest, UndoneEraseRestoresPrefixAndErasesTheRest) {
  FlashArray a(SmallConfig().geometry);
  a.EnableJournal(true);
  const FlashGeometry& geo = a.geometry();
  const BlockId blk = geo.BlockAt(ChipId{0}, 0);  // SLC: slot-granular programs
  const Ppn first = geo.SlotAt(geo.PageAt(blk, 0), 0);
  constexpr std::uint32_t kDurable = 5;
  constexpr std::uint32_t kAfter = 12;

  // k durable slots, then an erase in [100, 200) and m > k slots
  // programmed after it in [200, 300).
  std::vector<SlotWrite> before;
  for (std::uint32_t i = 0; i < kDurable; ++i) before.push_back({Lpn{100 + i}, 1000 + i});
  std::uint64_t mark = a.MarkJournal();
  ASSERT_TRUE(a.ProgramSlots(blk, before).ok());
  a.StampJournal(mark, SimTime::FromNanos(0), SimTime::FromNanos(10));
  a.PruneJournal(SimTime::FromNanos(10));
  mark = a.MarkJournal();
  ASSERT_TRUE(a.EraseBlock(blk).ok());
  a.StampJournal(mark, SimTime::FromNanos(100), SimTime::FromNanos(200));
  std::vector<SlotWrite> after;
  for (std::uint32_t i = 0; i < kAfter; ++i) after.push_back({Lpn{500 + i}, 5000 + i});
  mark = a.MarkJournal();
  ASSERT_TRUE(a.ProgramSlots(blk, after).ok());
  a.StampJournal(mark, SimTime::FromNanos(200), SimTime::FromNanos(300));

  // Cut before the erase window: neither the erase nor the programs ran.
  const FlashArray::PowerCutReport rep = a.ApplyPowerCut(SimTime::FromNanos(50));
  EXPECT_EQ(rep.restored_erases, 1u);
  EXPECT_EQ(rep.unissued_program_slots, kAfter);
  for (std::uint32_t i = 0; i < kAfter; ++i) {
    const SlotRead r = a.PeekSlot(Ppn{first.value() + i});
    if (i < kDurable) {
      EXPECT_EQ(r.state, SlotState::kValid) << "slot " << i;
      EXPECT_EQ(r.lpn, Lpn{100 + i}) << "slot " << i;
      EXPECT_EQ(r.token, 1000u + i) << "slot " << i;
    } else {
      EXPECT_EQ(r.state, SlotState::kFree) << "slot " << i;
      EXPECT_FALSE(r.lpn.valid()) << "slot " << i;
      EXPECT_EQ(r.token, 0u) << "slot " << i;
    }
  }
  EXPECT_EQ(a.NextProgramSlot(blk), kDurable);
  EXPECT_EQ(a.ValidSlots(blk), kDurable);
}

// ---------------------------------------------------------------------------
// Opt-in soak (CI crash-matrix label / CONZONE_CRASH_SOAK=1)
// ---------------------------------------------------------------------------

TEST(CrashSoakTest, ManyRandomCutsSoak) {
  if (std::getenv("CONZONE_CRASH_SOAK") == nullptr) {
    GTEST_SKIP() << "set CONZONE_CRASH_SOAK=1 to run the 10k-cut soak";
  }
  CrashHarness::Options opt;
  opt.seed = 0x50A7ull;
  CrashHarness h(CrashConfig(), opt);
  ASSERT_TRUE(h.Init().ok());
  Rng pick(0x10000ull);
  constexpr int kCuts = 10000;
  for (int round = 0; round < kCuts; ++round) {
    ASSERT_TRUE(h.RunOps(3 + pick.NextBelow(15)).ok()) << "round=" << round;
    ASSERT_TRUE(h.Cut(pick.NextDouble() * 1.5).ok()) << "round=" << round;
    Status st = h.RecoverAndVerify();
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.message();
  }
  EXPECT_EQ(h.device().recovery_stats().recoveries,
            static_cast<std::uint64_t>(kCuts));
}

// Conventional zones as a standing crash axis: the pinned stream's
// config and cut rule over four seeds.
TEST(ConventionalCrashSoakTest, FourSeedsThousandCutsEach) {
  if (std::getenv("CONZONE_CRASH_SOAK") == nullptr) {
    GTEST_SKIP() << "set CONZONE_CRASH_SOAK=1 to run the conventional-zone soak";
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunConventionalCutStream(seed, /*rounds=*/1000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace conzone
