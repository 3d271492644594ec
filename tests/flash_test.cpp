// Unit tests for the flash substrate: geometry math, the media state
// machine, the timing engine, superblock pools and the SLC allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "flash/array.hpp"
#include "flash/geometry.hpp"
#include "flash/slc_allocator.hpp"
#include "flash/superblock.hpp"
#include "flash/timing.hpp"
#include "flash/timing_engine.hpp"

namespace conzone {
namespace {

FlashGeometry SmallGeo() {
  FlashGeometry g;
  g.blocks_per_chip = 8;
  g.slc_blocks_per_chip = 2;
  g.pages_per_block = 12;  // divisible by 6 (TLC one-shot) and 3
  return g;
}

// --- geometry ---

TEST(GeometryTest, PaperDefaultsAreConsistent) {
  FlashGeometry g;
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.NumChips(), 4u);
  EXPECT_EQ(g.SlotsPerPage(), 4u);
  EXPECT_EQ(g.PagesPerProgramUnit(), 6u);
  EXPECT_EQ(g.UnitsPerBlock(), 42u);
  EXPECT_EQ(g.SuperpageBytes(), 384 * kKiB);  // §II-B
  // 252 pages x 16 KiB x 4 chips = 16128 KiB = 15.75 MiB.
  EXPECT_EQ(g.NormalSuperblockBytes(), 16128 * kKiB);
  EXPECT_EQ(g.NormalRegionBytes(), 96ull * g.NormalSuperblockBytes());
  EXPECT_EQ(g.SlcUsablePagesPerBlock(), 84u);  // 252 / 3 bits-per-cell
}

TEST(GeometryTest, AddressRoundTrips) {
  const FlashGeometry g = SmallGeo();
  for (std::uint64_t b = 0; b < g.TotalBlocks(); b += 3) {
    const BlockId block{b};
    EXPECT_EQ(g.BlockAt(g.ChipOfBlock(block), g.BlockIndexInChip(block)), block);
    const SuperblockId sb = g.SuperblockOfBlock(block);
    EXPECT_EQ(g.BlockOfSuperblock(sb, g.ChipOfBlock(block)), block);
  }
  for (std::uint64_t s = 0; s < g.TotalSlots(); s += 7) {
    const Ppn ppn{s};
    const FlashPageId page = g.PageOfSlot(ppn);
    EXPECT_EQ(g.SlotAt(page, g.SlotIndexInPage(ppn)), ppn);
    EXPECT_EQ(g.PageAt(g.BlockOfPage(page), g.PageIndexInBlock(page)), page);
  }
}

TEST(GeometryTest, SlcRegionIsBlockPrefix) {
  const FlashGeometry g = SmallGeo();
  for (std::uint32_t c = 0; c < g.NumChips(); ++c) {
    EXPECT_TRUE(g.IsSlcBlock(g.BlockAt(ChipId{c}, 0)));
    EXPECT_TRUE(g.IsSlcBlock(g.BlockAt(ChipId{c}, 1)));
    EXPECT_FALSE(g.IsSlcBlock(g.BlockAt(ChipId{c}, 2)));
    EXPECT_EQ(g.CellOfBlock(g.BlockAt(ChipId{c}, 0)), CellType::kSlc);
    EXPECT_EQ(g.CellOfBlock(g.BlockAt(ChipId{c}, 5)), CellType::kTlc);
  }
}

TEST(GeometryTest, ChannelOfChip) {
  FlashGeometry g;  // 2 channels x 2 chips
  EXPECT_EQ(g.ChannelOfChip(ChipId{0}).value(), 0u);
  EXPECT_EQ(g.ChannelOfChip(ChipId{1}).value(), 0u);
  EXPECT_EQ(g.ChannelOfChip(ChipId{2}).value(), 1u);
  EXPECT_EQ(g.ChannelOfChip(ChipId{3}).value(), 1u);
}

struct BadGeometryCase {
  const char* name;
  void (*mutate)(FlashGeometry&);
};

// Without this, gtest prints a case as its raw bytes (two pointers), and
// the test names ctest discovers change from build to build.
void PrintTo(const BadGeometryCase& c, std::ostream* os) { *os << c.name; }

class GeometryValidationTest : public ::testing::TestWithParam<BadGeometryCase> {};

TEST_P(GeometryValidationTest, RejectsInvalidConfig) {
  FlashGeometry g = SmallGeo();
  GetParam().mutate(g);
  EXPECT_FALSE(g.Validate().ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    BadGeometries, GeometryValidationTest,
    ::testing::Values(
        BadGeometryCase{"no_channels", [](FlashGeometry& g) { g.channels = 0; }},
        BadGeometryCase{"no_chips", [](FlashGeometry& g) { g.chips_per_channel = 0; }},
        BadGeometryCase{"no_blocks", [](FlashGeometry& g) { g.blocks_per_chip = 0; }},
        BadGeometryCase{"slc_eats_all",
                        [](FlashGeometry& g) { g.slc_blocks_per_chip = g.blocks_per_chip; }},
        BadGeometryCase{"page_not_slot_multiple",
                        [](FlashGeometry& g) { g.slot_size = 3000; }},
        BadGeometryCase{"normal_is_slc",
                        [](FlashGeometry& g) { g.normal_cell = CellType::kSlc; }},
        BadGeometryCase{"unit_not_page_multiple",
                        [](FlashGeometry& g) { g.program_unit = 20 * kKiB; }},
        BadGeometryCase{"block_not_unit_multiple",
                        [](FlashGeometry& g) { g.pages_per_block = 10; }},
        // 2^16 x 2^16 chips wrap NumChips() to 0.
        BadGeometryCase{"chip_count_wraps",
                        [](FlashGeometry& g) { g.channels = g.chips_per_channel = 65536; }},
        // 4 chips x 2^31 blocks x 6 * (2^28 + 1) pages: the page count
        // fits in 64 bits, but its 4 slots per page (about 2^65.6) wrap.
        BadGeometryCase{"slot_count_wraps",
                        [](FlashGeometry& g) {
                          g.blocks_per_chip = 1u << 31;
                          g.pages_per_block = (6u << 28) + 6;
                        }},
        // 3 * 2^62 slots fit in 64 bits but not in a packed 62-bit ppn.
        BadGeometryCase{"slot_count_past_packed_width",
                        [](FlashGeometry& g) {
                          g.blocks_per_chip = 1u << 31;
                          g.pages_per_block = 6u << 26;
                        }}),
    [](const auto& info) { return info.param.name; });

// --- array ---

TEST(FlashArrayTest, PlaceOfMatchesGeometry) {
  FlashGeometry paper;
  for (const FlashGeometry& g : {SmallGeo(), paper}) {
    const FlashArray a(g);
    for (std::uint64_t s = 0; s < g.TotalSlots(); ++s) {
      const FlashArray::SlotPlace at = a.PlaceOf(Ppn{s});
      ASSERT_EQ(at.chip, g.ChipOfSlot(Ppn{s})) << "slot " << s;
      ASSERT_EQ(at.slc, g.IsSlcBlock(g.BlockOfSlot(Ppn{s}))) << "slot " << s;
    }
  }
}

TEST(FlashArrayTest, ProgramReadRoundTrip) {
  FlashArray a(SmallGeo());
  const BlockId slc = a.geometry().BlockAt(ChipId{0}, 0);
  const SlotWrite w[] = {{Lpn{7}, 111}, {Lpn{8}, 222}};
  ASSERT_TRUE(a.ProgramSlots(slc, w).ok());
  const Ppn p0 = a.geometry().SlotAt(a.geometry().PageAt(slc, 0), 0);
  const SlotRead r = a.ReadSlot(p0);
  EXPECT_EQ(r.state, SlotState::kValid);
  EXPECT_EQ(r.lpn, Lpn{7});
  EXPECT_EQ(r.token, 111u);
  EXPECT_EQ(a.ValidSlots(slc), 2u);
  EXPECT_EQ(a.NextProgramSlot(slc), 2u);
}

TEST(FlashArrayTest, NormalBlockRequiresUnitAlignment) {
  FlashArray a(SmallGeo());
  const BlockId normal = a.geometry().BlockAt(ChipId{0}, 3);
  const SlotWrite one[] = {{Lpn{1}, 1}};
  EXPECT_EQ(a.ProgramSlots(normal, one).code(), StatusCode::kInvalidArgument);
  // A whole unit works.
  std::vector<SlotWrite> unit(a.geometry().program_unit / a.geometry().slot_size,
                              SlotWrite{Lpn{1}, 1});
  EXPECT_TRUE(a.ProgramSlots(normal, unit).ok());
}

TEST(FlashArrayTest, SlcBlockDeratedCapacity) {
  FlashArray a(SmallGeo());
  const BlockId slc = a.geometry().BlockAt(ChipId{0}, 0);
  const std::uint32_t usable = a.UsableSlots(slc);
  EXPECT_EQ(usable, a.geometry().SlcUsableSlotsPerBlock());
  std::vector<SlotWrite> fill(usable, SlotWrite{Lpn{1}, 1});
  ASSERT_TRUE(a.ProgramSlots(slc, fill).ok());
  EXPECT_TRUE(a.BlockFull(slc));
  const SlotWrite one[] = {{Lpn{2}, 2}};
  EXPECT_EQ(a.ProgramSlots(slc, one).code(), StatusCode::kFailedPrecondition);
}

TEST(FlashArrayTest, InvalidateAndErase) {
  FlashArray a(SmallGeo());
  const BlockId slc = a.geometry().BlockAt(ChipId{1}, 0);
  const SlotWrite w[] = {{Lpn{1}, 1}};
  ASSERT_TRUE(a.ProgramSlots(slc, w).ok());
  const Ppn p = a.geometry().SlotAt(a.geometry().PageAt(slc, 0), 0);
  ASSERT_TRUE(a.InvalidateSlot(p).ok());
  EXPECT_EQ(a.StateOfSlot(p), SlotState::kInvalid);
  EXPECT_EQ(a.ValidSlots(slc), 0u);
  // Double invalidate is an error.
  EXPECT_FALSE(a.InvalidateSlot(p).ok());
  ASSERT_TRUE(a.EraseBlock(slc).ok());
  EXPECT_EQ(a.StateOfSlot(p), SlotState::kFree);
  EXPECT_EQ(a.NextProgramSlot(slc), 0u);
  EXPECT_EQ(a.EraseCount(slc), 1u);
}

TEST(FlashArrayTest, CountersTrackMedia) {
  FlashArray a(SmallGeo());
  const BlockId slc = a.geometry().BlockAt(ChipId{0}, 0);
  const BlockId normal = a.geometry().BlockAt(ChipId{0}, 4);
  const SlotWrite w[] = {{Lpn{1}, 1}};
  ASSERT_TRUE(a.ProgramSlots(slc, w).ok());
  std::vector<SlotWrite> unit(a.geometry().program_unit / a.geometry().slot_size,
                              SlotWrite{Lpn{2}, 2});
  ASSERT_TRUE(a.ProgramSlots(normal, unit).ok());
  EXPECT_EQ(a.counters().slots_programmed_slc, 1u);
  EXPECT_EQ(a.counters().slots_programmed_normal, unit.size());
  ASSERT_TRUE(a.EraseBlock(slc).ok());
  ASSERT_TRUE(a.EraseBlock(normal).ok());
  EXPECT_EQ(a.counters().erases_slc, 1u);
  EXPECT_EQ(a.counters().erases_normal, 1u);
}

// --- page-run reads ---

enum class SlotKind { kGood, kInvalid, kWrongLpn, kFree };

/// Every run of the 4-slot page at `page` (from each start slot, up to
/// `max_end` slots past the page's first) read with ReadPageRun on `a`
/// and with ReadSlot calls on `b`, which holds the same slots and an
/// identical fault stream: the same good count, tokens, worst retry level
/// and reliability counters.
void ExpectPageRunsMatchSlotReads(FlashArray& a, FlashArray& b, Ppn page, Lpn lpn,
                                  std::uint32_t max_end, const std::string& what) {
  for (std::uint32_t start = 0; start < 4; ++start) {
    for (std::uint32_t n = 1; start + n <= max_end; ++n) {
      const std::string run = what + " start " + std::to_string(start) + " n " +
                              std::to_string(n);
      // Odd runs skip the tokens.
      std::vector<std::uint64_t> got;
      const FlashArray::PageRun r = a.ReadPageRun(Ppn{page.value() + start}, n,
                                                  Lpn{lpn.value() + start},
                                                  n % 2 == 0 ? &got : nullptr);
      std::vector<std::uint64_t> want;
      std::uint32_t good = 0;
      std::uint32_t retries = 0;
      for (; good < n; ++good) {
        const SlotRead s = b.ReadSlot(Ppn{page.value() + start + good});
        if (s.state != SlotState::kValid || s.lpn != Lpn{lpn.value() + start + good}) break;
        if (n % 2 == 0) want.push_back(s.token);
        retries = std::max(retries, s.retry_level);
      }
      EXPECT_EQ(r.good, good) << run;
      EXPECT_EQ(r.retries, retries) << run;
      EXPECT_EQ(got, want) << run;
    }
  }
  EXPECT_EQ(a.reliability().reads_with_retry, b.reliability().reads_with_retry) << what;
  EXPECT_EQ(a.reliability().read_retries, b.reliability().read_retries) << what;
}

/// A pair of arrays with identical fault streams (or none).
struct TwinArrays {
  explicit TwinArrays(bool faults) : a(SmallGeo()), b(SmallGeo()) {
    FaultConfig fc;
    fc.seed = 11;
    fc.slc.read_retry = 0.5;
    fc.normal.read_retry = 0.5;
    fa = FaultModel(fc);
    fb = FaultModel(fc);
    if (faults) {
      a.AttachFaultModel(&fa);
      b.AttachFaultModel(&fb);
    }
  }
  /// Program `writes` into `block` of both arrays.
  void Program(BlockId block, const std::vector<SlotWrite>& writes) {
    ASSERT_TRUE(a.ProgramSlots(block, writes).ok());
    ASSERT_TRUE(b.ProgramSlots(block, writes).ok());
  }
  void Invalidate(Ppn ppn) {
    ASSERT_TRUE(a.InvalidateSlot(ppn).ok());
    ASSERT_TRUE(b.InvalidateSlot(ppn).ok());
  }
  /// Both fault streams continue alike: the runs drew what the slot
  /// reads drew.
  void ExpectSameNextDraws(const std::string& what) {
    for (int k = 0; k < 16; ++k) {
      EXPECT_EQ(fa.ReadRetryLevel(k % 2 == 0, 0), fb.ReadRetryLevel(k % 2 == 0, 0)) << what;
    }
  }
  FaultModel fa;
  FaultModel fb;
  FlashArray a;
  FlashArray b;
};

TEST(FlashArrayTest, PageRunReadMatchesSlotReads) {
  const FlashGeometry g = SmallGeo();
  ASSERT_EQ(g.SlotsPerPage(), 4u);
  constexpr std::uint64_t kLpn = 500;
  for (const bool faults : {false, true}) {
    // An SLC page whose slots are good, invalid, hold another lpn, or are
    // free (programming is sequential: only as a suffix), in every
    // combination.
    for (std::uint32_t code = 0; code < 256; ++code) {
      SlotKind kinds[4];
      bool suffix_free = true;
      for (int i = 0; i < 4; ++i) kinds[i] = static_cast<SlotKind>((code >> (2 * i)) & 3);
      for (int i = 1; i < 4; ++i) {
        suffix_free = suffix_free &&
                      (kinds[i - 1] != SlotKind::kFree || kinds[i] == SlotKind::kFree);
      }
      if (!suffix_free) continue;
      TwinArrays t(faults);
      const BlockId slc = g.BlockAt(ChipId{1}, 1);
      const Ppn page = g.SlotAt(g.PageAt(slc, 0), 0);
      std::vector<SlotWrite> writes;
      for (std::uint64_t i = 0; i < 4 && kinds[i] != SlotKind::kFree; ++i) {
        const std::uint64_t lpn = kLpn + i + (kinds[i] == SlotKind::kWrongLpn ? 1000 : 0);
        writes.push_back(SlotWrite{Lpn{lpn}, 100 + i});
      }
      if (!writes.empty()) ASSERT_NO_FATAL_FAILURE(t.Program(slc, writes));
      for (std::uint64_t i = 0; i < 4; ++i) {
        if (kinds[i] == SlotKind::kInvalid) {
          ASSERT_NO_FATAL_FAILURE(t.Invalidate(Ppn{page.value() + i}));
        }
      }
      const std::string what = std::string(faults ? "faults" : "clean") + " slc code " +
                               std::to_string(code);
      ExpectPageRunsMatchSlotReads(t.a, t.b, page, Lpn{kLpn}, 4, what);
      t.ExpectSameNextDraws(what);
    }
    // The array's last page, in a normal block, in every combination of
    // good, invalid and mislabelled slots; runs reach the array's end
    // and pass it (slots past it read as free).
    for (std::uint32_t code = 0; code < 81; ++code) {
      TwinArrays t(faults);
      const BlockId last = g.BlockAt(ChipId{g.NumChips() - 1}, g.blocks_per_chip - 1);
      ASSERT_FALSE(g.IsSlcBlock(last));
      const std::uint64_t block_slots = std::uint64_t{g.pages_per_block} * g.SlotsPerPage();
      const Ppn page{g.TotalSlots() - 4};
      SlotKind kinds[4];
      for (std::uint32_t i = 0, c = code; i < 4; ++i, c /= 3) {
        kinds[i] = static_cast<SlotKind>(c % 3);
      }
      // The block's slot i holds lpn kLpn + i - (block_slots - 4), so the
      // last page holds kLpn onward.
      std::vector<SlotWrite> writes;
      for (std::uint64_t i = 0; i < block_slots; ++i) {
        const std::uint64_t lpn = kLpn + i - (block_slots - 4);
        const bool wrong =
            i + 4 >= block_slots && kinds[i + 4 - block_slots] == SlotKind::kWrongLpn;
        writes.push_back(SlotWrite{Lpn{lpn + (wrong ? 1000 : 0)}, 100 + i});
      }
      ASSERT_NO_FATAL_FAILURE(t.Program(last, writes));
      for (std::uint64_t i = 0; i < 4; ++i) {
        if (kinds[i] == SlotKind::kInvalid) {
          ASSERT_NO_FATAL_FAILURE(t.Invalidate(Ppn{page.value() + i}));
        }
      }
      const std::string what = std::string(faults ? "faults" : "clean") + " end code " +
                               std::to_string(code);
      ExpectPageRunsMatchSlotReads(t.a, t.b, page, Lpn{kLpn}, 6, what);
      t.ExpectSameNextDraws(what);
    }
  }
}

// The largest lpn a slot's OOB word holds (lpn + 1 fills its 62 bits).
constexpr Lpn kLargestLpn{FlashGeometry::kMaxSlots - 1};

void ExpectSlot(const SlotRead& r, SlotState state, Lpn lpn, std::uint64_t token,
                const char* what) {
  EXPECT_EQ(r.state, state) << what;
  EXPECT_EQ(r.lpn, lpn) << what;
  EXPECT_EQ(r.token, token) << what;
}

TEST(FlashArrayTest, FreshArrayReadsFreeEverywhere) {
  const FlashArray a(SmallGeo());
  const std::uint64_t total = a.geometry().TotalSlots();
  for (std::uint64_t s = 0; s < total; ++s) {
    for (const SlotRead& r : {a.ReadSlot(Ppn{s}), a.PeekSlot(Ppn{s})}) {
      ASSERT_EQ(r.state, SlotState::kFree) << "slot " << s;
      ASSERT_FALSE(r.lpn.valid()) << "slot " << s;
      ASSERT_EQ(r.token, 0u) << "slot " << s;
    }
    ASSERT_EQ(a.StateOfSlot(Ppn{s}), SlotState::kFree) << "slot " << s;
  }
  // Out of range reads the same default.
  ExpectSlot(a.ReadSlot(Ppn{total}), SlotState::kFree, Lpn::Invalid(), 0, "past end");
  ExpectSlot(a.PeekSlot(Ppn::Invalid()), SlotState::kFree, Lpn::Invalid(), 0, "invalid");
}

TEST(FlashArrayTest, SlotEncodingRoundTripsExtremes) {
  FlashArray a(SmallGeo());
  const FlashGeometry& g = a.geometry();
  const BlockId slc = g.BlockAt(ChipId{0}, 0);
  const SlotWrite w[] = {{Lpn{0}, 0},
                         {kLargestLpn, UINT64_MAX},
                         {Lpn::Invalid(), UINT64_MAX},  // alignment padding
                         {Lpn{1}, 1}};
  ASSERT_TRUE(a.ProgramSlots(slc, w).ok());
  const Ppn first = g.SlotAt(g.PageAt(slc, 0), 0);
  auto at = [&](std::uint64_t i) { return Ppn{first.value() + i}; };
  for (std::uint64_t i = 0; i < 4; ++i) {
    ExpectSlot(a.ReadSlot(at(i)), SlotState::kValid, w[i].lpn, w[i].token, "read");
    ExpectSlot(a.PeekSlot(at(i)), SlotState::kValid, w[i].lpn, w[i].token, "peek");
  }
  // A state change keeps the OOB lpn and the token.
  ASSERT_TRUE(a.InvalidateSlot(at(1)).ok());
  ASSERT_TRUE(a.InvalidateSlot(at(2)).ok());
  ExpectSlot(a.ReadSlot(at(1)), SlotState::kInvalid, kLargestLpn, UINT64_MAX, "invalidated");
  ExpectSlot(a.PeekSlot(at(2)), SlotState::kInvalid, Lpn::Invalid(), UINT64_MAX,
             "invalidated padding");
  ExpectSlot(a.ReadSlot(at(4)), SlotState::kFree, Lpn::Invalid(), 0, "past cursor");

  // The last slot of the array, in a normal block programmed unit by unit.
  const BlockId last{g.TotalBlocks() - 1};
  const std::size_t unit = g.program_unit / g.slot_size;
  std::vector<SlotWrite> fill(unit, SlotWrite{Lpn{5}, 5});
  for (std::uint32_t u = 0; u < g.UnitsPerBlock(); ++u) {
    if (u + 1 == g.UnitsPerBlock()) fill.back() = SlotWrite{kLargestLpn, UINT64_MAX - 1};
    ASSERT_TRUE(a.ProgramSlots(last, fill).ok());
  }
  ExpectSlot(a.ReadSlot(Ppn{g.TotalSlots() - 1}), SlotState::kValid, kLargestLpn,
             UINT64_MAX - 1, "last slot");

  ASSERT_TRUE(a.EraseBlock(slc).ok());
  for (std::uint64_t i = 0; i < 4; ++i) {
    ExpectSlot(a.ReadSlot(at(i)), SlotState::kFree, Lpn::Invalid(), 0, "erased");
  }
}

TEST(FlashArrayTest, UndoneEraseRestoresPackedPreImage) {
  FlashArray a(SmallGeo());
  a.EnableJournal(true);
  const FlashGeometry& g = a.geometry();
  const BlockId slc = g.BlockAt(ChipId{1}, 0);
  const Ppn first = g.SlotAt(g.PageAt(slc, 0), 0);
  auto at = [&](std::uint64_t i) { return Ppn{first.value() + i}; };
  auto stamped = [&](std::uint64_t start_ns, auto&& op) {
    const std::uint64_t mark = a.MarkJournal();
    ASSERT_TRUE(op().ok());
    a.StampJournal(mark, SimTime::FromNanos(start_ns), SimTime::FromNanos(start_ns + 10));
  };
  const SlotWrite w[] = {{Lpn{0}, UINT64_MAX}, {Lpn::Invalid(), 0}, {kLargestLpn, 7}};
  stamped(0, [&] { return a.ProgramSlots(slc, w); });
  stamped(20, [&] { return a.InvalidateSlot(at(0)); });
  // The erase never starts before the cut at 50: its pre-image returns.
  stamped(100, [&] { return a.EraseBlock(slc); });
  ExpectSlot(a.PeekSlot(at(2)), SlotState::kFree, Lpn::Invalid(), 0, "erased");

  const FlashArray::PowerCutReport rep = a.ApplyPowerCut(SimTime::FromNanos(50));
  EXPECT_EQ(rep.restored_erases, 1u);
  ExpectSlot(a.PeekSlot(at(0)), SlotState::kInvalid, Lpn{0}, UINT64_MAX, "restored 0");
  ExpectSlot(a.PeekSlot(at(1)), SlotState::kValid, Lpn::Invalid(), 0, "restored padding");
  ExpectSlot(a.PeekSlot(at(2)), SlotState::kValid, kLargestLpn, 7, "restored 2");
  ExpectSlot(a.PeekSlot(at(3)), SlotState::kFree, Lpn::Invalid(), 0, "past cursor");
  EXPECT_EQ(a.NextProgramSlot(slc), 3u);
  EXPECT_EQ(a.ValidSlots(slc), 2u);
}

// --- timing engine ---

TEST(TimingEngineTest, TableIILatencies) {
  const TimingConfig t;
  EXPECT_EQ(t.For(CellType::kSlc).program_latency.us(), 75.0);
  EXPECT_EQ(t.For(CellType::kTlc).program_latency.us(), 937.5);
  EXPECT_EQ(t.For(CellType::kQlc).program_latency.us(), 6400.0);
  EXPECT_EQ(t.For(CellType::kSlc).read_latency.us(), 20.0);
  EXPECT_EQ(t.For(CellType::kTlc).read_latency.us(), 32.0);
  EXPECT_EQ(t.For(CellType::kQlc).read_latency.us(), 85.0);
}

TEST(TimingEngineTest, TransferTimeMatchesBandwidth) {
  TimingConfig t;  // 3200 MiB/s
  // 16 KiB at 3200 MiB/s = 4.883 us.
  EXPECT_NEAR(t.TransferTime(16 * kKiB).us(), 4.883, 0.01);
  t.channel_bandwidth_bps = 0;
  EXPECT_EQ(t.TransferTime(1 * kMiB).ns(), 0u);
}

TEST(TimingEngineTest, ReadIsSensePlusTransfer) {
  FlashGeometry g;
  TimingConfig t;
  FlashTimingEngine e(g, t);
  const SimTime end = e.ReadPage(ChipId{0}, CellType::kTlc, 16 * kKiB, SimTime::Zero());
  EXPECT_NEAR((end - SimTime::Zero()).us(), 32.0 + 4.883, 0.01);
}

TEST(TimingEngineTest, ChannelSharedBetweenChips) {
  FlashGeometry g;
  TimingConfig t;
  FlashTimingEngine e(g, t);
  // Chips 0 and 1 share channel 0: their transfers serialize.
  const SimTime end0 = e.ReadPage(ChipId{0}, CellType::kTlc, 16 * kKiB, SimTime::Zero());
  const SimTime end1 = e.ReadPage(ChipId{1}, CellType::kTlc, 16 * kKiB, SimTime::Zero());
  EXPECT_GT(end1, end0);
  // Chip 2 is on channel 1: same finish time as chip 0.
  FlashTimingEngine e2(g, t);
  const SimTime endA = e2.ReadPage(ChipId{0}, CellType::kTlc, 16 * kKiB, SimTime::Zero());
  const SimTime endB = e2.ReadPage(ChipId{2}, CellType::kTlc, 16 * kKiB, SimTime::Zero());
  EXPECT_EQ(endA, endB);
}

TEST(TimingEngineTest, ProgramCadenceIsOneDeepPipelined) {
  FlashGeometry g;
  TimingConfig t;
  FlashTimingEngine e(g, t);
  // Back-to-back programs on one die: pulses serialize; data-in of the
  // second overlaps the first pulse (cache register).
  const auto p1 = e.Program(ChipId{0}, CellType::kTlc, 96 * kKiB, SimTime::Zero());
  const auto p2 = e.Program(ChipId{0}, CellType::kTlc, 96 * kKiB, SimTime::Zero());
  EXPECT_LT(p2.data_in, p1.end);              // transfer overlapped the pulse
  EXPECT_NEAR((p2.end - p1.end).us(), 937.5, 40.0);  // pulse cadence
}

TEST(TimingEngineTest, SuspendedReadPaysPenaltyNotPulse) {
  FlashGeometry g;
  TimingConfig t;
  FlashTimingEngine e(g, t);
  e.Program(ChipId{0}, CellType::kTlc, 96 * kKiB, SimTime::Zero());
  const SimTime issue = SimTime::FromNanos(100000);  // mid-pulse
  const SimTime end = e.ReadPage(ChipId{0}, CellType::kTlc, 16 * kKiB, issue);
  const double lat = (end - issue).us();
  EXPECT_LT(lat, 120.0);  // far below the 937.5us pulse remainder
  EXPECT_GT(lat, 32.0);   // but above the bare sense (penalty applied)
}

TEST(TimingEngineTest, EraseOccupiesDie) {
  FlashGeometry g;
  TimingConfig t;
  FlashTimingEngine e(g, t);
  const SimTime end = e.Erase(ChipId{3}, CellType::kTlc, SimTime::Zero());
  EXPECT_NEAR((end - SimTime::Zero()).us(), 3500.0, 1.0);
  // A read during the erase suspends it: sense, penalty and transfer.
  const SimTime r = e.ReadPage(ChipId{3}, CellType::kTlc, 16 * kKiB, SimTime::Zero());
  EXPECT_NEAR((r - SimTime::Zero()).us(), 32.0 + 40.0 + 4.883, 0.01);
}

// --- superblock pool ---

TEST(SuperblockPoolTest, SlcAllocateReleaseCycle) {
  SuperblockPool pool(SmallGeo());
  EXPECT_EQ(pool.FreeSlcCount(), 2u);
  auto a = pool.AllocateSlc();
  ASSERT_TRUE(a.ok());
  auto b = pool.AllocateSlc();
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(pool.AllocateSlc().status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(pool.ReleaseSlc(a.value()).ok());
  EXPECT_EQ(pool.FreeSlcCount(), 1u);
  // Double release rejected; non-SLC release rejected.
  EXPECT_FALSE(pool.ReleaseSlc(a.value()).ok());
  EXPECT_FALSE(pool.ReleaseSlc(SuperblockId{5}).ok());
}

TEST(SuperblockPoolTest, NormalPoolIndependent) {
  SuperblockPool pool(SmallGeo());
  EXPECT_EQ(pool.FreeNormalCount(), 6u);
  auto a = pool.AllocateNormal();
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(SmallGeo().IsSlcSuperblock(a.value()));
  ASSERT_TRUE(pool.ReleaseNormal(a.value()).ok());
  EXPECT_FALSE(pool.ReleaseNormal(SuperblockId{0}).ok());  // SLC id
}

// Wear-aware allocation: FIFO only levels wear the pool itself caused —
// a pre-worn superblock keeps its head start forever. With a wear source
// attached, allocation steers churn to the least-worn members until the
// imbalance closes.
TEST(SuperblockPoolTest, WearAwareAllocationNarrowsEraseSpread) {
  FlashGeometry geo = SmallGeo();
  geo.slc_blocks_per_chip = 4;  // 4 SLC superblocks to level across

  auto erase_superblock = [&](FlashArray& array, SuperblockId sb) {
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      ASSERT_TRUE(array.EraseBlock(geo.BlockOfSuperblock(sb, ChipId{c})).ok());
    }
  };
  auto spread = [&](const FlashArray& array) {
    std::uint64_t lo = ~0ull, hi = 0;
    for (std::uint32_t s = 0; s < geo.NumSlcSuperblocks(); ++s) {
      std::uint64_t sum = 0;
      for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
        sum += array.EraseCount(geo.BlockOfSuperblock(SuperblockId{s}, ChipId{c}));
      }
      lo = std::min(lo, sum);
      hi = std::max(hi, sum);
    }
    return hi - lo;
  };

  // Identical scenario under both policies: superblock 0 starts 10
  // erases ahead (uneven history), then the pool churns 36 rounds of
  // allocate → erase → release.
  std::uint64_t final_spread[2];
  for (const bool wear_aware : {false, true}) {
    FlashArray array(geo);
    SuperblockPool pool(geo);
    if (wear_aware) pool.AttachWearSource(&array);
    for (int i = 0; i < 10; ++i) {
      erase_superblock(array, SuperblockId{0});
    }
    const std::uint64_t per_sb_wear = 10 * geo.NumChips();
    EXPECT_EQ(spread(array), per_sb_wear);
    for (int round = 0; round < 36; ++round) {
      auto sb = pool.AllocateSlc();
      ASSERT_TRUE(sb.ok());
      erase_superblock(array, sb.value());
      ASSERT_TRUE(pool.ReleaseSlc(sb.value()).ok());
    }
    final_spread[wear_aware ? 1 : 0] = spread(array);
  }
  // FIFO cycles everyone equally: the pre-worn head start survives
  // untouched. Min-wear closes it to at most one erase cycle.
  EXPECT_EQ(final_spread[0], 10 * geo.NumChips());
  EXPECT_LE(final_spread[1], geo.NumChips());
  EXPECT_LT(final_spread[1], final_spread[0]);
}

TEST(SuperblockPoolTest, WearTieBreaksByLowestIdNotReleaseOrder) {
  const FlashGeometry geo = SmallGeo();
  FlashArray array(geo);
  SuperblockPool pool(geo);
  pool.AttachWearSource(&array);
  auto a = pool.AllocateSlc();
  auto b = pool.AllocateSlc();
  ASSERT_TRUE(a.ok() && b.ok());
  // Release in reverse id order; equal wear must still allocate the
  // lowest id first (FIFO would hand back b).
  ASSERT_TRUE(pool.ReleaseSlc(b.value()).ok());
  ASSERT_TRUE(pool.ReleaseSlc(a.value()).ok());
  auto again = pool.AllocateSlc();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), a.value());
}

// --- slc allocator ---

TEST(SlcAllocatorTest, PageFillStripeOrder) {
  FlashArray array(SmallGeo());
  SuperblockPool pool(SmallGeo());
  SlcAllocator alloc(array, pool);
  std::vector<SlotWrite> w(10, SlotWrite{Lpn{1}, 1});
  auto ppns = alloc.Program(w);
  ASSERT_TRUE(ppns.ok());
  const FlashGeometry& g = array.geometry();
  // First 4 slots fill page 0 of chip 0; next 4 fill page 0 of chip 1...
  EXPECT_EQ(g.ChipOfSlot(ppns.value()[0]).value(), 0u);
  EXPECT_EQ(g.ChipOfSlot(ppns.value()[3]).value(), 0u);
  EXPECT_EQ(g.ChipOfSlot(ppns.value()[4]).value(), 1u);
  EXPECT_EQ(g.ChipOfSlot(ppns.value()[8]).value(), 2u);
  EXPECT_EQ(g.PageOfSlot(ppns.value()[0]), g.PageOfSlot(ppns.value()[3]));
  EXPECT_NE(g.PageOfSlot(ppns.value()[3]), g.PageOfSlot(ppns.value()[4]));
}

TEST(SlcAllocatorTest, RebindsAcrossSuperblocks) {
  const FlashGeometry g = SmallGeo();
  FlashArray array(g);
  SuperblockPool pool(g);
  SlcAllocator alloc(array, pool);
  const std::uint64_t per_sb =
      static_cast<std::uint64_t>(g.SlcUsableSlotsPerBlock()) * g.NumChips();
  std::vector<SlotWrite> w(per_sb + 4, SlotWrite{Lpn{1}, 1});
  auto ppns = alloc.Program(w);
  ASSERT_TRUE(ppns.ok());
  EXPECT_EQ(pool.FreeSlcCount(), 0u);  // both superblocks taken
  EXPECT_NE(g.SuperblockOfBlock(g.BlockOfSlot(ppns.value()[0])),
            g.SuperblockOfBlock(g.BlockOfSlot(ppns.value()[per_sb])));
}

TEST(SlcAllocatorTest, ExhaustionReported) {
  const FlashGeometry g = SmallGeo();
  FlashArray array(g);
  SuperblockPool pool(g);
  SlcAllocator alloc(array, pool);
  const std::uint64_t total =
      2ull * g.SlcUsableSlotsPerBlock() * g.NumChips();
  std::vector<SlotWrite> w(total, SlotWrite{Lpn{1}, 1});
  ASSERT_TRUE(alloc.Program(w).ok());
  std::vector<SlotWrite> one(1, SlotWrite{Lpn{2}, 2});
  EXPECT_EQ(alloc.Program(one).status().code(), StatusCode::kResourceExhausted);
}

TEST(FlashArrayTest, CounterSnapshotsClampAcrossMidRunReset) {
  FlashArray array(SmallGeo());
  const BlockId block{0};
  std::vector<SlotWrite> w(4, SlotWrite{Lpn{1}, 1});
  ASSERT_TRUE(array.ProgramSlots(block, w).ok());
  array.CountPageRead();

  // Snapshot taken, then someone resets the phase counters mid-run (a
  // benchmark phase boundary). Deltas against the stale snapshot must
  // clamp to zero, never wrap negative — write amplification and
  // friends divide by these.
  const MediaCounters stale = array.counters();
  array.ResetCounters();
  const MediaCounters delta = array.counters().Since(stale);
  EXPECT_EQ(delta.slots_programmed_slc, 0u);
  EXPECT_EQ(delta.page_reads, 0u);
  EXPECT_EQ(delta.erases_slc, 0u);

  // Forward deltas still work after the reset.
  ASSERT_TRUE(array.ProgramSlots(block, w).ok());
  EXPECT_EQ(array.counters().Since(MediaCounters{}).slots_programmed_slc, 4u);

  // The lifetime counters are monotone and survive the reset untouched.
  EXPECT_EQ(array.lifetime_counters().slots_programmed_slc, 8u);
  EXPECT_EQ(array.lifetime_counters().page_reads, 1u);
  EXPECT_EQ(array.lifetime_counters().Since(stale).slots_programmed_slc, 4u);
}

}  // namespace
}  // namespace conzone
