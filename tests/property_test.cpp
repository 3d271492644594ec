// Property-based tests: randomized operation sequences driven against
// ConZone with a simple in-test oracle. These are the tests that caught
// (and guard) the cross-module invariants:
//
//   P1  Every readable LPA returns the token of its last write — across
//       buffer hits, SLC staging, fold-back, the alignment patch, GC
//       migration and zone resets.
//   P2  The mapping is a bijection: no two mapped LPAs share a PPN, and
//       every mapped slot's OOB back-pointer names its LPA.
//   P3  Map bits never lie: any entry stamped chunk/zone-aggregated is
//       resolvable through the reserved layout to exactly its table PPN.
//   P4  Accounting: flash programs >= host bytes (WAF >= 1 once flushed),
//       valid-slot counts match the mapping.
//   P5  Time is monotone: every completion is >= its submission.
//   P6  The read paths' page grouping equals the linear first-appearance
//       scan it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "core/device.hpp"
#include "flash/page_groups.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

ConZoneConfig PropertyConfig(L2pSearchStrategy strategy) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 16;  // 12 zones: small enough to churn
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.translator.strategy = strategy;
  return cfg;
}

struct PropertyCase {
  std::uint64_t seed;
  L2pSearchStrategy strategy;
};

std::string CaseName(const PropertyCase& c) {
  return std::string(L2pSearchStrategyName(c.strategy)) + "_seed" +
         std::to_string(c.seed);
}

// Without this, gtest prints a case as its raw bytes, including the
// uninitialised padding after `strategy`, and the test names ctest
// discovers change from build to build.
void PrintTo(const PropertyCase& c, std::ostream* os) { *os << CaseName(c); }

class DevicePropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(DevicePropertyTest, RandomOpSequenceKeepsAllInvariants) {
  const PropertyCase param = GetParam();
  auto devr = ConZoneDevice::Create(PropertyConfig(param.strategy));
  ASSERT_TRUE(devr.ok());
  ConZoneDevice& dev = **devr;
  const std::uint64_t zone_bytes = dev.info().zone_size_bytes;
  const std::uint64_t num_zones = dev.info().num_zones;
  const std::uint64_t slot = 4096;

  Rng rng(param.seed);
  // Oracle: expected token per written LPA, plus each zone's wp.
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::vector<std::uint64_t> wp(num_zones, 0);
  std::uint64_t next_token = 1;
  SimTime t;

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t z = rng.NextBelow(num_zones);
    const int op = static_cast<int>(rng.NextBelow(10));
    if (op < 6) {
      // Append 4..512 KiB at the zone's write pointer.
      if (wp[z] >= zone_bytes) continue;
      std::uint64_t len = (1 + rng.NextBelow(128)) * slot;
      len = std::min(len, zone_bytes - wp[z]);
      std::vector<std::uint64_t> tokens(len / slot);
      for (auto& tok : tokens) tok = next_token++;
      const std::uint64_t off = z * zone_bytes + wp[z];
      auto r = TestWrite(dev, off, len, t, tokens);
      ASSERT_TRUE(r.ok()) << "step " << step << ": " << r.status().ToString();
      ASSERT_GE(r.value(), t);  // P5
      t = r.value();
      for (std::uint64_t i = 0; i < tokens.size(); ++i) {
        oracle[off / slot + i] = tokens[i];
      }
      wp[z] += len;
    } else if (op < 9) {
      // Read a random written extent of the zone.
      if (wp[z] == 0) continue;
      const std::uint64_t max_slots = wp[z] / slot;
      const std::uint64_t start = rng.NextBelow(max_slots);
      const std::uint64_t count = 1 + rng.NextBelow(std::min<std::uint64_t>(64, max_slots - start));
      std::vector<std::uint64_t> got;
      const std::uint64_t off = z * zone_bytes + start * slot;
      auto r = TestRead(dev, off, count * slot, t, &got);
      ASSERT_TRUE(r.ok()) << "step " << step << ": " << r.status().ToString();
      ASSERT_GE(r.value(), t);
      t = r.value();
      for (std::uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i], oracle.at(off / slot + i))
            << "P1 violated at lpn " << off / slot + i << " step " << step;
      }
    } else {
      // Reset the zone.
      auto r = dev.ResetZone(ZoneId{z}, t);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      t = r.value();
      for (std::uint64_t i = 0; i < zone_bytes / slot; ++i) {
        oracle.erase(z * (zone_bytes / slot) + i);
      }
      wp[z] = 0;
    }
  }

  // P2 + P3: walk the mapping table.
  const MappingTable& table = dev.mapping();
  const FlashArray& array = dev.array();
  std::map<std::uint64_t, std::uint64_t> ppn_owner;
  std::uint64_t mapped = 0;
  for (std::uint64_t l = 0; l < table.geometry().num_lpns; ++l) {
    const MapEntry e = table.Get(Lpn{l});
    if (!e.mapped()) continue;
    ++mapped;
    ASSERT_TRUE(ppn_owner.emplace(e.ppn.value(), l).second)
        << "P2: ppn " << e.ppn.value() << " shared by lpns " << ppn_owner[e.ppn.value()]
        << " and " << l;
    const SlotRead r = array.ReadSlot(e.ppn);
    ASSERT_EQ(r.state, SlotState::kValid) << "P2: mapped slot not valid, lpn " << l;
    ASSERT_EQ(r.lpn.value(), l) << "P2: OOB back-pointer mismatch";
  }
  // Every durable oracle entry is mapped (buffered tails may not be yet).
  ASSERT_LE(mapped, oracle.size());

  // P4: accounting.
  if (dev.stats().host_bytes_written > 0 &&
      dev.media_counters().TotalSlotsProgrammed() > 0) {
    const double durable_fraction =
        static_cast<double>(mapped * slot) /
        static_cast<double>(dev.stats().host_bytes_written);
    EXPECT_GE(dev.Stats().WriteAmplification(), durable_fraction * 0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DevicePropertyTest,
    ::testing::Values(PropertyCase{1, L2pSearchStrategy::kBitmap},
                      PropertyCase{2, L2pSearchStrategy::kBitmap},
                      PropertyCase{3, L2pSearchStrategy::kMultiple},
                      PropertyCase{4, L2pSearchStrategy::kMultiple},
                      PropertyCase{5, L2pSearchStrategy::kPinned},
                      PropertyCase{6, L2pSearchStrategy::kPinned},
                      PropertyCase{7, L2pSearchStrategy::kBitmap},
                      PropertyCase{8, L2pSearchStrategy::kMultiple}),
    [](const auto& info) { return CaseName(info.param); });

/// P3 in isolation: stamped aggregates must resolve through the layout.
TEST(AggregationPropertyTest, AggregatedEntriesResolveToTablePpns) {
  auto devr = ConZoneDevice::Create(PropertyConfig(L2pSearchStrategy::kBitmap));
  ASSERT_TRUE(devr.ok());
  ConZoneDevice& dev = **devr;
  const std::uint64_t zone_bytes = dev.info().zone_size_bytes;
  SimTime t;
  // Complete two zones (one clean, one via conflicting traffic).
  for (std::uint64_t off = 0; off < zone_bytes; off += 512 * kKiB) {
    t = TestWrite(dev, off, 512 * kKiB, t).value();
  }
  std::uint64_t pos = 0, off3 = 0;
  while (pos < zone_bytes) {
    const std::uint64_t len = std::min<std::uint64_t>(48 * kKiB, zone_bytes - pos);
    t = TestWrite(dev, 2 * zone_bytes + pos, len, t).value();
    pos += len;
    if (off3 < 48 * kKiB * 20) {
      t = TestWrite(dev, 4 * zone_bytes + off3, 48 * kKiB, t).value();  // conflicting zone
      off3 += 48 * kKiB;
    }
  }
  EXPECT_EQ(dev.stats().aggregates_zone, 2u);

  const MappingTable& table = dev.mapping();
  const std::uint64_t lpns_per_zone = zone_bytes / 4096;
  for (std::uint64_t z : {0ull, 2ull}) {
    for (std::uint64_t i = 0; i < lpns_per_zone; i += 37) {
      const Lpn lpn{z * lpns_per_zone + i};
      const MapEntry e = table.Get(lpn);
      ASSERT_TRUE(e.mapped());
      ASSERT_EQ(e.gran, MapGranularity::kZone) << lpn.value();
    }
  }
}

/// One slot of a read request, as the read paths hand it to the grouper.
struct SlotIn {
  FlashPageId page;
  SimTime dep;
  std::uint32_t retries;
};

/// Reference for P6: the linear scan the read paths used before
/// PageGrouper — O(groups) per slot, first-appearance order.
std::vector<PageGroup> LinearGroups(const std::vector<SlotIn>& slots) {
  std::vector<PageGroup> groups;
  for (const SlotIn& s : slots) {
    bool merged = false;
    for (PageGroup& g : groups) {
      if (g.page == s.page) {
        ++g.slots;
        g.dep = Later(g.dep, s.dep);
        if (s.retries > g.retries) g.retries = s.retries;
        merged = true;
        break;
      }
    }
    if (!merged) groups.push_back(PageGroup{s.page, 1, s.dep, s.retries});
  }
  return groups;
}

/// P6: the grouper must reproduce the linear scan exactly — group order,
/// slot counts, the latest metadata dependency and the worst retry level
/// per page — for requests of 1 to 4096 slots. Odd cases reuse one
/// grouper across requests (stale buckets from earlier epochs); even
/// cases start fresh, so the index grows in the middle of a request.
TEST(PageGrouperPropertyTest, MatchesLinearScan) {
  const FlashGeometry geo = ConZoneConfig::PaperConfig().geometry;
  const std::uint64_t chips = geo.NumChips();
  const std::uint64_t slots_per_page = geo.SlotsPerPage();
  Rng rng(0x6A0E);
  PageGrouper reused;
  for (int c = 0; c < 400; ++c) {
    PageGrouper fresh;
    PageGrouper& grouper = c % 2 == 1 ? reused : fresh;
    const std::uint64_t n = c % 3 == 0 ? 1 : c % 3 == 1 ? 4096 : 2 + rng.NextBelow(1024);
    const std::uint64_t kind = rng.NextBelow(3);
    const std::uint64_t pool = 1 + rng.NextBelow(rng.NextBool(0.5) ? 64 : 8192);
    const std::uint64_t base_page = rng.NextBelow(geo.pages_per_block / 2);
    const std::uint64_t block = rng.NextBelow(geo.blocks_per_chip);
    std::vector<SlotIn> slots;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t page = 0;
      if (kind == 0) {
        // Random pages from a small pool: repeats far apart.
        page = rng.NextBelow(pool) * 7919 % geo.TotalFlashPages();
      } else if (kind == 1) {
        // SLC staging: consecutive slots striped across the chips, so a
        // page's slots recur every `chips` slots, never back to back.
        const std::uint64_t chip = i % chips;
        const std::uint64_t in_block = (base_page + i / chips / slots_per_page) %
                                       geo.pages_per_block;
        page = (chip * geo.blocks_per_chip + block) * geo.pages_per_block + in_block;
      } else {
        // A normal-region run: slots_per_page consecutive slots per page.
        page = (block * geo.pages_per_block + base_page) + i / slots_per_page;
      }
      const SimTime dep = SimTime::FromNanos(rng.NextBelow(1000));
      const std::uint64_t retries = rng.NextBelow(8) == 0 ? rng.NextBelow(4) : 0;
      slots.push_back(SlotIn{FlashPageId(page), dep, static_cast<std::uint32_t>(retries)});
    }
    grouper.Clear();
    for (const SlotIn& s : slots) grouper.Add(s.page, s.dep, s.retries);
    const std::vector<PageGroup> want = LinearGroups(slots);
    const std::span<const PageGroup> got = grouper.groups();
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    for (std::size_t g = 0; g < want.size(); ++g) {
      ASSERT_EQ(got[g].page, want[g].page) << "case " << c << " group " << g;
      ASSERT_EQ(got[g].slots, want[g].slots) << "case " << c << " group " << g;
      ASSERT_EQ(got[g].dep, want[g].dep) << "case " << c << " group " << g;
      ASSERT_EQ(got[g].retries, want[g].retries) << "case " << c << " group " << g;
    }
  }
}

/// P7: adding a run of one page's slots in one call gives the groups of
/// one call per slot, on random page sequences with repeats, runs of 1 to
/// 4 slots and per-slot retry levels (the run passes their maximum). Odd
/// cases reuse both groupers across requests.
TEST(PageGrouperPropertyTest, RunAddMatchesSlotAdds) {
  Rng rng(0x6A0F);
  PageGrouper reused_runs;
  PageGrouper reused_slots;
  for (int c = 0; c < 400; ++c) {
    PageGrouper fresh_runs;
    PageGrouper fresh_slots;
    PageGrouper& runs = c % 2 == 1 ? reused_runs : fresh_runs;
    PageGrouper& slots = c % 2 == 1 ? reused_slots : fresh_slots;
    runs.Clear();
    slots.Clear();
    const std::uint64_t pool = 1 + rng.NextBelow(rng.NextBool(0.5) ? 4 : 300);
    const std::uint64_t n_runs = 1 + rng.NextBelow(rng.NextBool(0.5) ? 8 : 1200);
    for (std::uint64_t r = 0; r < n_runs; ++r) {
      const FlashPageId page{rng.NextBelow(pool) * 7919};
      const SimTime dep = SimTime::FromNanos(rng.NextBelow(1000));
      const auto n = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
      std::uint32_t worst = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        const auto retries =
            static_cast<std::uint32_t>(rng.NextBelow(3) == 0 ? rng.NextBelow(4) : 0);
        slots.Add(page, dep, retries);
        worst = std::max(worst, retries);
      }
      runs.Add(page, dep, worst, n);
    }
    const std::span<const PageGroup> want = slots.groups();
    const std::span<const PageGroup> got = runs.groups();
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    for (std::size_t g = 0; g < want.size(); ++g) {
      ASSERT_EQ(got[g].page, want[g].page) << "case " << c << " group " << g;
      ASSERT_EQ(got[g].slots, want[g].slots) << "case " << c << " group " << g;
      ASSERT_EQ(got[g].dep, want[g].dep) << "case " << c << " group " << g;
      ASSERT_EQ(got[g].retries, want[g].retries) << "case " << c << " group " << g;
    }
  }
}

}  // namespace
}  // namespace conzone
