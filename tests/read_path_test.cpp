// Focused read-path tests: page-read coalescing and accounting, media
// visibility (SLC vs TLC latency through the full device), cross-zone
// reads, host-link behavior, and the equivalence of one multi-slot read
// with the single-slot reads it covers.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "workload/fio.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

ConZoneConfig Cfg() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  return cfg;
}

class ReadPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = ConZoneDevice::Create(Cfg());
    ASSERT_TRUE(dev.ok());
    dev_ = std::move(dev).value();
  }
  std::unique_ptr<ConZoneDevice> dev_;
};

TEST_F(ReadPathTest, SequentialReadCoalescesSlotsIntoPageReads) {
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, 1 * kMiB, 384 * kKiB, &t).ok());
  t = TestRead(*dev_, 0, 512 * kKiB, t).value();  // warm the translations
  const std::uint64_t before = dev_->media_counters().page_reads;
  auto r = TestRead(*dev_, 0, 512 * kKiB, t, nullptr);
  ASSERT_TRUE(r.ok());
  // 512 KiB = 128 slots = exactly 32 flash pages, no metadata fetches
  // once the L2P entries are resident.
  EXPECT_EQ(dev_->media_counters().page_reads - before, 32u);
}

TEST_F(ReadPathTest, SingleSlotReadCostsOnePageRead) {
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, 1 * kMiB, 384 * kKiB, &t).ok());
  // Warm the translation.
  t = TestRead(*dev_, 0, 4096, t).value();
  const std::uint64_t before = dev_->media_counters().page_reads;
  ASSERT_TRUE(TestRead(*dev_, 0, 4096, t).ok());
  EXPECT_EQ(dev_->media_counters().page_reads - before, 1u);
}

TEST_F(ReadPathTest, SlcResidentDataReadsFasterThanTlc) {
  SimTime t;
  // 4 KiB flushed alone lands in SLC; a full superpage lands in TLC.
  t = TestWrite(*dev_, 0, 4096, t).value();
  t = dev_->Flush(t).value();
  t = TestWrite(*dev_, 2 * dev_->info().zone_size_bytes, 384 * kKiB, t).value();
  t = dev_->Flush(t).value();
  // Warm translations so only media latency differs.
  t = TestRead(*dev_, 0, 4096, t).value();
  t = TestRead(*dev_, 2 * dev_->info().zone_size_bytes, 4096, t).value();

  const SimTime s0 = t;
  const SimTime s1 = TestRead(*dev_, 0, 4096, s0).value();                      // SLC
  const SimTime t1 = TestRead(*dev_, 2 * dev_->info().zone_size_bytes, 4096, s1).value();
  const double slc_us = (s1 - s0).us();
  const double tlc_us = (t1 - s1).us();
  // Table II: 20us vs 32us sense; everything else is identical.
  EXPECT_NEAR(tlc_us - slc_us, 12.0, 2.0);
}

TEST_F(ReadPathTest, ReadMaySpanZoneBoundary) {
  SimTime t;
  const std::uint64_t zb = dev_->info().zone_size_bytes;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, zb, 512 * kKiB, &t).ok());
  ASSERT_TRUE(FioRunner::Precondition(*dev_, zb, 512 * kKiB, 512 * kKiB, &t).ok());
  std::vector<std::uint64_t> got;
  auto r = TestRead(*dev_, zb - 64 * kKiB, 128 * kKiB, t, &got);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(got.size(), 32u);
}

TEST_F(ReadPathTest, HostCountersTrackBytes) {
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, 2 * kMiB, 512 * kKiB, &t).ok());
  dev_->ResetStats();
  t = TestRead(*dev_, 0, 1 * kMiB, t).value();
  t = TestRead(*dev_, 0, 4096, t).value();
  EXPECT_EQ(dev_->stats().reads, 2u);
  EXPECT_EQ(dev_->stats().host_bytes_read, 1 * kMiB + 4096);
}

TEST_F(ReadPathTest, LargerReadsTakeLonger) {
  SimTime t;
  ASSERT_TRUE(FioRunner::Precondition(*dev_, 0, 4 * kMiB, 512 * kKiB, &t).ok());
  t = TestRead(*dev_, 0, 4 * kMiB, t).value();  // warm everything
  const SimTime a0 = t;
  const SimTime a1 = TestRead(*dev_, 0, 16 * kKiB, a0).value();
  const SimTime b1 = TestRead(*dev_, 0, 1 * kMiB, a1).value();
  EXPECT_GT((b1 - a1).us(), (a1 - a0).us());
}

TEST_F(ReadPathTest, MultipleStrategyUnstableTailVisibleThroughDevice) {
  // §III-C R.2: "multiple flash reads for the mapping table ... may lead
  // to unstable read performance". Measure the same cold miss under
  // BITMAP and MULTIPLE: the page-mapped target costs 3 dependent
  // fetches under MULTIPLE.
  auto miss_cost = [&](L2pSearchStrategy s) {
    ConZoneConfig cfg = Cfg();
    cfg.translator.strategy = s;
    auto dev = ConZoneDevice::Create(cfg);
    EXPECT_TRUE(dev.ok());
    SimTime t;
    // Partially fill the *second* chunk of zone 0 so the data stays
    // page-mapped and sits away from the zone/chunk base entries.
    EXPECT_TRUE(
        FioRunner::Precondition(**dev, 0, 5 * kMiB, 512 * kKiB, &t).ok());
    const std::uint64_t target = 4 * kMiB + 512 * kKiB;  // chunk 1, page-mapped
    const SimTime start = t;
    const SimTime end = TestRead(**dev, target, 4096, start).value();
    return (end - start).us();
  };
  const double bitmap = miss_cost(L2pSearchStrategy::kBitmap);
  const double multiple = miss_cost(L2pSearchStrategy::kMultiple);
  EXPECT_GT(multiple, bitmap + 50.0);  // ≥ 2 extra dependent map fetches
}

TEST_F(ReadPathTest, PinnedKeepsZoneEntriesAcrossCachePressure) {
  ConZoneConfig cfg = Cfg();
  cfg.translator.strategy = L2pSearchStrategy::kPinned;
  cfg.l2p.capacity_bytes = 1 * kKiB;  // only 256 entries
  auto dev = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(dev.ok());
  SimTime t;
  const std::uint64_t zb = (*dev)->info().zone_size_bytes;
  ASSERT_TRUE(FioRunner::Precondition(**dev, 0, zb, 512 * kKiB, &t).ok());
  // The zone aggregate was pinned at generation; hammer unrelated
  // page-mapped data to thrash the cache...
  ASSERT_TRUE(FioRunner::Precondition(**dev, 2 * zb, 2 * kMiB, 512 * kKiB, &t).ok());
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t off = 2 * zb + rng.NextBelow(2 * kMiB / 4096) * 4096;
    t = TestRead(**dev, off, 4096, t).value();
  }
  // ...then zone 0 must still hit through its pinned entry.
  (*dev)->ResetStats();
  t = TestRead(**dev, 1 * kMiB, 4096, t).value();
  EXPECT_EQ((*dev)->translator().stats().cache_hits, 1u);
}

// --- one N-slot read books what N single-slot reads would ---
//
// An aggregated cache hit serves the rest of its unit without probing
// again. Everything the probes would have done must still happen: the
// same tokens, translator and L2P cache statistics, and cache contents,
// also when a stale slot stops the read.

struct RunMode {
  const char* name;
  L2pSearchStrategy strategy;
  bool hybrid;
  double read_retry = 0.0;  // per-read probability, SLC and normal alike
};

void PrintTo(const RunMode& m, std::ostream* os) { *os << m.name; }

class RunReadEquivalenceTest : public ::testing::TestWithParam<RunMode> {
 protected:
  static constexpr std::uint64_t kZone = 16 * kMiB;  // PaperConfig zone size

  /// Zone 0 full (zone-aggregated, patch in SLC); zone 1 flushed at
  /// 8 MiB (chunk 0 aggregated, chunk 1 page-mapped around its SLC-staged
  /// tail); zone 3 at 4424 KiB unflushed (chunk 0 aggregated, 200 KiB in
  /// the write buffer).
  std::unique_ptr<ConZoneDevice> Make(SimTime* t) {
    ConZoneConfig cfg = Cfg();
    cfg.translator.strategy = GetParam().strategy;
    cfg.translator.hybrid = GetParam().hybrid;
    cfg.fault.slc.read_retry = GetParam().read_retry;
    cfg.fault.normal.read_retry = GetParam().read_retry;
    auto dev = ConZoneDevice::Create(cfg);
    EXPECT_TRUE(dev.ok()) << dev.status().ToString();
    EXPECT_EQ((*dev)->info().zone_size_bytes, kZone);
    *t = SimTime{};
    auto write = [&](std::uint64_t off, std::uint64_t len) {
      auto r = TestWrite(**dev, off, len, *t);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      *t = r.value();
    };
    for (std::uint64_t off = 0; off < kZone; off += 512 * kKiB) write(off, 512 * kKiB);
    for (std::uint64_t off = 0; off < 8 * kMiB; off += 512 * kKiB) {
      write(kZone + off, 512 * kKiB);
    }
    *t = (*dev)->Flush(*t).value();
    for (std::uint64_t off = 0; off < 4 * kMiB; off += 512 * kKiB) {
      write(3 * kZone + off, 512 * kKiB);
    }
    write(3 * kZone + 4 * kMiB, 328 * kKiB);
    return std::move(dev).value();
  }

  struct Outcome {
    Status status;
    std::vector<std::uint64_t> tokens;
  };

  /// [off, off + len) as one read.
  static Outcome ReadOnce(ConZoneDevice& dev, std::uint64_t off, std::uint64_t len,
                          SimTime now) {
    Outcome o;
    auto r = dev.Read(IoRequest{off, len, now, {}, /*want_tokens=*/true});
    o.status = r.status();
    if (r.ok()) o.tokens = std::move(r.value().tokens);
    return o;
  }

  /// [off, off + len) as single-slot reads, stopping at the first error.
  static Outcome ReadSlots(ConZoneDevice& dev, std::uint64_t off, std::uint64_t len,
                           SimTime now) {
    Outcome o;
    for (std::uint64_t s = off; s < off + len; s += 4096) {
      auto r = dev.Read(IoRequest{s, 4096, now, {}, /*want_tokens=*/true});
      o.status = r.status();
      if (!r.ok()) break;
      o.tokens.insert(o.tokens.end(), r.value().tokens.begin(), r.value().tokens.end());
    }
    return o;
  }

  static void ExpectSameFtlState(const ConZoneDevice& a, const ConZoneDevice& b,
                                 const std::string& what) {
    const TranslatorStats& ta = a.translator().stats();
    const TranslatorStats& tb = b.translator().stats();
    EXPECT_EQ(ta.translations, tb.translations) << what;
    EXPECT_EQ(ta.cache_hits, tb.cache_hits) << what;
    EXPECT_EQ(ta.map_fetches, tb.map_fetches) << what;
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(ta.hits_by_gran[g], tb.hits_by_gran[g]) << what << " gran " << g;
    }
    const L2pCacheStats& ca = a.l2p_cache().stats();
    const L2pCacheStats& cb = b.l2p_cache().stats();
    EXPECT_EQ(ca.lookups, cb.lookups) << what;
    EXPECT_EQ(ca.hits, cb.hits) << what;
    EXPECT_EQ(ca.insertions, cb.insertions) << what;
    EXPECT_EQ(ca.evictions, cb.evictions) << what;
    EXPECT_EQ(ca.rejected_insertions, cb.rejected_insertions) << what;
    // Every slot read draws its read-retry level, in slot order.
    EXPECT_EQ(a.Reliability().reads_with_retry, b.Reliability().reads_with_retry) << what;
    EXPECT_EQ(a.Reliability().read_retries, b.Reliability().read_retries) << what;
    // Cache contents over zones 0-3: every page, chunk and zone key.
    const L2PCache& pa = a.l2p_cache();
    const L2PCache& pb = b.l2p_cache();
    std::uint64_t differ = 0;
    for (std::uint64_t lpn = 0; lpn < 4 * kZone / 4096; ++lpn) {
      for (MapGranularity g :
           {MapGranularity::kPage, MapGranularity::kChunk, MapGranularity::kZone}) {
        const L2pKey key = pa.KeyFor(g, Lpn{lpn});
        if (pa.Peek(key) != pb.Peek(key)) ++differ;
      }
    }
    EXPECT_EQ(differ, 0u) << what;
  }
};

TEST_P(RunReadEquivalenceTest, OneReadMatchesSingleSlotReads) {
  SimTime ta;
  SimTime tb;
  auto a = Make(&ta);
  auto b = Make(&tb);
  ASSERT_EQ(ta, tb);
  // The ranges below reach the map states they are named for.
  ASSERT_EQ(a->mapping().Get(Lpn{0}).gran, MapGranularity::kZone);
  ASSERT_EQ(a->mapping().Get(Lpn{kZone / 4096}).gran, MapGranularity::kChunk);
  ASSERT_EQ(a->mapping().Get(Lpn{(kZone + 4 * kMiB) / 4096}).gran, MapGranularity::kPage);
  ASSERT_EQ(a->mapping().Get(Lpn{3 * kZone / 4096}).gran, MapGranularity::kChunk);
  ASSERT_GT(a->zones().Info(ZoneId{3}).write_pointer, 4 * kMiB + 128 * kKiB);

  struct Range {
    const char* name;
    std::uint64_t off;
    std::uint64_t len;
  };
  const Range ranges[] = {
      {"zone_aggregated", 0, kZone},
      {"chunk_then_page", kZone + 3 * kMiB, 2 * kMiB},
      {"patch", kZone - 512 * kKiB, 512 * kKiB},
      {"buffered_tail", 3 * kZone + 4000 * kKiB, 424 * kKiB},
      {"cross_zone", kZone - 64 * kKiB, 128 * kKiB},
      {"across_write_pointer", 3 * kZone + 4000 * kKiB, 500 * kKiB},
  };
  const SimTime now = ta;
  for (const Range& r : ranges) {
    for (const char* pass : {"cold", "warm"}) {
      const std::string what = std::string(r.name) + " " + pass;
      const Outcome oa = ReadOnce(*a, r.off, r.len, now);
      const Outcome ob = ReadSlots(*b, r.off, r.len, now);
      EXPECT_EQ(oa.status.code(), ob.status.code()) << what << ": " << oa.status.ToString();
      if (oa.status.ok()) EXPECT_EQ(oa.tokens, ob.tokens) << what;
      ExpectSameFtlState(*a, *b, what);
    }
  }

  // A stale slot inside zone 0's aggregated run (second chunk, page slot
  // 1) and one at the head of the second read: both reads stop there
  // with the same error, having booked the same translations and draws.
  for (const Lpn stale : {Lpn{1029}, Lpn{2048}}) {
    for (const ConZoneDevice* d : {a.get(), b.get()}) {
      ASSERT_TRUE(MediaOf(*d).InvalidateSlot(d->mapping().Get(stale).ppn).ok());
    }
    for (const char* pass : {"cold", "warm"}) {
      const std::string what = "stale lpn " + std::to_string(stale.value()) + " " + pass;
      const Outcome oa = ReadOnce(*a, stale.value() == 2048 ? 8 * kMiB : 0, 8 * kMiB, now);
      const Outcome ob = ReadSlots(*b, stale.value() == 2048 ? 8 * kMiB : 0, 8 * kMiB, now);
      EXPECT_EQ(oa.status.code(), StatusCode::kInternal) << what;
      EXPECT_EQ(oa.status.ToString(), ob.status.ToString()) << what;
      ExpectSameFtlState(*a, *b, what);
    }
  }
  EXPECT_FALSE(ReadOnce(*a, 3 * kZone + 4000 * kKiB, 500 * kKiB, now).status.ok());
  EXPECT_GT(a->stats().buffer_ram_reads, 0u);
  if (GetParam().read_retry > 0) EXPECT_GT(a->Reliability().reads_with_retry, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RunReadEquivalenceTest,
    ::testing::Values(RunMode{"bitmap", L2pSearchStrategy::kBitmap, true},
                      RunMode{"multiple", L2pSearchStrategy::kMultiple, true},
                      RunMode{"pinned", L2pSearchStrategy::kPinned, true},
                      RunMode{"bitmap_read_retry", L2pSearchStrategy::kBitmap, true, 0.3},
                      RunMode{"page_only", L2pSearchStrategy::kBitmap, false}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace conzone
