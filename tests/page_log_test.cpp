// Bit-for-bit pins of the page-mapped in-place log: the Legacy baseline's
// FTL and ConZone's conventional zones run the same write, flush, read
// and GC code, and these seeded streams drive it through both devices.
//
// Each test hashes every completion time (or error code), every
// read-back token and the counters the log touches (the ConZone tests
// also where each lpn lives) into one FNV-1a digest and compares it with
// a recorded value. A change to buffering, flush placement, GC victim
// order, unit issue times or journal windows moves the digest. The
// counter assertions prove each path ran.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/device.hpp"
#include "legacy/legacy_device.hpp"

#include "test_digest.hpp"
#include "test_io.hpp"

namespace conzone {
namespace {

std::uint64_t TokenOf(std::uint64_t lpn, std::uint64_t version) {
  return (lpn * 0x9E3779B97F4A7C15ull) ^ (version << 40) ^ 0x5A5Au;
}
std::uint64_t VersionOf(std::uint64_t lpn, std::uint64_t token) {
  return (token ^ (lpn * 0x9E3779B97F4A7C15ull) ^ 0x5A5Au) >> 40;
}

/// Random in-place traffic over [base, base + span): 512 KiB, 64 KiB and
/// 4 KiB overwrites, reads checked against the last version written, and
/// host flushes. Every op is issued when the previous one completes.
/// `version` holds the last version written per slot of the span.
void Churn(StorageDevice& dev, std::uint64_t base, std::uint64_t span, int ops,
           std::uint64_t seed, std::vector<std::uint64_t>& version, SimTime& t,
           Digest& dg) {
  const std::uint64_t slot = 4096;
  Rng rng(seed);
  std::uint64_t next_version = seed * 100000;  // < 2^24, fits TokenOf
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t pick = rng.NextBelow(100);
    const std::uint64_t len = pick < 20 ? 512 * kKiB : pick < 35 ? 64 * kKiB : 4096;
    // Aligned to its length, so no write crosses a zone boundary.
    const std::uint64_t off = rng.NextBelow(span / len) * len;
    const std::uint64_t first = off / slot;
    if (pick < 75) {
      const std::uint64_t v = ++next_version;
      std::vector<std::uint64_t> tokens(len / slot);
      for (std::uint64_t k = 0; k < tokens.size(); ++k) {
        tokens[k] = TokenOf(first + k, v);
        version[first + k] = v;
      }
      auto r = TestWrite(dev, base + off, len, t, tokens);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      dg.Add(r);
      t = r.value();
    } else if (pick < 95) {
      std::vector<std::uint64_t> got;
      auto r = TestRead(dev, base + off, len, t, &got);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      dg.Add(r);
      t = r.value();
      for (std::uint64_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k], TokenOf(first + k, version[first + k])) << "slot " << first + k;
        dg.Add(got[k]);
      }
    } else {
      auto r = dev.Flush(t);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      dg.Add(r);
      t = r.value();
    }
  }
}

/// Fill [base, base + span) once, version 0, in 512 KiB writes.
void Fill(StorageDevice& dev, std::uint64_t base, std::uint64_t span,
          std::vector<std::uint64_t>& version, SimTime& t, Digest& dg) {
  for (std::uint64_t off = 0; off < span; off += 512 * kKiB) {
    const std::uint64_t len = std::min<std::uint64_t>(512 * kKiB, span - off);
    std::vector<std::uint64_t> tokens(len / 4096);
    for (std::uint64_t k = 0; k < tokens.size(); ++k) {
      tokens[k] = TokenOf(off / 4096 + k, 0);
      version[off / 4096 + k] = 0;
    }
    auto r = TestWrite(dev, base + off, len, t, tokens);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dg.Add(r);
    t = r.value();
  }
}

TEST(PageLogPinTest, LegacyCollectsBothRegionsBitForBit) {
  LegacyConfig cfg;
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  auto made = LegacyDevice::Create(cfg);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  LegacyDevice& dev = **made;
  // Half the space: a fuller Legacy device runs out of GC headroom.
  const std::uint64_t span = RoundDown(dev.info().capacity_bytes / 2, 512 * kKiB);
  std::vector<std::uint64_t> version(span / 4096);
  Digest dg;
  SimTime t;
  ASSERT_NO_FATAL_FAILURE(Fill(dev, 0, span, version, t, dg));
  ASSERT_NO_FATAL_FAILURE(Churn(dev, 0, span, 9000, 23, version, t, dg));

  // Both regions collected: the normal-region pass and the SLC-region
  // pass that migrates into the log.
  const MediaCounters& m = dev.media_counters();
  EXPECT_GT(m.erases_slc, 0u);
  EXPECT_GT(m.erases_normal, 0u);
  EXPECT_GT(dev.stats().gc_slots_migrated, 0u);
  EXPECT_GT(dev.stats().overwrites, 0u);
  EXPECT_GT(dev.stats().premature_flushes, 0u);
  EXPECT_GT(dev.stats().buffer_ram_reads, 0u);

  dg.Add(m);
  dg.Add(dev.translator().stats());
  dg.Add(dev.Stats());
  const LegacyStats s = dev.stats();
  for (std::uint64_t v : {s.flushes, s.premature_flushes, s.buffer_ram_reads, s.gc_runs,
                          s.gc_slots_migrated, s.overwrites}) {
    dg.Add(v);
  }
  EXPECT_EQ(dg.value(), 0x5300CEF146A317BFull) << std::hex << dg.value();
}

/// Where every lpn of the conventional zones lives: GC victim choice and
/// unit placement show here even where no timing moves.
void AddPlacement(const ConZoneDevice& dev, Digest& dg) {
  const std::uint64_t lpns =
      dev.num_conventional_zones() * dev.info().zone_size_bytes / 4096;
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    const MapEntry e = dev.mapping().Get(Lpn{lpn});
    dg.Add(e.mapped() ? e.ppn.value() : ~0ull);
  }
}

/// Everything else the in-place paths feed.
void AddCounters(const ConZoneDevice& dev, Digest& dg) {
  dg.Add(dev.media_counters());
  dg.Add(dev.translator().stats());
  dg.Add(dev.Stats());
  const ConZoneStats s = dev.stats();
  for (std::uint64_t v :
       {s.flushes, s.premature_flushes, s.conflict_flushes, s.buffer_ram_reads,
        s.conventional_writes, s.conventional_overwrites, s.conventional_gc_runs,
        s.conventional_gc_migrated}) {
    dg.Add(v);
  }
  const GcStats& g = dev.gc().stats();
  for (std::uint64_t v : {g.runs, g.victims, g.slots_migrated, g.superblocks_erased,
                          g.busy_time.ns()}) {
    dg.Add(v);
  }
  dg.Add(dev.l2p_log().stats().entries_appended);
  dg.Add(dev.l2p_log().stats().flushes);
  dg.Add(dev.Reliability().program_failures_normal);
  dg.Add(dev.Reliability().recovery_time.ns());
  AddPlacement(dev, dg);
}

/// Pool GC moved live data, and the SLC GC ran and, with only
/// conventional data in SLC, evicted every slot it migrated into the
/// pool.
void ExpectPoolGcAndEvictionRan(const ConZoneDevice& dev) {
  const ConZoneStats s = dev.stats();
  EXPECT_GT(s.conventional_gc_runs, 0u);
  EXPECT_GT(s.conventional_gc_migrated, 0u);
  EXPECT_GT(s.conventional_overwrites, 0u);
  EXPECT_GT(s.conflict_flushes, 0u);
  EXPECT_GT(dev.gc().stats().runs, 0u);
  EXPECT_GT(dev.gc().stats().slots_migrated, 0u);
}

ConZoneConfig ConventionalPinConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 24;  // 4 SLC + 20 normal
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.num_conventional_zones = 2;
  cfg.l2p_log.enabled = true;  // every remap appends a log entry
  return cfg;
}

TEST(PageLogPinTest, ConventionalPoolGcAndSlcEvictionBitForBit) {
  ConZoneConfig cfg = ConventionalPinConfig();
  cfg.fault.power_loss = true;  // journal every window
  auto made = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  const std::uint64_t span = 2 * dev.info().zone_size_bytes;
  std::vector<std::uint64_t> version(span / 4096);
  Digest dg;
  SimTime t;
  // Two full passes: the second invalidates whole superblocks at once,
  // so GC meets victims with equal valid counts.
  ASSERT_NO_FATAL_FAILURE(Fill(dev, 0, span, version, t, dg));
  ASSERT_NO_FATAL_FAILURE(Fill(dev, 0, span, version, t, dg));
  auto flushed = dev.Flush(t);  // every lpn keeps a durable copy from here
  ASSERT_TRUE(flushed.ok());
  t = flushed.value();
  for (std::uint64_t round = 0; round < 10; ++round) {
    ASSERT_NO_FATAL_FAILURE(Churn(dev, 0, span, 600, 31 + round, version, t, dg));
    // Cut at the last submission: programs still on the die roll back
    // through the journal windows the in-place paths stamped.
    ASSERT_TRUE(dev.PowerCut(dev.last_submit()).ok());
    auto rec = dev.Recover(dev.last_submit());
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    dg.Add(rec);
    t = rec.value();
    AddPlacement(dev, dg);
    // Read back what survived; the next round checks reads against it.
    for (std::uint64_t off = 0; off < span; off += 64 * kKiB) {
      std::vector<std::uint64_t> got;
      auto r = TestRead(dev, off, 64 * kKiB, t, &got);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      dg.Add(r);
      t = r.value();
      for (std::uint64_t k = 0; k < got.size(); ++k) {
        dg.Add(got[k]);
        version[off / 4096 + k] = VersionOf(off / 4096 + k, got[k]);
      }
    }
  }
  ExpectPoolGcAndEvictionRan(dev);
  AddCounters(dev, dg);
  EXPECT_EQ(dg.value(), 0x28AA57BF92CDA311ull) << std::hex << dg.value();
}

TEST(PageLogPinTest, ConventionalPathsUnderMediaFaultsBitForBit) {
  // Failed normal programs burn pulses in host flushes and pool GC; read
  // retries raise page-read costs.
  ConZoneConfig cfg = ConventionalPinConfig();
  cfg.fault.seed = 77;
  cfg.fault.normal.program_fail = 0.0002;
  cfg.fault.normal.read_retry = 0.05;
  cfg.fault.slc.read_retry = 0.05;
  auto made = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  const std::uint64_t span = 2 * dev.info().zone_size_bytes;
  std::vector<std::uint64_t> version(span / 4096);
  Digest dg;
  SimTime t;
  ASSERT_NO_FATAL_FAILURE(Fill(dev, 0, span, version, t, dg));
  ASSERT_NO_FATAL_FAILURE(Churn(dev, 0, span, 6000, 31, version, t, dg));
  ExpectPoolGcAndEvictionRan(dev);
  EXPECT_GT(dev.Reliability().program_failures_normal, 0u);
  AddCounters(dev, dg);
  EXPECT_EQ(dg.value(), 0x5EE6EAECBD472D2Eull) << std::hex << dg.value();
}

TEST(PageLogPinTest, SlcEvictionAfterBurnedProgramsBitForBit) {
  // 4 KiB in-place writes stage in SLC until the SLC GC evicts them into
  // the pool. One normal program in ten fails, so eviction units meet
  // burned pulses, and each waits for them before it programs.
  ConZoneConfig cfg = ConventionalPinConfig();
  cfg.fault.seed = 5;
  cfg.fault.normal.program_fail = 0.1;
  auto made = ConZoneDevice::Create(cfg);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  const std::uint64_t span = 2 * dev.info().zone_size_bytes;
  Rng rng(3);
  Digest dg;
  SimTime t;
  for (int i = 0; i < 5000; ++i) {
    auto r = TestWrite(dev, rng.NextBelow(span / 4096) * 4096, 4096, t);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dg.Add(r);
    t = r.value();
  }
  EXPECT_GT(dev.gc().stats().slots_migrated, 0u);
  EXPECT_GT(dev.Reliability().program_failures_normal, 0u);
  AddCounters(dev, dg);
  EXPECT_EQ(dg.value(), 0x7E92DC14D8B033E4ull) << std::hex << dg.value();
}

}  // namespace
}  // namespace conzone
