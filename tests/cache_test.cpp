// ZoneCache + ZoneCacheFsck (DESIGN.md §14).
//
// Covers: mount validation, the put/get/delete/overwrite data path,
// eviction by zone reset (hot-entry migration, cold drops), the journal
// index bound, all three journal placements (multi-zone conventional,
// half-zone, sequential ping-pong), remount persistence, a deterministic
// power-cut sweep over every op boundary of a scripted zipfian workload,
// 24 randomized cut seeds, bit-identical same-seed recovery, fsck
// fingerprint stability, per-class I/O accounting, same-seed reruns on
// a striped volume, and an opt-in crash soak (CONZONE_CACHE_SOAK=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "cache/zone_cache.hpp"
#include "cache/zone_cache_fsck.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/device.hpp"
#include "femu/femu_device.hpp"
#include "host/striped_volume.hpp"
#include "legacy/legacy_device.hpp"
#include "workload/cache_workload.hpp"

namespace conzone {
namespace {

// Small single-chip device: 4 MiB zones (1024 slots), 9 zones total, so
// the cache actually churns — zones fill, the free pool drains, and
// eviction-by-reset fires within a few hundred operations.
ConZoneConfig CacheCfg(std::uint32_t conventional) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.channels = 1;
  cfg.geometry.chips_per_channel = 1;
  cfg.geometry.blocks_per_chip = 16;
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.zone_size_bytes = 4 * kMiB;
  cfg.num_conventional_zones = conventional;
  cfg.fault.power_loss = true;
  return cfg;
}

std::unique_ptr<ConZoneDevice> MakeDevice(std::uint32_t conventional) {
  auto dev = ConZoneDevice::Create(CacheCfg(conventional));
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  return std::move(dev).value();
}

std::vector<std::uint64_t> Value(std::uint64_t salt, std::uint32_t slots) {
  std::vector<std::uint64_t> v(slots);
  for (std::uint32_t i = 0; i < slots; ++i) v[i] = salt * 1000003 + i + 1;
  return v;
}

// Every entry a remounted cache serves must be a value the workload
// acknowledged for that key: generation g in [0, generations[key]].
// Anything else is wrong bytes — the one thing the crash contract
// forbids.
void CheckSemantics(ZoneCache& cache, const CacheJobSpec& spec,
                    const std::vector<std::uint32_t>& generations, SimTime& t) {
  for (const auto& e : cache.IndexSnapshot()) {
    ASSERT_LT(e.key, spec.keys);
    auto g = cache.Get(e.key, t);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ASSERT_TRUE(g.value().hit);
    t = g.value().done;
    bool matched = false;
    for (std::uint32_t cand = 0; cand <= generations[e.key] && !matched; ++cand) {
      if (g.value().tokens.size() !=
          CacheWorkloadRunner::ValueSlots(spec, e.key, cand)) {
        continue;
      }
      matched = true;
      for (std::uint32_t i = 0; i < g.value().tokens.size(); ++i) {
        if (g.value().tokens[i] !=
            CacheWorkloadRunner::ValueToken(spec.seed, e.key, cand, i)) {
          matched = false;
          break;
        }
      }
    }
    EXPECT_TRUE(matched) << "key " << e.key << " serves unacknowledged bytes";
  }
}

// ---------------------------------------------------------------------------
// Mount validation
// ---------------------------------------------------------------------------

TEST(ZoneCacheMountTest, RejectsNullAndNonZonedDevices) {
  EXPECT_EQ(ZoneCache::Mount(nullptr, {}, SimTime::Zero()).status().code(),
            StatusCode::kInvalidArgument);
  LegacyConfig lcfg;
  auto legacy = LegacyDevice::Create(lcfg);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(ZoneCache::Mount(legacy->get(), {}, SimTime::Zero()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ZoneCacheMountTest, RejectsBadOptions) {
  auto dev = MakeDevice(2);
  {
    ZoneCacheOptions o;
    o.num_groups = 0;
    EXPECT_EQ(ZoneCache::Mount(dev.get(), o, SimTime::Zero()).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    ZoneCacheOptions o;
    o.reserve_free_zones = 0;
    EXPECT_EQ(ZoneCache::Mount(dev.get(), o, SimTime::Zero()).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // 9 zones cannot host 8 groups + reserve + journal.
    ZoneCacheOptions o;
    o.num_groups = 8;
    EXPECT_EQ(ZoneCache::Mount(dev.get(), o, SimTime::Zero()).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

TEST(ZoneCacheDataPathTest, PutGetOverwriteDelete) {
  auto dev = MakeDevice(2);
  auto cache = ZoneCache::Mount(dev.get(), {}, SimTime::Zero());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  ZoneCache& c = **cache;
  SimTime t;

  // Miss on an empty cache is not an error.
  auto miss = c.Get(7, t);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().hit);

  const auto v1 = Value(1, 3);
  auto p = c.Put(7, 0, v1, t);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  t = p.value();

  auto hit = c.Get(7, t);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit.value().hit);
  EXPECT_EQ(hit.value().tokens, v1);
  t = hit.value().done;

  // Overwrite with a different length; the old extent becomes dead.
  const auto v2 = Value(2, 5);
  p = c.Put(7, 1, v2, t);
  ASSERT_TRUE(p.ok());
  t = p.value();
  hit = c.Get(7, t);
  ASSERT_TRUE(hit.ok() && hit.value().hit);
  EXPECT_EQ(hit.value().tokens, v2);
  t = hit.value().done;
  EXPECT_EQ(c.entries(), 1u);

  auto del = c.Delete(7, t);
  ASSERT_TRUE(del.ok());
  t = del.value();
  miss = c.Get(7, t);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().hit);
  // Deleting an absent key is a no-op.
  EXPECT_TRUE(c.Delete(7, t).ok());

  EXPECT_EQ(c.stats().gets, 4u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().puts, 2u);
  EXPECT_EQ(c.stats().deletes, 2u);
  EXPECT_DOUBLE_EQ(c.stats().HitRatio(), 0.5);

  auto rep = ZoneCacheFsck::Check(c, t);
  EXPECT_TRUE(rep.ok()) << (rep.problems.empty() ? "" : rep.problems.front());
}

TEST(ZoneCacheDataPathTest, PutValidation) {
  auto dev = MakeDevice(2);
  auto cache = ZoneCache::Mount(dev.get(), {}, SimTime::Zero());
  ASSERT_TRUE(cache.ok());
  ZoneCache& c = **cache;
  EXPECT_EQ(c.Put(1, 0, {}, SimTime::Zero()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Put(1, 5, Value(1, 2), SimTime::Zero()).status().code(),
            StatusCode::kInvalidArgument);  // group >= num_groups
  const auto huge = Value(1, static_cast<std::uint32_t>(c.zone_slots()));
  EXPECT_EQ(c.Put(1, 0, huge, SimTime::Zero()).status().code(),
            StatusCode::kInvalidArgument);  // header + value > one zone
}

TEST(ZoneCacheDataPathTest, PerClassCountersSeparateMigrationFromForeground) {
  auto dev = MakeDevice(2);
  ZoneCacheOptions opt;
  opt.sync_every_puts = 16;
  auto cache = ZoneCache::Mount(dev.get(), opt, SimTime::Zero());
  ASSERT_TRUE(cache.ok());
  ZoneCache& c = **cache;
  CacheJobSpec spec;
  spec.keys = 96;
  spec.ops = 600;
  spec.min_value_slots = 8;
  spec.max_value_slots = 15;
  auto r = CacheWorkloadRunner::Run(c, spec, SimTime::Zero());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const StatsSnapshot s = dev->Stats();
  const auto fg = static_cast<std::size_t>(IoClass::kHostForeground);
  const auto mig = static_cast<std::size_t>(IoClass::kCacheMigration);
  EXPECT_GT(s.class_writes[fg], 0u);
  EXPECT_GT(s.class_reads[fg], 0u);
  if (c.stats().migrated_entries > 0) {
    EXPECT_GT(s.class_writes[mig], 0u);
    EXPECT_GT(s.class_reads[mig], 0u);
  }
  // Class buckets (successful I/O only) never exceed the blended
  // counters, which also see requests that fail mid-flight (e.g. the
  // mount-time write-pointer probe reads).
  const auto mnt = static_cast<std::size_t>(IoClass::kMaintenance);
  EXPECT_LE(s.class_writes[fg] + s.class_writes[mig] + s.class_writes[mnt],
            s.writes);
  EXPECT_LE(s.class_reads[fg] + s.class_reads[mig] + s.class_reads[mnt],
            s.reads);
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

TEST(ZoneCacheEvictionTest, ResetsColdZoneAndMigratesHotEntries) {
  auto dev = MakeDevice(2);
  ZoneCacheOptions opt;
  opt.sync_every_puts = 32;
  auto cache = ZoneCache::Mount(dev.get(), opt, SimTime::Zero());
  ASSERT_TRUE(cache.ok());
  ZoneCache& c = **cache;
  SimTime t;

  // Admit unique large entries so data zones fill with *live* content
  // and the free-zone reserve — not the journal bound — forces
  // eviction-by-reset. Even keys get read immediately (a hit makes them
  // migration candidates); odd keys stay cold and must be dropped with
  // their zone.
  std::uint64_t k = 0;
  std::vector<std::uint64_t> even_put;
  while (c.stats().evictions < 2 && k < 500) {
    auto p = c.Put(k, 0, Value(k, 40), t);
    ASSERT_TRUE(p.ok()) << "put " << k << ": " << p.status().ToString();
    t = p.value();
    if (k % 2 == 0) {
      auto g = c.Get(k, t);
      ASSERT_TRUE(g.ok() && g.value().hit);
      t = g.value().done;
      even_put.push_back(k);
    }
    ++k;
  }
  ASSERT_GE(c.stats().evictions, 2u);
  EXPECT_GT(c.stats().migrated_entries, 0u);
  EXPECT_GT(c.stats().dropped_entries, 0u);

  // Every even key still present must serve intact bytes (it was either
  // untouched or migrated — never corrupted).
  for (std::uint64_t key : even_put) {
    auto g = c.Get(key, t);
    ASSERT_TRUE(g.ok());
    if (g.value().hit) EXPECT_EQ(g.value().tokens, Value(key, 40));
    t = g.value().done;
  }
  auto rep = ZoneCacheFsck::Check(c, t);
  EXPECT_TRUE(rep.ok()) << (rep.problems.empty() ? "" : rep.problems.front());
}

TEST(ZoneCacheEvictionTest, IndexPressureKeepsEntriesWithinJournalBound) {
  auto dev = MakeDevice(2);
  auto cache = ZoneCache::Mount(dev.get(), {}, SimTime::Zero());
  ASSERT_TRUE(cache.ok());
  ZoneCache& c = **cache;
  SimTime t;
  const std::uint64_t n = c.max_entries() + 50;
  for (std::uint64_t k = 0; k < n; ++k) {
    auto p = c.Put(k, k % 2, Value(k, 1), t);
    ASSERT_TRUE(p.ok()) << "put " << k << ": " << p.status().ToString();
    t = p.value();
    EXPECT_LE(c.entries(), c.max_entries());
  }
  auto rep = ZoneCacheFsck::Check(c, t);
  EXPECT_TRUE(rep.ok()) << (rep.problems.empty() ? "" : rep.problems.front());
}

// ---------------------------------------------------------------------------
// Remount persistence (all three journal placements)
// ---------------------------------------------------------------------------

class ZoneCacheJournalPlacementTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ZoneCacheJournalPlacementTest, SyncedEntriesSurviveRemount) {
  auto dev = MakeDevice(GetParam());
  ZoneCacheOptions opt;
  SimTime t;
  std::uint64_t fp1 = 0;
  {
    auto cache = ZoneCache::Mount(dev.get(), opt, t);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    ZoneCache& c = **cache;
    for (std::uint64_t k = 0; k < 20; ++k) {
      auto p = c.Put(k, 0, Value(k, 2 + k % 5), t);
      ASSERT_TRUE(p.ok());
      t = p.value();
    }
    auto d = c.Delete(3, t);
    ASSERT_TRUE(d.ok());
    t = d.value();
    auto s = c.Sync(t);
    ASSERT_TRUE(s.ok());
    t = s.value();
    fp1 = ZoneCacheFsck::Check(c, t).fingerprint;
    ASSERT_NE(fp1, 0u);
  }
  // A second mount on the same (un-cut) device sees the same state.
  auto cache = ZoneCache::Mount(dev.get(), opt, t);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  ZoneCache& c = **cache;
  EXPECT_EQ(c.entries(), 19u);
  EXPECT_EQ(c.stats().mount_dropped, 0u);
  for (std::uint64_t k = 0; k < 20; ++k) {
    auto g = c.Get(k, t);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().hit, k != 3);
    if (g.value().hit) EXPECT_EQ(g.value().tokens, Value(k, 2 + k % 5));
    t = g.value().done;
  }
  auto rep = ZoneCacheFsck::Check(c, t);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.fingerprint, fp1);
}

INSTANTIATE_TEST_SUITE_P(Placements, ZoneCacheJournalPlacementTest,
                         ::testing::Values(0u, 1u, 2u),
                         [](const auto& info) {
                           return "conv" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Power-cut sweep: every op boundary of a scripted workload
// ---------------------------------------------------------------------------

CacheJobSpec SweepSpec() {
  CacheJobSpec spec;
  spec.keys = 64;
  spec.ops = 48;
  spec.min_value_slots = 6;
  spec.max_value_slots = 14;
  spec.seed = 99;
  return spec;
}

// One crash round: run `ops` operations from a fresh cache, cut the
// power un-synced, recover, remount, fsck, and check every surviving
// value is an acknowledged generation. Returns the fsck fingerprint.
std::uint64_t CrashRound(std::uint32_t conventional, const CacheJobSpec& base,
                         std::uint64_t ops, std::uint64_t sync_every) {
  auto dev = MakeDevice(conventional);
  ZoneCacheOptions opt;
  opt.sync_every_puts = sync_every;
  CacheJobSpec spec = base;
  spec.ops = ops;

  auto cache = ZoneCache::Mount(dev.get(), opt, SimTime::Zero());
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  if (!cache.ok()) return 0;
  CacheRunResult run;
  run.generations.assign(spec.keys, 0);
  // For an ops=0 round the cut lands after all mount-time journal
  // writes; any instant past their submissions is valid.
  SimTime cut = SimTime::FromNanos(1'000'000'000'000ull);
  if (ops > 0) {
    auto r = CacheWorkloadRunner::Run(**cache, spec, SimTime::Zero());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return 0;
    run = std::move(r).value();
    cut = run.end;
  }
  EXPECT_TRUE(dev->PowerCut(cut).ok());
  auto rec = dev->Recover(cut);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  if (!rec.ok()) return 0;

  auto c2 = ZoneCache::Mount(dev.get(), opt, rec.value());
  EXPECT_TRUE(c2.ok()) << c2.status().ToString();
  if (!c2.ok()) return 0;
  auto rep = ZoneCacheFsck::Check(**c2, rec.value());
  EXPECT_EQ(rep.inconsistencies, 0u)
      << "ops=" << ops << ": " << rep.problems.front();
  SimTime t = rec.value();
  CheckSemantics(**c2, spec, run.generations, t);

  // The cache must stay serviceable: resume the workload on it (hits
  // may serve any acknowledged generation after the crash).
  CacheJobSpec resume = spec;
  resume.ops = 12;
  resume.require_latest = false;
  auto r2 = CacheWorkloadRunner::Run(**c2, resume, t, &run.generations);
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
  return rep.fingerprint;
}

TEST(ZoneCacheCrashTest, OpBoundaryCutSweep) {
  const CacheJobSpec spec = SweepSpec();
  for (std::uint64_t ops = 0; ops <= spec.ops; ++ops) {
    CrashRound(/*conventional=*/2, spec, ops, /*sync_every=*/8);
    if (HasFailure()) FAIL() << "sweep failed at op boundary " << ops;
  }
}

TEST(ZoneCacheCrashTest, OpBoundaryCutSweepSequentialJournal) {
  const CacheJobSpec spec = SweepSpec();
  for (std::uint64_t ops = 0; ops <= spec.ops; ops += 4) {
    CrashRound(/*conventional=*/0, spec, ops, /*sync_every=*/8);
    if (HasFailure()) FAIL() << "sweep failed at op boundary " << ops;
  }
}

TEST(ZoneCacheCrashTest, RandomCutSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(MixSeeds(seed, 0xCAC4E, 0));
    CacheJobSpec spec;
    spec.seed = seed;
    spec.keys = 32 + rng.NextBelow(96);
    spec.min_value_slots = 1 + static_cast<std::uint32_t>(rng.NextBelow(6));
    spec.max_value_slots =
        spec.min_value_slots + static_cast<std::uint32_t>(rng.NextBelow(10));
    const std::uint64_t ops = 1 + rng.NextBelow(150);
    const std::uint64_t sync_every = rng.NextBelow(24);
    const auto conventional = static_cast<std::uint32_t>(seed % 3);
    CrashRound(conventional, spec, ops, sync_every);
    if (HasFailure()) FAIL() << "random-cut seed " << seed << " failed";
  }
}

TEST(ZoneCacheCrashTest, SameSeedRecoveryIsBitIdentical) {
  const CacheJobSpec spec = SweepSpec();
  const std::uint64_t a = CrashRound(2, spec, 37, 8);
  ASSERT_FALSE(HasFailure());
  const std::uint64_t b = CrashRound(2, spec, 37, 8);
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);  // 37 ops with sync_every=8 leaves durable entries.
}

// ---------------------------------------------------------------------------
// Same-seed determinism on a striped volume
// ---------------------------------------------------------------------------

TEST(ZoneCacheVolumeTest, SameSeedRerunOnStripedVolumeIsBitIdentical) {
  CacheJobSpec spec;
  spec.keys = 256;
  spec.ops = 400;
  spec.seed = 5;
  struct Round {
    std::uint64_t run_fp;
    std::uint64_t fsck_fp;
    std::uint64_t hits;
  };
  std::vector<Round> rounds;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::unique_ptr<StorageDevice>> devs;
    for (std::uint32_t i = 0; i < 2; ++i) {
      FemuConfig fcfg;
      fcfg.seed = i + 1;
      auto d = FemuModelDevice::Create(fcfg);
      ASSERT_TRUE(d.ok());
      devs.push_back(std::move(d).value());
    }
    auto vol = StripedVolume::Create(std::move(devs), {});
    ASSERT_TRUE(vol.ok()) << vol.status().ToString();

    auto cache = ZoneCache::Mount(vol->get(), {}, SimTime::Zero());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    auto r = CacheWorkloadRunner::Run(**cache, spec, SimTime::Zero());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto rep = ZoneCacheFsck::Check(**cache, r.value().end);
    ASSERT_TRUE(rep.ok());
    rounds.push_back(Round{r.value().fingerprint, rep.fingerprint,
                           r.value().hits});
  }
  EXPECT_EQ(rounds[1].run_fp, rounds[0].run_fp);
  EXPECT_EQ(rounds[1].fsck_fp, rounds[0].fsck_fp);
  EXPECT_EQ(rounds[1].hits, rounds[0].hits);
  EXPECT_GT(rounds[0].hits, 0u);
}

// ---------------------------------------------------------------------------
// Opt-in soak: repeated un-synced cuts on one surviving device
// ---------------------------------------------------------------------------

TEST(ZoneCacheCrashSoakTest, RepeatedCutsOnOneDeviceSoak) {
  if (std::getenv("CONZONE_CACHE_SOAK") == nullptr) {
    GTEST_SKIP() << "set CONZONE_CACHE_SOAK=1 to run";
  }
  auto dev = MakeDevice(2);
  ZoneCacheOptions opt;
  opt.sync_every_puts = 16;
  CacheJobSpec spec;
  spec.keys = 128;
  spec.min_value_slots = 4;
  spec.max_value_slots = 12;
  spec.require_latest = false;
  spec.seed = 7;  // Fixed across rounds: values are a function of the seed.
  std::vector<std::uint32_t> generations(spec.keys, 0);
  SimTime t;
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    auto cache = ZoneCache::Mount(dev.get(), opt, t);
    ASSERT_TRUE(cache.ok()) << "round " << round << ": "
                            << cache.status().ToString();
    auto rep = ZoneCacheFsck::Check(**cache, t);
    ASSERT_EQ(rep.inconsistencies, 0u)
        << "round " << round << ": " << rep.problems.front();
    CheckSemantics(**cache, spec, generations, t);
    spec.ops = 20 + rng.NextBelow(120);
    auto r = CacheWorkloadRunner::Run(**cache, spec, t, &generations);
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.status().ToString();
    generations = r.value().generations;
    t = r.value().end;
    ASSERT_TRUE(dev->PowerCut(t).ok());
    auto rec = dev->Recover(t);
    ASSERT_TRUE(rec.ok());
    t = rec.value();
  }
}

}  // namespace
}  // namespace conzone
