// Bit-for-bit pins of the host layer: ZoneCache's zone seals and
// admissions, and the striped and mirrored volumes' geometry checks,
// zone-limit folds, summed counters, scrub and rebuild.
//
// Two seeded cache streams, one over a conventional journal (a device
// with two conventional zones) and one over a sequential journal (no
// conventional zones), mix puts, gets, deletes, syncs, bursts of fresh
// keys that fill the index, and power cuts each followed by Recover and
// a remount. Between them they seal zones at all four sites (the mount
// after a cut, the migration stream's rollover, index pressure and the
// admission rollover) and admit entries through Put and through
// migration. Two mirror scenarios take members through failure,
// degraded reads, scrub repair and a live rebuild with a cut and a zone
// reset in it, and a striped volume folds differing member limits.
//
// Each test hashes every completion time (or error code), read-back
// token and counter into one FNV-1a digest and compares it with a
// recorded value. The device counters include the per-IoClass buckets,
// which Digest::Add(StatsSnapshot) leaves out, so the class of every
// seal and admission is pinned as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/zone_cache.hpp"
#include "cache/zone_cache_fsck.hpp"
#include "common/rng.hpp"
#include "conzone/conzone.hpp"

#include "test_digest.hpp"

namespace conzone {
namespace {

/// StatsSnapshot in full: the fields Digest::Add covers plus resets,
/// host flushes and the per-class buckets.
void AddStats(Digest& dg, const StatsSnapshot& s) {
  dg.Add(s);
  dg.Add(s.zone_resets);
  dg.Add(s.host_flushes);
  for (std::size_t c = 0; c < kNumIoClasses; ++c) {
    dg.Add(s.class_reads[c]);
    dg.Add(s.class_writes[c]);
  }
}

void AddCacheStats(Digest& dg, const ZoneCacheStats& s) {
  for (std::uint64_t v :
       {s.gets, s.hits, s.puts, s.deletes, s.admitted_slots, s.evictions,
        s.migrated_entries, s.migrated_slots, s.dropped_entries, s.journal_records,
        s.journal_snapshots, s.syncs, s.mount_replayed, s.mount_entries,
        s.mount_dropped}) {
    dg.Add(v);
  }
}

/// A device's summed counters as a volume reports them.
void AddMemberSums(Digest& dg, const StorageDevice& d) {
  AddStats(dg, d.Stats());
  dg.Add(d.Reliability());
  dg.Add(d.Recovery());
}

void AddInfo(Digest& dg, const DeviceInfo& di) {
  for (char c : di.name) dg.Add(static_cast<std::uint64_t>(c));
  for (std::uint64_t v :
       {di.capacity_bytes, di.io_alignment, di.zone_size_bytes, di.slc_bytes,
        std::uint64_t{di.num_zones}, std::uint64_t{di.num_conventional_zones},
        std::uint64_t{di.max_open_zones}, std::uint64_t{di.max_active_zones},
        static_cast<std::uint64_t>(di.health)}) {
    dg.Add(v);
  }
}

// ---------------------------------------------------------------------------
// ZoneCache streams
// ---------------------------------------------------------------------------

/// Single-chip device with 4 MiB zones (9 zones), so the cache churns:
/// zones fill, the free pool drains and eviction fires within a few
/// hundred operations.
ConZoneConfig CacheDeviceConfig(std::uint32_t conventional) {
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

class CacheStream {
 public:
  static constexpr std::uint64_t kKeys = 150;
  static constexpr std::uint64_t kMaxValueSlots = 48;

  CacheStream(std::uint32_t conventional, std::uint64_t seed) : rng_(seed) {
    auto dev = ConZoneDevice::Create(CacheDeviceConfig(conventional));
    EXPECT_TRUE(dev.ok()) << dev.status().ToString();
    dev_ = std::move(dev).value();
    opt_.sync_every_puts = 24;
  }

  /// Mount, then run `ops` random ops; every op starts when the previous
  /// one ends.
  void Run(int ops) {
    ASSERT_NO_FATAL_FAILURE(Mount());
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t pick = rng_.NextBelow(1000);
      if (pick < 500) {
        Put(rng_.NextBelow(kKeys), 1 + rng_.NextBelow(kMaxValueSlots));
      } else if (pick < 880) {
        Get(rng_.NextBelow(kKeys));
      } else if (pick < 920) {
        Add(cache_->Delete(rng_.NextBelow(kKeys), t_));
      } else if (pick < 998) {
        Add(cache_->Sync(t_));
      } else if (pick < 999) {
        // Fresh one-slot keys fill the index while every live entry sits
        // in an open zone: the index-pressure seal.
        const std::uint64_t n = cache_->max_entries() + 16;
        for (std::uint64_t k = 0; k < n; ++k) Put(fresh_key_++, 1);
      } else {
        ASSERT_NO_FATAL_FAILURE(Cut());
      }
    }
    Close();
    AddStats(dg_, dev_->Stats());
    dg_.Add(dev_->Recovery());
  }

  Digest& digest() { return dg_; }
  std::uint64_t mounts() const { return mounts_; }
  std::uint64_t failed_ops() const { return failed_; }
  /// The counters the coverage checks read, summed over every mount.
  const ZoneCacheStats& totals() const { return totals_; }

 private:
  void Add(const Result<SimTime>& r) {
    dg_.Add(r);
    if (r.ok()) {
      t_ = r.value();
    } else {
      ++failed_;
    }
  }

  void Put(std::uint64_t key, std::uint64_t slots) {
    std::vector<std::uint64_t> value(slots);
    for (std::uint64_t i = 0; i < slots; ++i) {
      value[i] = (key + 1) * 0x9E3779B97F4A7C15ull ^ (serial_ << 16) ^ i;
    }
    ++serial_;
    // Three keys in four go to group 0, so its zones fill and roll over.
    Add(cache_->Put(key, key % 4 == 0 ? 1 : 0, value, t_));
  }

  void Get(std::uint64_t key) {
    auto g = cache_->Get(key, t_);
    if (!g.ok()) {
      Add(g.status());
      return;
    }
    dg_.Add(g.value().hit);
    for (std::uint64_t tok : g.value().tokens) dg_.Add(tok);
    Add(g.value().done);
  }

  void Mount() {
    auto c = ZoneCache::Mount(dev_.get(), opt_, t_);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    cache_ = std::move(c).value();
    ++mounts_;
    const ZoneCacheFsck::Report rep = ZoneCacheFsck::Check(*cache_, t_);
    EXPECT_EQ(rep.inconsistencies, 0u) << rep.problems.front();
    dg_.Add(rep.fingerprint);
    dg_.Add(rep.entries_checked);
    dg_.Add(rep.live_slots);
    dg_.Add(cache_->free_data_zones());
  }

  /// Fold the mounted cache's counters and fsck verdict into the digest.
  void Close() {
    const ZoneCacheStats& s = cache_->stats();
    AddCacheStats(dg_, s);
    totals_.evictions += s.evictions;
    totals_.migrated_entries += s.migrated_entries;
    totals_.dropped_entries += s.dropped_entries;
    totals_.mount_entries += s.mount_entries;
    const ZoneCacheFsck::Report rep = ZoneCacheFsck::Check(*cache_, t_);
    EXPECT_EQ(rep.inconsistencies, 0u) << rep.problems.front();
    dg_.Add(rep.fingerprint);
    dg_.Add(rep.inconsistencies);
  }

  void Cut() {
    Close();
    t_ = Later(t_, dev_->last_submit());
    ASSERT_TRUE(dev_->PowerCut(t_).ok());
    auto rec = dev_->Recover(t_);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    Add(rec);
    ASSERT_NO_FATAL_FAILURE(Mount());
  }

  std::unique_ptr<ConZoneDevice> dev_;
  std::unique_ptr<ZoneCache> cache_;
  ZoneCacheOptions opt_;
  Rng rng_;
  Digest dg_;
  SimTime t_;
  std::uint64_t serial_ = 0;
  std::uint64_t fresh_key_ = kKeys;
  std::uint64_t mounts_ = 0;
  std::uint64_t failed_ = 0;
  ZoneCacheStats totals_;
};

void RunCacheStream(std::uint32_t conventional, std::uint64_t seed,
                    std::uint64_t expected) {
  CacheStream stream(conventional, seed);
  ASSERT_NO_FATAL_FAILURE(stream.Run(20000));
  const ZoneCacheStats& s = stream.totals();
  EXPECT_GT(stream.mounts(), 4u);
  EXPECT_GT(s.mount_entries, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.migrated_entries, 0u);
  EXPECT_GT(s.dropped_entries, 0u);
  EXPECT_EQ(stream.failed_ops(), 0u);
  EXPECT_EQ(stream.digest().value(), expected) << std::hex << stream.digest().value();
}

TEST(HostPathPinTest, CacheOnConventionalJournalBitForBit) {
  RunCacheStream(/*conventional=*/2, /*seed=*/29, 0x7F49F1358B89252Full);
}

TEST(HostPathPinTest, CacheOnSequentialJournalBitForBit) {
  RunCacheStream(/*conventional=*/0, /*seed=*/31, 0xCB275D4D9E8775ADull);
}

// ---------------------------------------------------------------------------
// Volumes
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> Tokens(std::uint64_t first, std::uint64_t n,
                                  std::uint64_t salt) {
  std::vector<std::uint64_t> t(n);
  for (std::uint64_t i = 0; i < n; ++i) t[i] = (first + i) * 7919 + salt + 1;
  return t;
}

ConZoneConfig MirrorMemberConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.fault.power_loss = true;
  return cfg;
}

std::unique_ptr<StorageDevice> MakeFemu(std::uint64_t seed, std::uint32_t open = 6,
                                        std::uint32_t active = 12) {
  FemuConfig cfg;
  cfg.seed = seed;
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.max_open_zones = open;
  cfg.max_active_zones = active;
  auto dev = FemuModelDevice::Create(cfg);
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  return std::move(dev).value();
}

/// Issues ops to one volume; every op starts when the previous one ends.
class VolumeOps {
 public:
  explicit VolumeOps(StorageDevice& vol) : vol_(vol) {}

  void Add(const Result<SimTime>& r) {
    dg_.Add(r);
    if (r.ok()) t_ = r.value();
  }
  void Add(const Status& st) { dg_.Add(static_cast<std::uint64_t>(st.code())); }

  void Write(std::uint64_t off, std::uint64_t len, std::uint64_t salt) {
    const auto toks = Tokens(off / 4096, len / 4096, salt);
    auto r = vol_.Write(IoRequest{off, len, t_, toks});
    Add(r.ok() ? Result<SimTime>(r.value().done) : Result<SimTime>(r.status()));
  }

  void Read(std::uint64_t off, std::uint64_t len) {
    auto r = vol_.Read(IoRequest{off, len, t_, {}, /*want_tokens=*/true});
    if (!r.ok()) {
      Add(r.status());
      return;
    }
    dg_.Add(r.value().reconstructed_units);
    for (std::uint64_t tok : r.value().tokens) dg_.Add(tok);
    Add(r.value().done);
  }

  /// Tick until the background job ends (or `max_ticks` ran).
  void TickUntilIdle(RedundantVolume& v, int max_ticks) {
    for (int i = 0; i < max_ticks && (v.rebuild_active() || v.scrub_active()); ++i) {
      Add(v.Tick(t_));
    }
  }

  /// Every member zone's readable prefix, slot by slot.
  void AddMemberPrefixes(StorageDevice& d, std::uint32_t zones) {
    const DeviceInfo di = d.info();
    for (std::uint64_t z = 0; z < zones; ++z) {
      std::uint64_t n = 0;
      for (std::uint64_t off = 0; off < di.zone_size_bytes; off += di.io_alignment) {
        auto r = d.Read(IoRequest{z * di.zone_size_bytes + off, di.io_alignment, t_, {},
                                  /*want_tokens=*/true});
        if (!r.ok()) break;
        dg_.Add(r.value().tokens[0]);
        ++n;
      }
      dg_.Add(n);
    }
  }

  void AddRedundancy(const RedundantVolume& v) {
    const RedundancyStats& r = v.Redundancy();
    for (std::uint64_t x :
         {r.degraded_reads, r.degraded_writes, r.reconstructed_units, r.member_failures,
          r.members_readmitted, r.scrub_rows, r.scrub_mismatches, r.scrub_repaired_slots,
          r.scrubs_completed, r.rebuild_slots_copied, r.rebuild_zone_restarts,
          r.rebuilds_completed}) {
      dg_.Add(x);
    }
    for (const ScrubMismatch& m : v.scrub_log()) {
      dg_.Add(m.logical.value());
      dg_.Add(m.row);
      dg_.Add(m.member);
    }
    for (std::uint32_t i = 0; i < v.num_members(); ++i) {
      dg_.Add(static_cast<std::uint64_t>(v.member_state(i)));
    }
    AddInfo(dg_, v.info());
    AddMemberSums(dg_, v);
  }

  Digest& digest() { return dg_; }
  SimTime now() const { return t_; }
  void set_now(SimTime t) { t_ = t; }

 private:
  StorageDevice& vol_;
  Digest dg_;
  SimTime t_;
};

TEST(HostPathPinTest, TwoWayConZoneMirrorBitForBit) {
  const ConZoneConfig cfg = MirrorMemberConfig();
  std::vector<ConZoneDevice*> raw;
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 13));
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    raw.push_back(dev.value().get());
    devs.push_back(std::move(dev).value());
  }
  RedundantVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  opt.rows_per_tick = 4;
  auto volr = RedundantVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  RedundantVolume& v = **volr;
  VolumeOps d(v);
  const std::uint64_t stripe = v.stripe_bytes();
  const std::uint64_t zb = v.info().zone_size_bytes;
  const std::uint32_t zones = v.info().num_zones;

  // Durable ground, a torn tail, then a cut of replica 1: it regresses
  // to a durable prefix, is failed, serves no reads, and a scrub pass
  // re-completes it at its write pointer and readmits it.
  d.Write(0, 12 * stripe, 1);
  d.Add(v.Flush(d.now()));
  d.Write(12 * stripe, 5 * stripe, 1);
  ASSERT_TRUE(raw[1]->PowerCut(d.now()).ok());
  d.Add(raw[1]->Recover(d.now()));
  d.Add(v.MarkFailed(1));
  for (std::uint64_t k = 0; k < 6; ++k) d.Read(k * stripe, 3 * stripe);
  d.Add(v.StartScrub(d.now()));
  d.TickUntilIdle(v, 10000);
  EXPECT_EQ(v.member_state(1), MemberState::kActive);
  EXPECT_GT(v.Redundancy().scrub_repaired_slots, 0u);

  // A live rebuild under foreground traffic: a reset of the zone under
  // copy restarts it, and a cut of the fresh member mid-copy is
  // recovered and resynchronized.
  d.Write(zb, zb, 2);
  d.Write(2 * zb, zb / 2, 2);
  d.Add(v.MarkFailed(1));
  auto freshr = ConZoneDevice::Create(cfg.ForShard(9, 13));
  ASSERT_TRUE(freshr.ok());
  ConZoneDevice* fresh = freshr.value().get();
  d.Add(v.ReplaceMember(1, std::move(freshr).value(), d.now()));
  for (int i = 0; i < 3; ++i) d.Add(v.Tick(d.now()));
  d.Write(2 * zb + zb / 2, 4 * stripe, 3);
  d.Add(v.ResetZone(ZoneId{v.rebuild_zones_done()}, d.now()));
  for (int i = 0; i < 10; ++i) d.Add(v.Tick(d.now()));
  ASSERT_TRUE(v.rebuild_active());
  ASSERT_GT(v.rebuild_zones_done(), 0u);
  // Lands on the fresh member behind the cursor, unflushed, so the cut
  // tears rebuilt ground and the verify sweep re-copies it.
  d.Write(0, 6 * stripe, 4);
  ASSERT_TRUE(fresh->PowerCut(d.now()).ok());
  d.Add(v.Tick(d.now()));
  d.Add(fresh->Recover(d.now()));
  d.TickUntilIdle(v, 100000);
  EXPECT_FALSE(v.rebuild_active());
  EXPECT_EQ(v.Redundancy().rebuilds_completed, 1u);
  EXPECT_GT(v.Redundancy().rebuild_zone_restarts, 0u);
  for (std::uint64_t k = 0; k < 6; ++k) d.Read(2 * zb + k * stripe, 2 * stripe);

  d.AddRedundancy(v);
  for (std::uint32_t m = 0; m < 2; ++m) d.AddMemberPrefixes(v.member(m), zones);
  EXPECT_EQ(d.digest().value(), 0x0E932274495373B5ull) << std::hex << d.digest().value();
}

TEST(HostPathPinTest, ThreeWayFemuMirrorBitForBit) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 3; ++i) devs.push_back(MakeFemu(i + 1));
  RedundantVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = RedundantVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  RedundantVolume& v = **volr;
  VolumeOps d(v);
  const std::uint64_t stripe = v.stripe_bytes();
  const std::uint64_t zb = v.info().zone_size_bytes;
  const std::uint32_t zones = v.info().num_zones;

  d.Write(0, 8 * stripe, 1);
  d.Write(zb, 6 * stripe, 1);
  d.Add(v.MarkFailed(1));
  d.Add(v.MarkFailed(2));
  for (std::uint64_t k = 0; k < 5; ++k) d.Read(k * stripe, 4 * stripe);

  // Member 0 alone rebuilds member 1 while writes land and zone 1 is
  // reset; member 2 missed those writes and the reset.
  d.Add(v.ReplaceMember(1, MakeFemu(99), d.now()));
  for (int i = 0; i < 2; ++i) d.Add(v.Tick(d.now()));
  d.Write(8 * stripe, 2 * stripe, 2);
  d.Add(v.ResetZone(ZoneId{1}, d.now()));
  d.Write(zb, 3 * stripe, 2);
  d.TickUntilIdle(v, 100000);
  EXPECT_EQ(v.member_state(1), MemberState::kActive);

  d.Add(v.StartScrub(d.now()));
  d.TickUntilIdle(v, 10000);
  for (std::uint64_t k = 0; k < 5; ++k) d.Read(k * stripe, 4 * stripe);

  d.AddRedundancy(v);
  for (std::uint32_t m = 0; m < 3; ++m) d.AddMemberPrefixes(v.member(m), zones);
  EXPECT_EQ(d.digest().value(), 0x3CCE2098FF691803ull) << std::hex << d.digest().value();
}

TEST(HostPathPinTest, StripedVolumeFoldsMemberLimitsBitForBit) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  devs.push_back(MakeFemu(1, /*open=*/6, /*active=*/12));
  devs.push_back(MakeFemu(2, /*open=*/4, /*active=*/14));
  devs.push_back(MakeFemu(3, /*open=*/8, /*active=*/9));
  StripedVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = StripedVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  StripedVolume& v = **volr;
  EXPECT_EQ(v.info().max_open_zones, 4u);
  EXPECT_EQ(v.info().max_active_zones, 9u);

  VolumeOps d(v);
  const std::uint64_t stripe = v.stripe_bytes();
  const std::uint64_t zb = v.info().zone_size_bytes;
  d.Write(0, 7 * stripe, 1);
  d.Write(zb, 12 * stripe, 1);
  d.Read(stripe, 5 * stripe);
  d.Read(zb + 2 * stripe, 9 * stripe);
  d.Add(v.Flush(d.now()));
  d.Add(v.ResetZone(ZoneId{0}, d.now()));

  Digest& dg = d.digest();
  AddInfo(dg, v.info());
  AddMemberSums(dg, v);
  EXPECT_EQ(dg.value(), 0x072898A611EECA0Bull) << std::hex << dg.value();
}

}  // namespace
}  // namespace conzone
