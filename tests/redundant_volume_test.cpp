// RedundantVolume tests: the robustness contract over member devices.
//
//   * Geometry validation: conventional members, mixed zonedness and bad
//     stripe units are rejected at Create().
//   * Data path: mirrors round-trip integrity tokens, with and without
//     host-supplied tokens, at sub-unit granularity.
//   * Degraded service: a failed member (MarkFailed, power cut, or a
//     failed write leg) does not fail foreground reads — they fail over
//     to another replica — and the per-IO and aggregate counters
//     attribute the work.
//   * Online scrub: a power-cut replica is re-completed from its peers
//     at the write pointer, and a failed member that ends a clean pass
//     is readmitted to service.
//   * Live rebuild: ReplaceMember converges the fresh member to the
//     byte-identical durable content of its sources while foreground
//     traffic keeps flowing — including across a power cut of the fresh
//     member mid-rebuild — and refuses to evict the last active member.
//   * Three-way mirror: with two members failed, the survivor serves
//     reads, rebuilds a replacement alone, and a scrub readmits the
//     member that missed no writes.
//   * Determinism: same-seed reruns produce bit-identical completions,
//     tokens and RedundancyStats.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "conzone/conzone.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

std::vector<std::uint64_t> Tokens(std::uint64_t first, std::uint64_t n,
                                  std::uint64_t salt = 0) {
  std::vector<std::uint64_t> t(n);
  for (std::uint64_t i = 0; i < n; ++i) t[i] = (first + i) * 7919 + salt + 1;
  return t;
}

std::unique_ptr<StorageDevice> MakeFemu(std::uint64_t seed) {
  FemuConfig cfg;
  cfg.seed = seed;
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  auto dev = FemuModelDevice::Create(cfg);
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  return std::move(dev).value();
}

std::unique_ptr<StorageDevice> MakeLegacy(std::uint64_t seed) {
  LegacyConfig cfg;
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  (void)seed;
  auto dev = LegacyDevice::Create(cfg);
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  return std::move(dev).value();
}

ConZoneConfig SmallConZoneCfg() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  return cfg;
}

Result<std::unique_ptr<RedundantVolume>> MakeFemuMirror(
    std::uint32_t members, std::uint64_t stripe = 64 * kKiB) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < members; ++i) devs.push_back(MakeFemu(i + 1));
  RedundantVolumeOptions opt;
  opt.stripe_bytes = stripe;
  return RedundantVolume::Create(std::move(devs), opt);
}

/// The durable readable prefix of one member zone, 4 KiB slot by slot
/// (test-side linear reference for the volume's binary-search probe).
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

// ---------------------------------------------------------------------------
// Create() validation
// ---------------------------------------------------------------------------

TEST(RedundantVolumeCreateTest, RejectsBadGeometry) {
  // Mixed zonedness.
  {
    std::vector<std::unique_ptr<StorageDevice>> devs;
    devs.push_back(MakeFemu(1));
    devs.push_back(MakeLegacy(2));
    auto r = RedundantVolume::Create(std::move(devs), {});
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Conventional members: scrub and rebuild rely on append-only zones.
  {
    std::vector<std::unique_ptr<StorageDevice>> devs;
    devs.push_back(MakeLegacy(1));
    devs.push_back(MakeLegacy(2));
    auto r = RedundantVolume::Create(std::move(devs), {});
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Stripe unit must divide the member zone size.
  {
    auto r = MakeFemuMirror(2, /*stripe=*/40 * kKiB);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // A single member is not a redundant volume.
  {
    std::vector<std::unique_ptr<StorageDevice>> devs;
    devs.push_back(MakeFemu(1));
    auto r = RedundantVolume::Create(std::move(devs), {});
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Data path round trips
// ---------------------------------------------------------------------------

TEST(RedundantVolumeTest, MirrorRoundTripAndReplicaAgreement) {
  auto volr = MakeFemuMirror(2);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  SimTime t;
  const auto toks = Tokens(0, 3 * stripe / 4096);
  auto w = v.Write(IoRequest{0, 3 * stripe, t, toks});
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  // Through the volume, at sub-unit granularity.
  auto r = v.Read(IoRequest{4096, stripe, w.value().done, {}, true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tokens, Tokens(1, stripe / 4096));
  EXPECT_EQ(r.value().reconstructed_units, 0u);

  // Both replicas hold identical content at identical member offsets.
  for (std::uint32_t m = 0; m < 2; ++m) {
    auto mr = v.member(m).Read(
        IoRequest{0, 3 * stripe, r.value().done, {}, true});
    ASSERT_TRUE(mr.ok()) << mr.status().ToString();
    EXPECT_EQ(mr.value().tokens, toks) << "member " << m;
  }

  // Token-less host writes materialize the volume token on every
  // replica, so replica comparison stays well-defined.
  auto w2 = v.Write(IoRequest{3 * stripe, stripe, r.value().done});
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  auto a = v.member(0).Read(IoRequest{3 * stripe, stripe, w2.value().done, {}, true});
  auto b = v.member(1).Read(IoRequest{3 * stripe, stripe, w2.value().done, {}, true});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().tokens, b.value().tokens);

  EXPECT_EQ(v.Redundancy().degraded_reads, 0u);
  EXPECT_EQ(v.Redundancy().degraded_writes, 0u);
}

// ---------------------------------------------------------------------------
// Degraded service
// ---------------------------------------------------------------------------

TEST(RedundantVolumeTest, MirrorDegradedReadAfterMemberFailure) {
  auto volr = MakeFemuMirror(2);
  ASSERT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  SimTime t;
  const auto toks = Tokens(0, 4 * stripe / 4096);
  auto w = v.Write(IoRequest{0, 4 * stripe, t, toks});
  ASSERT_TRUE(w.ok());

  ASSERT_TRUE(v.MarkFailed(0).ok());
  EXPECT_EQ(v.member_state(0), MemberState::kFailed);

  // Reads still succeed, attributed as degraded with per-IO unit counts.
  auto r = v.Read(IoRequest{0, 4 * stripe, w.value().done, {}, true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tokens, toks);
  auto one = v.Read(IoRequest{stripe, stripe, r.value().done, {}, true});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().tokens, Tokens(stripe / 4096, stripe / 4096));

  // Some of those reads had replica 0 as primary and failed over.
  EXPECT_GT(v.Redundancy().degraded_reads, 0u);
  EXPECT_GT(v.Redundancy().reconstructed_units, 0u);
  EXPECT_EQ(v.Redundancy().member_failures, 1u);

  // Writes keep landing on the survivor, counted degraded.
  auto w2 = v.Write(IoRequest{4 * stripe, stripe, one.value().done,
                              Tokens(4 * stripe / 4096, stripe / 4096)});
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  EXPECT_GT(v.Redundancy().degraded_writes, 0u);
  auto r2 = v.Read(IoRequest{4 * stripe, stripe, w2.value().done, {}, true});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().tokens, Tokens(4 * stripe / 4096, stripe / 4096));
}

TEST(RedundantVolumeTest, PowerCutMemberServedDegradedThenLatched) {
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault.power_loss = true;

  std::vector<ConZoneDevice*> raw;
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 42));
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    raw.push_back(dev.value().get());
    devs.push_back(std::move(dev).value());
  }
  RedundantVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = RedundantVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  SimTime t;
  auto w = v.Write(IoRequest{0, 8 * stripe, t, Tokens(0, 8 * stripe / 4096)});
  ASSERT_TRUE(w.ok());
  auto f = v.Flush(w.value().done);
  ASSERT_TRUE(f.ok());

  // Cut one replica. Reads fail over transparently; the first write
  // that hits the dead replica latches it failed.
  ASSERT_TRUE(raw[1]->PowerCut(f.value()).ok());
  auto r = v.Read(IoRequest{0, 8 * stripe, f.value(), {}, true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tokens, Tokens(0, 8 * stripe / 4096));
  EXPECT_EQ(v.member_state(1), MemberState::kActive);

  auto w2 = v.Write(IoRequest{8 * stripe, stripe, r.value().done,
                              Tokens(8 * stripe / 4096, stripe / 4096)});
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  EXPECT_EQ(v.member_state(1), MemberState::kFailed);
  EXPECT_EQ(v.Redundancy().member_failures, 1u);
}

// ---------------------------------------------------------------------------
// Online scrub
// ---------------------------------------------------------------------------

TEST(RedundantVolumeTest, ScrubRepairsCutReplicaAndReadmitsIt) {
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault.power_loss = true;

  std::vector<ConZoneDevice*> raw;
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 7));
    ASSERT_TRUE(dev.ok());
    raw.push_back(dev.value().get());
    devs.push_back(std::move(dev).value());
  }
  RedundantVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = RedundantVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  // Durable ground, then a torn tail, then cut + remount replica 1: its
  // content regresses to a durable prefix while replica 0 keeps all.
  SimTime t;
  auto w = v.Write(IoRequest{0, 12 * stripe, t, Tokens(0, 12 * stripe / 4096)});
  ASSERT_TRUE(w.ok());
  auto f = v.Flush(w.value().done);
  ASSERT_TRUE(f.ok());
  auto wt = v.Write(IoRequest{12 * stripe, 5 * stripe, f.value(),
                              Tokens(12 * stripe / 4096, 5 * stripe / 4096)});
  ASSERT_TRUE(wt.ok());
  ASSERT_TRUE(raw[1]->PowerCut(wt.value().done).ok());
  auto rec = raw[1]->Recover(wt.value().done);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  SimTime now = rec.value();

  ASSERT_TRUE(v.MarkFailed(1).ok());
  const auto before = MemberZonePrefix(v.member(1), 0, now);
  const auto full = MemberZonePrefix(v.member(0), 0, now);
  ASSERT_EQ(full.size(), 17 * stripe / 4096);

  // One full scrub pass re-completes the lagging replica at its write
  // pointer and readmits the failed member.
  ASSERT_TRUE(v.StartScrub(now).ok());
  for (int i = 0; i < 10000 && v.scrub_active(); ++i) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_FALSE(v.scrub_active());

  EXPECT_EQ(v.Redundancy().scrubs_completed, 1u);
  if (before.size() < full.size()) {
    EXPECT_GE(v.Redundancy().scrub_repaired_slots, full.size() - before.size());
  }
  EXPECT_EQ(v.Redundancy().scrub_mismatches, 0u);
  EXPECT_TRUE(v.scrub_log().empty());
  EXPECT_EQ(v.member_state(1), MemberState::kActive);
  EXPECT_EQ(v.Redundancy().members_readmitted, 1u);
  EXPECT_EQ(MemberZonePrefix(v.member(1), 0, now), full);
}

// Regression: a zone reset issued while a member was failed AND offline
// cannot reach it; once it is back online, a scrub must not "repair" the
// freshly-reset active replica by re-appending the stale member's old
// tokens (resurrecting deleted data and skewing the active replica's
// write pointer), and must not readmit the stale member.
TEST(RedundantVolumeTest, MirrorScrubDoesNotResurrectZoneResetContent) {
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault.power_loss = true;

  std::vector<ConZoneDevice*> raw;
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 21));
    ASSERT_TRUE(dev.ok());
    raw.push_back(dev.value().get());
    devs.push_back(std::move(dev).value());
  }
  RedundantVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = RedundantVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  SimTime t;
  auto w = v.Write(IoRequest{0, 8 * stripe, t, Tokens(0, 8 * stripe / 4096)});
  ASSERT_TRUE(w.ok());
  auto f = v.Flush(w.value().done);
  ASSERT_TRUE(f.ok());
  SimTime now = f.value();

  // Member 1 goes dark, then the host deletes the zone: the reset lands
  // on member 0 only; member 1 still holds the old content when it
  // returns (still latched failed).
  ASSERT_TRUE(raw[1]->PowerCut(now).ok());
  ASSERT_TRUE(v.MarkFailed(1).ok());
  auto rz = v.ResetZone(ZoneId{0}, now);
  ASSERT_TRUE(rz.ok()) << rz.status().ToString();
  auto rec = raw[1]->Recover(rz.value());
  ASSERT_TRUE(rec.ok());
  now = rec.value();
  ASSERT_FALSE(MemberZonePrefix(v.member(1), 0, now).empty());

  ASSERT_TRUE(v.StartScrub(now).ok());
  for (int i = 0; i < 10000 && v.scrub_active(); ++i) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_FALSE(v.scrub_active());

  // The stale member was flagged, not used as a repair source: the
  // active replica's zone stays empty, member 1 stays quarantined.
  EXPECT_TRUE(MemberZonePrefix(v.member(0), 0, now).empty());
  EXPECT_GE(v.Redundancy().scrub_mismatches, 1u);
  EXPECT_EQ(v.member_state(1), MemberState::kFailed);
  EXPECT_EQ(v.Redundancy().members_readmitted, 0u);

  // And host writes at the reset zone's start still land at offset 0.
  auto w2 = v.Write(IoRequest{0, stripe, now, Tokens(500, stripe / 4096)});
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  auto r2 = v.Read(IoRequest{0, stripe, w2.value().done, {}, true});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().tokens, Tokens(500, stripe / 4096));
}

// A zone reset propagates (best-effort) to a failed member that is
// still online, so readmission starts from an in-sync, empty zone: the
// next scrub pass finds nothing stale and readmits.
TEST(RedundantVolumeTest, ResetZonePropagatesToFailedOnlineMember) {
  auto volr = MakeFemuMirror(2, /*stripe=*/16 * kKiB);
  ASSERT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  SimTime t;
  auto w = v.Write(IoRequest{0, 4 * stripe, t, Tokens(0, 4 * stripe / 4096)});
  ASSERT_TRUE(w.ok());
  SimTime now = w.value().done;

  ASSERT_TRUE(v.MarkFailed(1).ok());
  auto rz = v.ResetZone(ZoneId{0}, now);
  ASSERT_TRUE(rz.ok()) << rz.status().ToString();
  now = rz.value();
  EXPECT_TRUE(MemberZonePrefix(v.member(1), 0, now).empty());

  ASSERT_TRUE(v.StartScrub(now).ok());
  for (int i = 0; i < 10000 && v.scrub_active(); ++i) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_FALSE(v.scrub_active());
  EXPECT_EQ(v.Redundancy().scrub_mismatches, 0u);
  EXPECT_EQ(v.member_state(1), MemberState::kActive);
  EXPECT_EQ(v.Redundancy().members_readmitted, 1u);
}

// ---------------------------------------------------------------------------
// Live rebuild
// ---------------------------------------------------------------------------

TEST(RedundantVolumeTest, RebuildConvergesUnderForegroundTraffic) {
  auto volr = MakeFemuMirror(2, /*stripe=*/16 * kKiB);
  ASSERT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();
  const std::uint64_t zb = v.info().zone_size_bytes;
  const std::uint64_t zslots = zb / 4096;

  // Ground across two zones, then lose member 1 and replace it.
  SimTime t;
  auto w0 = v.Write(IoRequest{0, zb, t, Tokens(0, zslots)});
  ASSERT_TRUE(w0.ok());
  auto w1 = v.Write(IoRequest{zb, 6 * stripe, w0.value().done,
                              Tokens(1000, 6 * stripe / 4096)});
  ASSERT_TRUE(w1.ok());
  SimTime now = w1.value().done;

  ASSERT_TRUE(v.MarkFailed(1).ok());
  ASSERT_TRUE(v.ReplaceMember(1, MakeFemu(99), now).ok());
  EXPECT_TRUE(v.rebuild_active());
  EXPECT_EQ(v.member_state(1), MemberState::kRebuilding);

  // Foreground writes keep flowing during the rebuild — some land while
  // their zone is ahead of the copy cursor, some behind.
  bool wrote_mid = false;
  int ticks = 0;
  for (; ticks < 100000 && v.rebuild_active(); ++ticks) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
    if (!wrote_mid && v.rebuild_zones_done() >= 1) {
      auto wm = v.Write(IoRequest{zb + 6 * stripe, 2 * stripe, now,
                                  Tokens(2000, 2 * stripe / 4096)});
      ASSERT_TRUE(wm.ok()) << wm.status().ToString();
      now = wm.value().done;
      wrote_mid = true;
    }
  }
  ASSERT_FALSE(v.rebuild_active()) << "rebuild did not finish in " << ticks;
  EXPECT_TRUE(wrote_mid);
  EXPECT_EQ(v.member_state(1), MemberState::kActive);
  EXPECT_EQ(v.Redundancy().rebuilds_completed, 1u);
  EXPECT_GT(v.Redundancy().rebuild_slots_copied, 0u);

  // The fresh member is byte-identical to the survivor on every zone.
  const std::uint32_t zones = v.member(0).info().num_zones;
  for (std::uint32_t z = 0; z < zones; ++z) {
    EXPECT_EQ(MemberZonePrefix(v.member(1), z, now),
              MemberZonePrefix(v.member(0), z, now))
        << "zone " << z;
  }

  // And the volume serves non-degraded reads again.
  const auto red_before = v.Redundancy();
  auto r = v.Read(IoRequest{zb, 8 * stripe, now, {}, true});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().reconstructed_units, 0u);
  EXPECT_EQ(v.Redundancy().degraded_reads, red_before.degraded_reads);
}

TEST(RedundantVolumeTest, RebuildSurvivesPowerCutOfFreshMember) {
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault.power_loss = true;

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

  // Let the copy get partway, then cut the fresh member mid-rebuild.
  for (int i = 0; i < 3 && v.rebuild_active(); ++i) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_TRUE(v.rebuild_active());
  ASSERT_TRUE(fresh->PowerCut(now).ok());

  // The dead member surfaces as an error, not silent progress.
  auto dead = v.Tick(now);
  ASSERT_FALSE(dead.ok());

  // Remount and keep ticking: the rebuild resynchronizes itself to the
  // fresh member's durable prefix (never a torn row) and completes.
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

// ReplaceMember must not evict the last active member: it holds the only
// good copy and is the rebuild's only source. The refused call changes
// nothing; replacing a failed member is still accepted.
TEST(RedundantVolumeTest, ReplaceMemberRefusesLastActiveReplica) {
  // 2-way: with member 1 failed, member 0 is the last active replica.
  {
    auto volr = MakeFemuMirror(2);
    ASSERT_TRUE(volr.ok());
    RedundantVolume& v = **volr;
    const std::uint64_t stripe = v.stripe_bytes();
    const auto toks = Tokens(0, stripe / 4096);
    SimTime t;
    auto w = v.Write(IoRequest{0, stripe, t, toks});
    ASSERT_TRUE(w.ok());
    SimTime now = w.value().done;
    ASSERT_TRUE(v.MarkFailed(1).ok());

    const Status refused = v.ReplaceMember(0, MakeFemu(7), now);
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused.ToString();
    EXPECT_EQ(v.member_state(0), MemberState::kActive);
    EXPECT_EQ(v.member_state(1), MemberState::kFailed);
    EXPECT_FALSE(v.rebuild_active());
    EXPECT_EQ(v.info().health, DeviceHealth::kHealthy);
    auto r = v.Read(IoRequest{0, stripe, now, {}, true});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tokens, toks);
    now = r.value().done;

    ASSERT_TRUE(v.ReplaceMember(1, MakeFemu(8), now).ok());
    for (int i = 0; i < 100000 && v.rebuild_active(); ++i) {
      auto tick = v.Tick(now);
      ASSERT_TRUE(tick.ok()) << tick.status().ToString();
      now = tick.value();
    }
    ASSERT_FALSE(v.rebuild_active());
    EXPECT_EQ(v.member_state(1), MemberState::kActive);
    EXPECT_EQ(MemberZonePrefix(v.member(1), 0, now), toks);
  }
  // 3-way: with members 1 and 2 failed, member 0 may not be replaced,
  // but a failed member may.
  {
    auto volr = MakeFemuMirror(3);
    ASSERT_TRUE(volr.ok());
    RedundantVolume& v = **volr;
    SimTime now;
    ASSERT_TRUE(v.MarkFailed(1).ok());
    ASSERT_TRUE(v.MarkFailed(2).ok());
    EXPECT_EQ(v.ReplaceMember(0, MakeFemu(7), now).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(v.member_state(0), MemberState::kActive);
    EXPECT_FALSE(v.rebuild_active());
    EXPECT_TRUE(v.ReplaceMember(1, MakeFemu(8), now).ok());
    EXPECT_EQ(v.rebuild_member(), 1);
  }
}

// ---------------------------------------------------------------------------
// Three-way mirror
// ---------------------------------------------------------------------------

// Every member holds every zone, so one survivor of three serves the
// whole volume, rebuilds a replacement alone, and a scrub readmits the
// failed member that missed no writes.
TEST(RedundantVolumeTest, ThreeWayMirrorRunsOnOneSurvivor) {
  auto volr = MakeFemuMirror(3, /*stripe=*/16 * kKiB);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();
  const DeviceInfo mi = v.member(0).info();
  EXPECT_EQ(v.info().zone_size_bytes, mi.zone_size_bytes);
  EXPECT_EQ(v.info().num_zones, mi.num_zones);

  SimTime t;
  const auto toks = Tokens(0, 8 * stripe / 4096);
  auto w = v.Write(IoRequest{0, 8 * stripe, t, toks});
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  SimTime now = w.value().done;
  ASSERT_TRUE(v.MarkFailed(1).ok());
  ASSERT_TRUE(v.MarkFailed(2).ok());
  EXPECT_EQ(v.info().health, DeviceHealth::kHealthy);

  // A read starting at stripe unit 1 has member 1 as primary: member 0
  // serves it, one reconstructed unit per stripe unit read.
  auto r = v.Read(IoRequest{stripe, 4 * stripe, now, {}, true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tokens, Tokens(stripe / 4096, 4 * stripe / 4096));
  EXPECT_EQ(r.value().reconstructed_units, 4u);
  now = r.value().done;

  // Member 0 alone is the rebuild source for member 1.
  ASSERT_TRUE(v.ReplaceMember(1, MakeFemu(99), now).ok());
  int ticks = 0;
  for (; ticks < 100000 && v.rebuild_active(); ++ticks) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_FALSE(v.rebuild_active()) << "rebuild did not finish in " << ticks;
  EXPECT_EQ(v.member_state(1), MemberState::kActive);
  for (std::uint32_t z = 0; z < mi.num_zones; ++z) {
    EXPECT_EQ(MemberZonePrefix(v.member(1), z, now),
              MemberZonePrefix(v.member(0), z, now))
        << "zone " << z;
  }

  // Member 2 missed no writes: a clean scrub pass readmits it.
  ASSERT_TRUE(v.StartScrub(now).ok());
  for (int i = 0; i < 10000 && v.scrub_active(); ++i) {
    auto tick = v.Tick(now);
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  ASSERT_FALSE(v.scrub_active());
  EXPECT_EQ(v.Redundancy().scrub_mismatches, 0u);
  EXPECT_EQ(v.member_state(2), MemberState::kActive);
  EXPECT_EQ(v.Redundancy().members_readmitted, 1u);

  // With every member active, a read at offset 0 hits its primary.
  auto r0 = v.Read(IoRequest{0, 4 * stripe, now, {}, true});
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_EQ(r0.value().tokens, Tokens(0, 4 * stripe / 4096));
  EXPECT_EQ(r0.value().reconstructed_units, 0u);
}

// ---------------------------------------------------------------------------
// Fault rates (ConsumerDefaults) through the redundancy layer
// ---------------------------------------------------------------------------

TEST(RedundantVolumeTest, ConsumerFaultRatesAreMaskedByRedundancy) {
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault = FaultConfig::ConsumerDefaults();

  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 1234));
    ASSERT_TRUE(dev.ok());
    devs.push_back(std::move(dev).value());
  }
  RedundantVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = RedundantVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  // Under consumer-grade fault rates every volume-level request still
  // succeeds with intact tokens: transient faults are absorbed by the
  // members, anything that escapes is reconstructed from the peer.
  SimTime now;
  for (std::uint64_t pass = 0; pass < 4; ++pass) {
    const std::uint64_t base = pass * 8 * stripe;
    auto w = v.Write(IoRequest{base, 8 * stripe, now,
                               Tokens(base / 4096, 8 * stripe / 4096)});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    now = w.value().done;
    auto r = v.Read(IoRequest{base, 8 * stripe, now, {}, true});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tokens, Tokens(base / 4096, 8 * stripe / 4096));
    now = r.value().done;
  }
  EXPECT_GT(v.Reliability().TotalFaults(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: same-seed reruns
// ---------------------------------------------------------------------------

struct RunTrace {
  std::vector<std::uint64_t> done_ns;
  std::vector<std::uint64_t> tokens;
  RedundancyStats red;
};

/// A mixed scenario exercising every multi-member path: mirror writes,
/// a degraded read, a scrub pass, and a full rebuild.
RunTrace RunScenario() {
  auto volr = MakeFemuMirror(3, /*stripe=*/16 * kKiB);
  EXPECT_TRUE(volr.ok());
  RedundantVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();
  const std::uint64_t zb = v.info().zone_size_bytes;

  RunTrace tr;
  SimTime now;
  for (std::uint64_t z = 0; z < 2; ++z) {
    auto w = v.Write(IoRequest{z * zb, 8 * stripe, now,
                               Tokens(z * 1000, 8 * stripe / 4096)});
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    now = w.value().done;
    tr.done_ns.push_back(now.ns());
  }

  EXPECT_TRUE(v.MarkFailed(0).ok());
  auto r = v.Read(IoRequest{0, 8 * stripe, now, {}, true});
  EXPECT_TRUE(r.ok());
  now = r.value().done;
  tr.done_ns.push_back(now.ns());
  tr.tokens.insert(tr.tokens.end(), r.value().tokens.begin(),
                   r.value().tokens.end());

  EXPECT_TRUE(v.ReplaceMember(0, MakeFemu(123), now).ok());
  for (int i = 0; i < 100000 && v.rebuild_active(); ++i) {
    auto tick = v.Tick(now);
    EXPECT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  tr.done_ns.push_back(now.ns());

  EXPECT_TRUE(v.StartScrub(now).ok());
  for (int i = 0; i < 100000 && v.scrub_active(); ++i) {
    auto tick = v.Tick(now);
    EXPECT_TRUE(tick.ok()) << tick.status().ToString();
    now = tick.value();
  }
  tr.done_ns.push_back(now.ns());

  auto rf = v.Read(IoRequest{zb, 8 * stripe, now, {}, true});
  EXPECT_TRUE(rf.ok());
  tr.done_ns.push_back(rf.value().done.ns());
  tr.tokens.insert(tr.tokens.end(), rf.value().tokens.begin(),
                   rf.value().tokens.end());
  tr.red = v.Redundancy();
  return tr;
}

TEST(RedundantVolumeDeterminismTest, SameSeedRerunsAreBitIdentical) {
  const RunTrace a = RunScenario();
  const RunTrace b = RunScenario();
  EXPECT_EQ(a.done_ns, b.done_ns);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_TRUE(a.red == b.red);
}

// ---------------------------------------------------------------------------
// Opt-in soak (CI crash matrix / CONZONE_REBUILD_SOAK=1)
// ---------------------------------------------------------------------------

// Many rounds of rebuild-under-power-cuts: each round writes a random
// amount of ground (partly torn), starts a rebuild, cuts the fresh
// member or the source at a random tick, remounts, finishes the
// rebuild, and requires byte-identical convergence on every zone.
TEST(RebuildSoakTest, RebuildUnderRandomPowerCutsSoak) {
  if (std::getenv("CONZONE_REBUILD_SOAK") == nullptr) {
    GTEST_SKIP() << "set CONZONE_REBUILD_SOAK=1 to run the rebuild soak";
  }
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault.power_loss = true;

  Rng pick(0xB111Dull);
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ConZoneDevice*> raw;
    std::vector<std::unique_ptr<StorageDevice>> devs;
    for (std::uint32_t i = 0; i < 2; ++i) {
      auto dev = ConZoneDevice::Create(
          cfg.ForShard(i, 1000 + static_cast<std::uint64_t>(round)));
      ASSERT_TRUE(dev.ok());
      raw.push_back(dev.value().get());
      devs.push_back(std::move(dev).value());
    }
    RedundantVolumeOptions opt;
    opt.stripe_bytes = 16 * kKiB;
    opt.rows_per_tick = 1 + static_cast<std::uint32_t>(pick.NextBelow(8));
    auto volr = RedundantVolume::Create(std::move(devs), opt);
    ASSERT_TRUE(volr.ok());
    RedundantVolume& v = **volr;
    const std::uint64_t stripe = v.stripe_bytes();
    const std::uint64_t zb = v.info().zone_size_bytes;

    SimTime now;
    const std::uint64_t durable = (1 + pick.NextBelow(zb / stripe)) * stripe;
    auto w = v.Write(IoRequest{0, durable, now, Tokens(0, durable / 4096)});
    ASSERT_TRUE(w.ok()) << "round=" << round;
    auto f = v.Flush(w.value().done);
    ASSERT_TRUE(f.ok());
    now = f.value();
    const std::uint64_t torn = pick.NextBelow(4) * stripe;
    if (torn != 0 && durable + torn <= zb) {
      auto wt = v.Write(IoRequest{durable, torn, now, Tokens(durable / 4096, torn / 4096)});
      ASSERT_TRUE(wt.ok()) << "round=" << round;
      now = wt.value().done;
    }

    auto freshr =
        ConZoneDevice::Create(cfg.ForShard(9, 1000 + static_cast<std::uint64_t>(round)));
    ASSERT_TRUE(freshr.ok());
    ConZoneDevice* fresh = freshr.value().get();
    ASSERT_TRUE(v.MarkFailed(1).ok());
    ASSERT_TRUE(v.ReplaceMember(1, std::move(freshr).value(), now).ok());

    // Cut the fresh member or the source at a random point in the copy.
    ConZoneDevice* victim = pick.NextBelow(2) == 0 ? fresh : raw[0];
    const std::uint64_t cut_after = pick.NextBelow(6);
    for (std::uint64_t i = 0; i < cut_after && v.rebuild_active(); ++i) {
      auto tick = v.Tick(now);
      ASSERT_TRUE(tick.ok()) << "round=" << round;
      now = tick.value();
    }
    if (v.rebuild_active()) {
      ASSERT_TRUE(victim->PowerCut(now).ok());
      auto dead = v.Tick(now);
      EXPECT_FALSE(dead.ok()) << "round=" << round;
      auto rec = victim->Recover(now);
      ASSERT_TRUE(rec.ok()) << "round=" << round;
      now = rec.value();
    }
    int ticks = 0;
    for (; ticks < 100000 && v.rebuild_active(); ++ticks) {
      auto tick = v.Tick(now);
      ASSERT_TRUE(tick.ok())
          << "round=" << round << ": " << tick.status().ToString();
      now = tick.value();
    }
    ASSERT_FALSE(v.rebuild_active()) << "round=" << round;

    const std::uint32_t zones = v.member(0).info().num_zones;
    for (std::uint32_t z = 0; z < zones; ++z) {
      ASSERT_EQ(MemberZonePrefix(v.member(1), z, now),
                MemberZonePrefix(v.member(0), z, now))
          << "round=" << round << " zone=" << z;
    }
  }
}

}  // namespace
}  // namespace conzone
