// StripedVolume tests: the host-layer composition contract.
//
//   * Geometry validation: mixed zonedness and bad stripe units are
//     rejected at Create() — never discovered mid-I/O.
//   * Typed zone routing: ToMemberZone/ToLogicalZone are inverse
//     bijections; logical zone L is zone L on every member.
//   * Data path: integrity tokens survive the split/gather/scatter round
//     trip in logical page order, across stripe-unit fragments.
//   * Every leg is issued: a multi-run write whose legs fail on two
//     members still writes the other members' legs and reports the
//     lowest-run-index error.
//   * Determinism: same seed => bit-identical runs; a 1-member volume is
//     bit-identical (completions AND stats) to the bare device.
//   * Overlap: a full-stripe write on N members completes earlier in
//     simulated time than the same bytes on one member — the member
//     timelines genuinely advance independently.
//   * Conventional gating: a volume of conventional members reports
//     zone_size_bytes == 0 and refuses ResetZone itself (DeviceInfo is
//     the gate, not a member's error code), while FioRunner's
//     reset-on-wrap path skips resets for the same reason.
//   * Crash interop: power-cutting exactly one member mid-stripe leaves
//     the durable prefix readable through the volume, survivors
//     untouched, and the torn logical zone reconcilable with one reset.
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
  auto dev = FemuModelDevice::Create(cfg);
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  return std::move(dev).value();
}

std::unique_ptr<StorageDevice> MakeLegacy(std::uint64_t seed) {
  LegacyConfig cfg;
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  (void)seed;  // Legacy runs fault-free here; members only differ by role.
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

std::unique_ptr<StorageDevice> MakeConZone(const ConZoneConfig& cfg) {
  auto dev = ConZoneDevice::Create(cfg);
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  return std::move(dev).value();
}

Result<std::unique_ptr<StripedVolume>> MakeFemuVolume(std::uint32_t members,
                                                      std::uint64_t stripe = 64 * kKiB) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < members; ++i) devs.push_back(MakeFemu(i + 1));
  StripedVolumeOptions opt;
  opt.stripe_bytes = stripe;
  return StripedVolume::Create(std::move(devs), opt);
}

// ---------------------------------------------------------------------------
// Create() validation
// ---------------------------------------------------------------------------

TEST(StripedVolumeCreateTest, RejectsBadGeometry) {
  // Mixed zonedness: decided from DeviceInfo at Create, not at first IO.
  {
    std::vector<std::unique_ptr<StorageDevice>> devs;
    devs.push_back(MakeFemu(1));
    devs.push_back(MakeLegacy(2));
    auto r = StripedVolume::Create(std::move(devs), {});
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Stripe unit must divide the member zone size.
  {
    auto r = MakeFemuVolume(2, /*stripe=*/40 * kKiB);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Stripe unit must respect the I/O alignment.
  {
    auto r = MakeFemuVolume(2, /*stripe=*/6 * kKiB);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::vector<std::unique_ptr<StorageDevice>> devs;
    auto r = StripedVolume::Create(std::move(devs), {});
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Typed zone identity
// ---------------------------------------------------------------------------

TEST(StripedVolumeTest, TypedZoneIdsRoundTripAcrossStripeSets) {
  auto vol = MakeFemuVolume(3);
  ASSERT_TRUE(vol.ok()) << vol.status().ToString();
  StripedVolume& v = **vol;
  const DeviceInfo di = v.info();
  const DeviceInfo mi = v.member(0).info();
  EXPECT_EQ(di.num_zones, mi.num_zones);
  EXPECT_EQ(di.zone_size_bytes, 3 * mi.zone_size_bytes);

  for (std::uint64_t l = 0; l < di.num_zones; ++l) {
    for (std::uint32_t lane = 0; lane < v.num_members(); ++lane) {
      // Lane `lane` of logical zone l is zone l on member `lane`...
      const MemberZone mz = v.ToMemberZone(ZoneId{l}, lane);
      EXPECT_EQ(mz, (MemberZone{lane, ZoneId{l}}));
      // ...and that member zone maps back to the same logical zone.
      EXPECT_EQ(v.ToLogicalZone(mz), ZoneId{l});
    }
  }
}

// ---------------------------------------------------------------------------
// Data path: token gather/scatter
// ---------------------------------------------------------------------------

TEST(StripedVolumeTest, TokensRoundTripInLogicalPageOrder) {
  auto vol = MakeFemuVolume(3, /*stripe=*/16 * kKiB);
  ASSERT_TRUE(vol.ok()) << vol.status().ToString();
  StripedVolume& v = **vol;

  // Sequential writes of deliberately awkward lengths: fragments start
  // and end mid-stripe-unit, so every write exercises gather.
  SimTime t;
  std::uint64_t off = 0;
  for (const std::uint64_t len :
       {36 * kKiB, 4 * kKiB, 92 * kKiB, 8 * kKiB, 116 * kKiB}) {
    auto r = v.Write(IoRequest{off, len, t, Tokens(off / 4096, len / 4096)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value().done;
    off += len;
  }

  // One read over the whole span and several unaligned sub-reads: the
  // scatter must reassemble logical page order across members.
  for (const auto& [ro, rl] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {0, off}, {12 * kKiB, 72 * kKiB}, {100 * kKiB, 24 * kKiB}}) {
    auto r = v.Read(IoRequest{ro, rl, t, {}, /*want_tokens=*/true});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t = r.value().done;
    EXPECT_EQ(r.value().tokens, Tokens(ro / 4096, rl / 4096)) << "off=" << ro;
  }

  // The volume's merged snapshot is the sum of its members'.
  StatsSnapshot sum;
  for (std::uint32_t i = 0; i < v.num_members(); ++i) sum.Merge(v.member(i).Stats());
  EXPECT_EQ(v.Stats(), sum);
  EXPECT_EQ(v.Stats().host_bytes_written, off);
}

// ---------------------------------------------------------------------------
// ResetZone fan-out
// ---------------------------------------------------------------------------

TEST(StripedVolumeTest, ResetFansOutToOwningSetOnly) {
  auto vol = MakeFemuVolume(4, /*stripe=*/16 * kKiB);
  ASSERT_TRUE(vol.ok()) << vol.status().ToString();
  StripedVolume& v = **vol;
  const std::uint64_t zb = v.info().zone_size_bytes;

  // Zone 0 is member zone 0 on every member, zone 1 is member zone 1:
  // a reset of zone 0 must reset only member zone 0.
  SimTime t;
  auto w0 = v.Write(IoRequest{0, 64 * kKiB, t, Tokens(0, 16)});
  ASSERT_TRUE(w0.ok());
  auto w1 = v.Write(IoRequest{zb, 64 * kKiB, w0.value().done, Tokens(1000, 16)});
  ASSERT_TRUE(w1.ok());
  t = w1.value().done;

  auto reset = v.ResetZone(ZoneId{0}, t);
  ASSERT_TRUE(reset.ok()) << reset.status().ToString();
  t = reset.value();

  // Zone 0's content is gone (read past the reset write pointer fails)...
  EXPECT_FALSE(v.Read(IoRequest{0, 4 * kKiB, t}).ok());
  // ...zone 1, in the next member zone, is untouched.
  auto r1 = v.Read(IoRequest{zb, 64 * kKiB, t, {}, /*want_tokens=*/true});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().tokens, Tokens(1000, 16));
  // And zone 0 accepts a fresh sequential write from its start.
  auto w2 = v.Write(IoRequest{0, 32 * kKiB, r1.value().done, Tokens(50, 8)});
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
}

// A failing leg does not shield later legs: a real host already has every
// stripe leg in flight. Runs 0..3 of a 4-unit write land on members
// 0..3; members 1 and 3 refuse theirs for different reasons.
TEST(StripedVolumeTest, FailedLegDoesNotShieldOtherLegs) {
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault.power_loss = true;  // lets member 3 lose power
  std::vector<ConZoneDevice*> raw;
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 42));
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    raw.push_back(dev.value().get());
    devs.push_back(std::move(dev).value());
  }
  StripedVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = StripedVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  StripedVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();
  const std::uint64_t pages = stripe / 4096;

  // Member 1's write pointer moves behind the volume's back (its leg
  // becomes a non-sequential write), and member 3 loses power.
  SimTime t;
  auto stray = v.member(1).Write(IoRequest{0, 4096, t, Tokens(900, 1)});
  ASSERT_TRUE(stray.ok()) << stray.status().ToString();
  t = stray.value().done;
  ASSERT_TRUE(raw[3]->PowerCut(t).ok());

  auto w = v.Write(IoRequest{0, 4 * stripe, t, Tokens(0, 4 * pages)});
  ASSERT_FALSE(w.ok());
  // Run 1's error (write-pointer violation), not run 3's (powered off).
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument)
      << w.status().ToString();

  // Members 0 and 2 still took their legs, before and after the first
  // failed one: their units are on the media.
  for (const std::uint32_t m : {0u, 2u}) {
    auto f = v.member(m).Flush(t);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    auto r = v.member(m).Read(IoRequest{0, stripe, f.value(), {}, /*want_tokens=*/true});
    ASSERT_TRUE(r.ok()) << "member " << m << ": " << r.status().ToString();
    EXPECT_EQ(r.value().tokens, Tokens(m * pages, pages)) << "member " << m;
  }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

RunResult RunVolumeWorkload(StorageDevice& dev) {
  const DeviceInfo di = dev.info();
  FioRunner fio(dev);

  JobSpec wr;
  wr.name = "seqwrite";
  wr.pattern = IoPattern::kSequential;
  wr.direction = IoDirection::kWrite;
  wr.block_size = 64 * kKiB;
  wr.region_offset = 0;
  wr.region_size = di.zone_size_bytes;  // one logical zone
  wr.io_count = 600;
  wr.reset_zones_on_wrap = true;
  wr.seed = 11;

  JobSpec rd;
  rd.name = "randread";
  rd.pattern = IoPattern::kRandom;
  rd.direction = IoDirection::kRead;
  rd.block_size = 4 * kKiB;
  rd.region_offset = di.zone_size_bytes;  // preconditioned second zone
  rd.region_size = di.zone_size_bytes / 2;
  rd.io_count = 600;
  rd.iodepth = 4;
  rd.seed = 7;

  SimTime start;
  Status st = FioRunner::Precondition(dev, rd.region_offset, rd.region_size,
                                      256 * kKiB, &start);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto run = fio.Run({wr, rd}, start);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

std::string Fingerprint(const RunResult& r) {
  std::string fp;
  for (const JobResult& j : r.jobs) {
    fp += j.name + ":" + std::to_string(j.throughput.bytes) + "," +
          std::to_string(j.throughput.ops) + "," +
          std::to_string(j.last_completion.ns()) + "," + j.latency.Summary() + ";";
  }
  fp += "events=" + std::to_string(r.events) +
        " end=" + std::to_string(r.end_time.ns());
  return fp;
}

std::unique_ptr<StripedVolume> MakeConZoneVolume(std::uint32_t members) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  const ConZoneConfig cfg = SmallConZoneCfg();
  for (std::uint32_t i = 0; i < members; ++i) {
    devs.push_back(MakeConZone(cfg.ForShard(i, /*master_seed=*/42)));
  }
  auto vol = StripedVolume::Create(std::move(devs), {});
  EXPECT_TRUE(vol.ok()) << vol.status().ToString();
  return std::move(vol).value();
}

TEST(StripedVolumeTest, SameSeedIsBitIdentical) {
  for (const std::uint32_t members : {2u, 4u}) {
    auto a = MakeConZoneVolume(members);
    auto b = MakeConZoneVolume(members);
    const RunResult ra = RunVolumeWorkload(*a);
    const RunResult rb = RunVolumeWorkload(*b);
    EXPECT_EQ(Fingerprint(ra), Fingerprint(rb)) << "members=" << members;
    EXPECT_EQ(a->Stats(), b->Stats()) << "members=" << members;
  }
}

TEST(StripedVolumeTest, OneMemberVolumeMatchesBareDeviceBitForBit) {
  const ConZoneConfig cfg = SmallConZoneCfg();
  auto bare = MakeConZone(cfg.ForShard(0, 42));
  auto vol = MakeConZoneVolume(1);

  const RunResult direct = RunVolumeWorkload(*bare);
  const RunResult striped = RunVolumeWorkload(*vol);
  EXPECT_EQ(Fingerprint(direct), Fingerprint(striped));
  EXPECT_EQ(bare->Stats(), vol->Stats());
  EXPECT_EQ(vol->info().zone_size_bytes, bare->info().zone_size_bytes);
  EXPECT_EQ(vol->info().capacity_bytes, bare->info().capacity_bytes);
}

// ---------------------------------------------------------------------------
// Member overlap
// ---------------------------------------------------------------------------

TEST(StripedVolumeTest, FullStripeWriteOverlapsMemberTimelines) {
  // The same 1 MiB, submitted at the same instant and flushed to media:
  // four members each program a quarter concurrently; one member
  // programs all of it serially. Flush completion exposes the media
  // timelines (write completion alone can be a buffer ack).
  auto vol4 = MakeConZoneVolume(4);
  auto vol1 = MakeConZoneVolume(1);

  SimTime t;
  auto wide = vol4->Write(IoRequest{0, kMiB, t});
  auto narrow = vol1->Write(IoRequest{0, kMiB, t});
  ASSERT_TRUE(wide.ok() && narrow.ok());
  EXPECT_LE(wide.value().done.ns(), narrow.value().done.ns());
  auto wide_flush = vol4->Flush(wide.value().done);
  auto narrow_flush = vol1->Flush(narrow.value().done);
  ASSERT_TRUE(wide_flush.ok() && narrow_flush.ok());
  EXPECT_LT(wide_flush.value().ns(), narrow_flush.value().ns());
}

// ---------------------------------------------------------------------------
// Conventional members: DeviceInfo gating
// ---------------------------------------------------------------------------

TEST(StripedVolumeTest, ConventionalVolumeGatesOnDeviceInfoNotErrorCodes) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  devs.push_back(MakeLegacy(1));
  devs.push_back(MakeLegacy(2));
  auto vol = StripedVolume::Create(std::move(devs), {});
  ASSERT_TRUE(vol.ok()) << vol.status().ToString();
  StripedVolume& v = **vol;

  const DeviceInfo di = v.info();
  EXPECT_EQ(di.zone_size_bytes, 0u);
  EXPECT_FALSE(di.zoned());
  EXPECT_GT(di.capacity_bytes, 0u);

  // In-place overwrites at arbitrary aligned offsets are legal (flushed
  // between generations, as on the bare Legacy device).
  SimTime t;
  auto w1 = v.Write(IoRequest{128 * kKiB, 64 * kKiB, t, Tokens(32, 16, 1)});
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  auto f1 = v.Flush(w1.value().done);
  ASSERT_TRUE(f1.ok());
  auto w2 = v.Write(IoRequest{128 * kKiB, 64 * kKiB, f1.value(), Tokens(32, 16, 2)});
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  auto f2 = v.Flush(w2.value().done);
  ASSERT_TRUE(f2.ok());
  auto r = v.Read(IoRequest{128 * kKiB, 64 * kKiB, f2.value(), {}, true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tokens, Tokens(32, 16, 2));

  // The volume refuses ResetZone from its own DeviceInfo, without
  // touching any member.
  const StatsSnapshot before = v.Stats();
  auto reset = v.ResetZone(ZoneId{0}, r.value().done);
  EXPECT_EQ(reset.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(v.Stats(), before);
}

TEST(StripedVolumeTest, FioWrapOnConventionalVolumeSkipsZoneResets) {
  std::vector<std::unique_ptr<StorageDevice>> devs;
  devs.push_back(MakeLegacy(1));
  devs.push_back(MakeLegacy(2));
  auto vol = StripedVolume::Create(std::move(devs), {});
  ASSERT_TRUE(vol.ok()) << vol.status().ToString();
  StripedVolume& v = **vol;

  // A sequential write job sized to wrap several times. On a zoned
  // device reset_zones_on_wrap would reset the region's zones; on a
  // conventional volume FioRunner must gate that on
  // DeviceInfo.zone_size_bytes == 0 and simply overwrite in place.
  JobSpec wr;
  wr.name = "wrap";
  wr.pattern = IoPattern::kSequential;
  wr.direction = IoDirection::kWrite;
  wr.block_size = 256 * kKiB;
  wr.region_offset = 0;
  wr.region_size = 2 * kMiB;
  wr.io_count = 40;  // five full passes over the region
  wr.reset_zones_on_wrap = true;
  wr.seed = 3;

  FioRunner fio(v);
  auto run = fio.Run({wr});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().total.ops, 40u);
  EXPECT_EQ(run.value().io_errors, 0u);
  EXPECT_EQ(v.Stats().zone_resets, 0u);
  EXPECT_GT(v.Stats().overwrites, 0u);
}

// ---------------------------------------------------------------------------
// Compat overloads
// ---------------------------------------------------------------------------

TEST(StripedVolumeTest, CompatOverloadsMatchIoRequestForm) {
  auto a = MakeFemuVolume(3);
  auto b = MakeFemuVolume(3);
  ASSERT_TRUE(a.ok() && b.ok());

  SimTime t;
  const auto toks = Tokens(0, 48);
  auto wa = TestWrite(**a, /*offset=*/0, /*len=*/192 * kKiB, t,
                        std::span<const std::uint64_t>(toks));
  auto wb = (*b)->Write(IoRequest{0, 192 * kKiB, t, toks});
  ASSERT_TRUE(wa.ok() && wb.ok());
  EXPECT_EQ(wa.value().ns(), wb.value().done.ns());

  std::vector<std::uint64_t> got;
  auto ra = TestRead(**a, 0, 192 * kKiB, wa.value(), &got);
  auto rb = (*b)->Read(IoRequest{0, 192 * kKiB, wb.value().done, {}, true});
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.value().ns(), rb.value().done.ns());
  EXPECT_EQ(got, rb.value().tokens);
  EXPECT_EQ(got, toks);
}

// ---------------------------------------------------------------------------
// Crash interop: one member power-cut mid-stripe
// ---------------------------------------------------------------------------

TEST(StripedVolumeTest, SingleMemberPowerCutLeavesVolumeRecoverable) {
  ConZoneConfig cfg = SmallConZoneCfg();
  cfg.fault.power_loss = true;  // journaling on, cuts legal

  std::vector<ConZoneDevice*> raw;
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto dev = ConZoneDevice::Create(cfg.ForShard(i, 42));
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    raw.push_back(dev.value().get());
    devs.push_back(std::move(dev).value());
  }
  StripedVolumeOptions opt;
  opt.stripe_bytes = 16 * kKiB;
  auto volr = StripedVolume::Create(std::move(devs), opt);
  ASSERT_TRUE(volr.ok()) << volr.status().ToString();
  StripedVolume& v = **volr;
  const std::uint64_t stripe = v.stripe_bytes();

  // Durable phase: 12 stripe units into logical zone 0, then Flush.
  SimTime t;
  const std::uint64_t durable_bytes = 12 * stripe;
  auto w = v.Write(IoRequest{0, durable_bytes, t, Tokens(0, durable_bytes / 4096)});
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto f = v.Flush(w.value().done);
  ASSERT_TRUE(f.ok());
  t = f.value();

  // Torn phase: 5 more units, never flushed. Units 12..16 land on
  // members 0,1,2,0,1 — the cut member (1) owns units 13 and 16.
  const std::uint64_t torn_bytes = 5 * stripe;
  auto wt = v.Write(IoRequest{durable_bytes, torn_bytes, t,
                              Tokens(durable_bytes / 4096, torn_bytes / 4096)});
  ASSERT_TRUE(wt.ok()) << wt.status().ToString();
  const SimTime cut = wt.value().done;

  // Power-cut member 1 only, then remount it.
  ASSERT_TRUE(raw[1]->PowerCut(cut).ok());
  auto rec = raw[1]->Recover(cut);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  SimTime now = rec.value();

  // 1) Acknowledged-durable data reads back exactly, through the volume.
  auto rd = v.Read(IoRequest{0, durable_bytes, now, {}, /*want_tokens=*/true});
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  EXPECT_EQ(rd.value().tokens, Tokens(0, durable_bytes / 4096));
  now = rd.value().done;

  // 2) Surviving members are unaffected: their torn-phase stripe units
  //    (12, 14, 15) still read back exactly.
  for (const std::uint64_t u : {12ull, 14ull, 15ull}) {
    auto r = v.Read(IoRequest{u * stripe, stripe, now, {}, true});
    ASSERT_TRUE(r.ok()) << "unit " << u << ": " << r.status().ToString();
    EXPECT_EQ(r.value().tokens, Tokens(u * stripe / 4096, stripe / 4096));
    now = r.value().done;
  }

  // 3) The cut member's torn units come back as a prefix: unit 16 may
  //    only be readable if unit 13 is (flash programs land in order).
  const bool u13 = v.Read(IoRequest{13 * stripe, stripe, now}).ok();
  const bool u16 = v.Read(IoRequest{16 * stripe, stripe, now}).ok();
  EXPECT_TRUE(u13 || !u16);

  // 4) Reconciling the torn logical zone: one volume-level reset brings
  //    every member's stripe back in step and the zone accepts fresh
  //    sequential writes.
  auto reset = v.ResetZone(ZoneId{0}, now);
  ASSERT_TRUE(reset.ok()) << reset.status().ToString();
  auto fresh = v.Write(IoRequest{0, 6 * stripe, reset.value(),
                                 Tokens(5000, 6 * stripe / 4096)});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto verify = v.Read(IoRequest{0, 6 * stripe, fresh.value().done, {}, true});
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(verify.value().tokens, Tokens(5000, 6 * stripe / 4096));
}

}  // namespace
}  // namespace conzone
