// Bit-for-bit pins of ConZone's bulk device paths: aggregated read runs,
// fold remaps and zone resets.
//
// An aggregated L2P hit serves the rest of its chunk or zone from the
// reserved layout; a fold remaps a staged program unit onto the zone's
// reserved blocks; a zone reset walks the zone's mapping, invalidates
// its SLC slots and erases its blocks. The tests hash every completion
// time (or error code), read-back token and counter of seeded runs into
// one FNV-1a digest and compare it with a recorded value. Read-retry
// draws in both cell classes, a stale and a mislabelled slot inside
// aggregated runs, and power cuts across zone resets followed by Recover
// all feed it; the counter assertions prove each of those paths ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/device.hpp"

#include "test_digest.hpp"
#include "test_io.hpp"

namespace conzone {
namespace {

constexpr std::uint64_t kSlot = 4096;

/// Token of `lpn` written in generation `gen` of its zone.
std::uint64_t TokenOf(std::uint64_t lpn, std::uint64_t gen) {
  return (lpn * 0x9E3779B97F4A7C15ull) ^ (gen << 40) ^ 0x5A5Au;
}

void AddCounters(const ConZoneDevice& dev, Digest& dg) {
  dg.Add(dev.media_counters());
  dg.Add(dev.translator().stats());
  dg.Add(dev.l2p_cache().stats());
  dg.Add(dev.Stats());
  dg.Add(dev.Reliability());
  dg.Add(dev.Recovery());
  const ConZoneStats s = dev.stats();
  for (std::uint64_t v :
       {s.reads, s.host_bytes_read, s.zone_resets, s.flushes, s.premature_flushes, s.folds,
        s.fold_slots_read, s.buffer_ram_reads, s.patch_runs, s.aggregates_chunk,
        s.aggregates_zone, s.aggregation_breaks}) {
    dg.Add(v);
  }
}

/// Every lpn's ppn and map bits, and every block's valid-slot count.
void AddMedia(const ConZoneDevice& dev, Digest& dg) {
  const std::uint64_t lpns = dev.info().capacity_bytes / kSlot;
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    const MapEntry e = dev.mapping().Get(Lpn{lpn});
    dg.Add(e.mapped() ? e.ppn.value() : ~0ull);
    dg.Add(static_cast<std::uint64_t>(e.gran));
  }
  for (std::uint64_t b = 0; b < dev.config().geometry.TotalBlocks(); ++b) {
    dg.Add(dev.array().ValidSlots(BlockId{b}));
  }
}

// --- aggregated reads ---

/// The paper's 16 MiB zones and 4 MiB chunks on 20 blocks per chip, with
/// read retries in both cell classes and no other fault.
ConZoneConfig ReadPinConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 20;
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.fault.seed = 7;
  cfg.fault.slc.read_retry = 0.2;
  cfg.fault.normal.read_retry = 0.2;
  return cfg;
}

class ReadPin {
 public:
  explicit ReadPin(ConZoneDevice& dev) : dev_(dev), zone_(dev.info().zone_size_bytes) {}

  void Write(std::uint32_t z, std::uint64_t len) {
    const std::uint64_t wp = dev_.zones().Info(ZoneId{z}).write_pointer;
    const std::uint64_t first = (z * zone_ + wp) / kSlot;
    std::vector<std::uint64_t> tokens(len / kSlot);
    for (std::uint64_t k = 0; k < tokens.size(); ++k) tokens[k] = TokenOf(first + k, 0);
    auto r = TestWrite(dev_, z * zone_ + wp, len, t_, tokens);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t_ = r.value();
  }

  void Flush() {
    auto r = dev_.Flush(t_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t_ = r.value();
  }

  /// Read [off, off + len) of the device; a successful read must return
  /// what was written.
  Result<SimTime> Read(std::uint64_t off, std::uint64_t len) {
    std::vector<std::uint64_t> got;
    auto r = TestRead(dev_, off, len, t_, &got);
    dg_.Add(r);
    if (!r.ok()) return r;
    t_ = r.value();
    EXPECT_EQ(got.size(), len / kSlot);
    for (std::uint64_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], TokenOf(off / kSlot + k, 0)) << "lpn " << off / kSlot + k;
      dg_.Add(got[k]);
    }
    return r;
  }

  std::uint64_t zone() const { return zone_; }
  Digest& digest() { return dg_; }

 private:
  ConZoneDevice& dev_;
  const std::uint64_t zone_;
  Digest dg_;
  SimTime t_;
};

TEST(BulkPathPinTest, AggregatedReadsBitForBit) {
  auto made = ConZoneDevice::Create(ReadPinConfig());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  ReadPin pin(dev);
  const std::uint64_t zone = pin.zone();

  // Zone 0 full in 512 KiB writes (zone-aggregated); zone 1 flushed at
  // 8 MiB + 64 KiB (two chunks aggregated); zones 2 and 3 in small
  // interleaved writes with flushes, so units are staged in SLC and
  // folded: zone 2 ends full and aggregated, zone 3 at 9 MiB + 36 KiB
  // with two chunks aggregated and an SLC-staged tail.
  for (std::uint64_t off = 0; off < zone; off += 512 * kKiB) {
    ASSERT_NO_FATAL_FAILURE(pin.Write(0, 512 * kKiB));
  }
  for (std::uint64_t off = 0; off < 8 * kMiB; off += 512 * kKiB) {
    ASSERT_NO_FATAL_FAILURE(pin.Write(1, 512 * kKiB));
  }
  ASSERT_NO_FATAL_FAILURE(pin.Write(1, 64 * kKiB));
  ASSERT_NO_FATAL_FAILURE(pin.Flush());
  Rng rng(23);
  static constexpr std::uint64_t kLens[] = {4 * kKiB,  12 * kKiB,  40 * kKiB,
                                            64 * kKiB, 100 * kKiB, 200 * kKiB};
  std::uint64_t left[2] = {zone, 9 * kMiB + 36 * kKiB};
  while (left[0] + left[1] > 0) {
    const std::uint32_t w = left[0] == 0 ? 1 : left[1] == 0 ? 0 : rng.NextBelow(2);
    const std::uint64_t len = std::min(kLens[rng.NextBelow(6)], left[w]);
    ASSERT_NO_FATAL_FAILURE(pin.Write(2 + w, len));
    left[w] -= len;
    if (rng.NextBelow(4) == 0) ASSERT_NO_FATAL_FAILURE(pin.Flush());
  }
  ASSERT_NO_FATAL_FAILURE(pin.Flush());
  const MappingTable& map = dev.mapping();
  ASSERT_EQ(map.Get(Lpn{0}).gran, MapGranularity::kZone);
  ASSERT_EQ(map.Get(Lpn{zone / kSlot + 1024}).gran, MapGranularity::kChunk);
  ASSERT_NE(map.Get(Lpn{2 * zone / kSlot + 3000}).gran, MapGranularity::kPage);
  ASSERT_EQ(map.Get(Lpn{3 * zone / kSlot + 2047}).gran, MapGranularity::kChunk);
  ASSERT_EQ(map.Get(Lpn{3 * zone / kSlot + 2304}).gran, MapGranularity::kPage);
  ASSERT_GT(dev.stats().folds, 0u);

  // Whole zones, chunk spans starting and ending mid-page, cold then warm.
  const std::uint64_t ends[] = {zone, 8 * kMiB + 64 * kKiB, zone, 9 * kMiB + 36 * kKiB};
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t z = 0; z < 4; ++z) EXPECT_TRUE(pin.Read(z * zone, ends[z]).ok());
    EXPECT_TRUE(pin.Read(zone + 2 * kMiB + 8 * kKiB, 5 * kMiB).ok());
    EXPECT_TRUE(pin.Read(2 * zone + 3 * kMiB + 4 * kKiB, 9 * kMiB + 12 * kKiB).ok());
    EXPECT_TRUE(pin.Read(3 * zone + 3 * kMiB + 84 * kKiB, 6 * kMiB - 48 * kKiB).ok());
    EXPECT_TRUE(pin.Read(zone - 300 * kKiB, 600 * kKiB).ok());
  }
  for (int i = 0; i < 400; ++i) {
    static constexpr std::uint64_t kReadLens[] = {4 * kKiB, 24 * kKiB, 100 * kKiB,
                                                  1 * kMiB, 3 * kMiB, 6 * kMiB};
    const std::uint64_t z = rng.NextBelow(4);
    const std::uint64_t off = rng.NextBelow(ends[z] / kSlot) * kSlot;
    const std::uint64_t len = std::min(kReadLens[rng.NextBelow(6)], ends[z] - off);
    EXPECT_TRUE(pin.Read(z * zone + off, len).ok());
  }

  // A stale slot in the middle of zone 2's aggregated run (second chunk,
  // page slot 1): the whole-zone read and a read starting at the slot
  // both stop there.
  const Lpn stale{2 * zone / kSlot + 1029};
  const Ppn stale_ppn = map.Get(stale).ppn;
  ASSERT_TRUE(MediaOf(dev).InvalidateSlot(stale_ppn).ok());
  const std::string stale_text = "INTERNAL: mapping points at stale slot (lpn " +
                                 std::to_string(stale.value()) + " ppn " +
                                 std::to_string(stale_ppn.value()) + ")";
  EXPECT_EQ(pin.Read(2 * zone, zone).status().ToString(), stale_text);
  EXPECT_EQ(pin.Read(stale.value() * kSlot, 64 * kKiB).status().ToString(), stale_text);
  EXPECT_TRUE(pin.Read(stale.value() * kSlot - 16 * kKiB, 16 * kKiB).ok());

  // Valid slots holding the wrong lpns: zone 1's second program unit is
  // the first unit of its chip-1 block; erase the block and program that
  // unit with every lpn shifted by one. The read draws the bad slot's
  // retry level before it fails.
  const FlashGeometry& geo = dev.config().geometry;
  const std::uint64_t unit_slots = geo.program_unit / kSlot;
  const ZoneLayout::UnitLoc loc = dev.layout().UnitAt(ZoneId{1}, 1);
  ASSERT_EQ(loc.first_page_in_block, 0u);
  FlashArray& media = MediaOf(dev);
  ASSERT_TRUE(media.EraseBlock(loc.block).ok());
  std::vector<SlotWrite> shifted(unit_slots);
  const std::uint64_t first = zone / kSlot + unit_slots;
  for (std::uint64_t k = 0; k < unit_slots; ++k) {
    shifted[k] = SlotWrite{Lpn{first + k + 1}, TokenOf(first + k, 0)};
  }
  ASSERT_TRUE(media.ProgramSlots(loc.block, shifted).ok());
  const std::string wrong_text = "INTERNAL: mapping points at stale slot (lpn " +
                                 std::to_string(first) + " ppn " +
                                 std::to_string(map.Get(Lpn{first}).ppn.value()) + ")";
  EXPECT_EQ(pin.Read(zone, 4 * kMiB).status().ToString(), wrong_text);
  EXPECT_EQ(pin.Read(zone + 8 * kKiB, 3 * kMiB).status().ToString(), wrong_text);
  EXPECT_TRUE(pin.Read(zone + 8 * kKiB, unit_slots * kSlot - 8 * kKiB).ok());

  EXPECT_GT(dev.Reliability().reads_with_retry, 0u);
  EXPECT_GT(dev.translator().stats().hits_by_gran[1], 0u);
  EXPECT_GT(dev.translator().stats().hits_by_gran[2], 0u);
  Digest& dg = pin.digest();
  AddCounters(dev, dg);
  AddMedia(dev, dg);
  EXPECT_EQ(dg.value(), 0x0445B94DFF35FFF8ull) << std::hex << dg.value();
}

// --- zone resets across power cuts ---

/// 4 MiB zones over 3.75 MiB superblocks (a 256 KiB SLC patch each),
/// 1 MiB chunks, 24 zones and 16 SLC superblocks, with the power-loss
/// journal, the L2P log, read retries in both cell classes and rare
/// one-shot program failures (their units re-drive into SLC, so full
/// zones hold page-mapped SLC slots besides the patch).
ConZoneConfig ResetPinConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.pages_per_block = 60;
  cfg.geometry.blocks_per_chip = 40;
  cfg.geometry.slc_blocks_per_chip = 16;
  cfg.zone_size_bytes = 4 * kMiB;
  cfg.lpns_per_chunk = 256;
  cfg.fault.seed = 31;
  cfg.fault.slc.read_retry = 0.1;
  cfg.fault.normal.read_retry = 0.1;
  cfg.fault.normal.program_fail = 4e-3;
  cfg.fault.power_loss = true;
  cfg.l2p_log.enabled = true;
  return cfg;
}

class ResetStream {
 public:
  ResetStream(ConZoneDevice& dev, std::uint64_t seed)
      : dev_(dev), rng_(seed), zone_(dev.info().zone_size_bytes), gen_(dev.info().num_zones) {}

  /// Four writers fill their zones in 4 KiB to 512 KiB writes with
  /// occasional flushes and whole-zone reads. A full zone is reset and
  /// its writer moves on; a partly written one is reset now and then.
  /// Half the resets are followed by a cut inside the reset's erase
  /// window and Recover, then a read-back of every zone.
  void Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::size_t w = rng_.NextBelow(writers_.size());
      const std::uint32_t z = writers_[w];
      const std::uint64_t pick = rng_.NextBelow(100);
      if (pick < 75) {
        static constexpr std::uint64_t kLens[] = {4 * kKiB,   8 * kKiB,   64 * kKiB,
                                                  128 * kKiB, 384 * kKiB, 512 * kKiB};
        const std::uint64_t wp = WritePointer(z);
        const std::uint64_t len = std::min(kLens[rng_.NextBelow(6)], zone_ - wp);
        const std::uint64_t first = (z * zone_ + wp) / kSlot;
        std::vector<std::uint64_t> tokens(len / kSlot);
        for (std::uint64_t k = 0; k < tokens.size(); ++k) tokens[k] = TokenOf(first + k, gen_[z]);
        Add(TestWrite(dev_, z * zone_ + wp, len, t_, tokens));
        if (WritePointer(z) == zone_) ASSERT_NO_FATAL_FAILURE(Reset(w));
      } else if (pick < 85) {
        Add(dev_.Flush(t_));
      } else if (pick < 95) {
        ReadZone(z);
      } else if (WritePointer(z) > 0) {
        ASSERT_NO_FATAL_FAILURE(Reset(w));
      }
    }
  }

  Digest& digest() { return dg_; }
  std::uint64_t failed_ops() const { return failed_; }
  std::uint64_t full_resets() const { return full_resets_; }

 private:
  std::uint64_t WritePointer(std::uint32_t z) const {
    return dev_.zones().Info(ZoneId{z}).write_pointer;
  }

  void Add(const Result<SimTime>& r) {
    dg_.Add(r);
    if (r.ok()) {
      t_ = r.value();
    } else {
      ++failed_;
    }
  }

  /// Read zone `z` below its write pointer in one request.
  void ReadZone(std::uint32_t z) {
    const std::uint64_t wp = WritePointer(z);
    if (wp == 0) return;
    std::vector<std::uint64_t> got;
    Add(TestRead(dev_, z * zone_, wp, t_, &got));
    for (std::uint64_t k = 0; k < got.size(); ++k) {
      // A cut may undo a reset: older generations are legal content.
      const std::uint64_t x = got[k] ^ TokenOf(z * zone_ / kSlot + k, 0);
      EXPECT_EQ(x & ((std::uint64_t{1} << 40) - 1), 0u) << "zone " << z << " slot " << k;
      EXPECT_LE(x >> 40, gen_[z]) << "zone " << z << " slot " << k;
      dg_.Add(got[k]);
    }
  }

  void Reset(std::size_t w) {
    const std::uint32_t z = writers_[w];
    if (WritePointer(z) == zone_) ++full_resets_;
    const SimTime submit = t_;
    auto r = dev_.ResetZone(ZoneId{z}, t_);
    Add(r);
    if (!r.ok()) return;
    ++gen_[z];
    // The writer moves to the next empty zone no writer holds.
    for (std::size_t tries = 0;; ++tries) {
      ASSERT_LT(tries, gen_.size()) << "no empty zone left for a writer";
      const std::uint32_t next = next_zone_;
      next_zone_ = static_cast<std::uint32_t>((next_zone_ + 1) % gen_.size());
      if (std::find(writers_.begin(), writers_.end(), next) == writers_.end() &&
          WritePointer(next) == 0) {
        writers_[w] = next;
        break;
      }
    }
    if (rng_.NextBelow(2) == 0) return;
    // A cut inside the reset's window: before its invalidates are
    // durable, across its erases, or just after.
    const SimTime cut =
        Later(dev_.last_submit(),
              submit + SimDuration::Nanos(rng_.NextBelow((r.value() - submit).ns() + 200'000)));
    ASSERT_TRUE(dev_.PowerCut(cut).ok());
    auto rec = dev_.Recover(cut);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    Add(rec);
    for (std::uint32_t zz = 0; zz < gen_.size(); ++zz) {
      dg_.Add(WritePointer(zz));
      ReadZone(zz);
    }
    // Zones a cut brought back from a reset: reset them again, so only
    // the writers' zones hold data (the active-zone limit).
    for (std::uint32_t zz = 0; zz < gen_.size(); ++zz) {
      if (WritePointer(zz) > 0 &&
          std::find(writers_.begin(), writers_.end(), zz) == writers_.end()) {
        Add(dev_.ResetZone(ZoneId{zz}, t_));
        ++gen_[zz];
      }
    }
  }

  ConZoneDevice& dev_;
  Rng rng_;
  const std::uint64_t zone_;
  std::vector<std::uint64_t> gen_;
  std::vector<std::uint32_t> writers_{0, 1, 2, 3};
  std::uint32_t next_zone_ = 4;
  Digest dg_;
  SimTime t_;
  std::uint64_t failed_ = 0;
  std::uint64_t full_resets_ = 0;
};

TEST(BulkPathPinTest, ResetsAcrossCutsBitForBit) {
  auto made = ConZoneDevice::Create(ResetPinConfig());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  ResetStream stream(dev, 5);
  ASSERT_NO_FATAL_FAILURE(stream.Run(6000));

  // Full zones held their patch and re-driven units in SLC when reset,
  // cuts tore resets, and mounts rebuilt the mapping.
  const ConZoneStats s = dev.stats();
  EXPECT_GT(stream.full_resets(), 20u);
  EXPECT_GT(s.patch_runs, 0u);
  EXPECT_GT(s.folds, 0u);
  EXPECT_GT(dev.Reliability().program_failures_normal, 0u);
  EXPECT_GT(dev.Reliability().reads_with_retry, 0u);
  EXPECT_GT(dev.Recovery().recoveries, 5u);
  EXPECT_GT(dev.Recovery().resurrected_slots, 0u);
  EXPECT_GT(dev.Recovery().reerased_blocks, 0u);
  EXPECT_EQ(stream.failed_ops(), 0u);

  Digest& dg = stream.digest();
  AddCounters(dev, dg);
  AddMedia(dev, dg);
  EXPECT_EQ(dg.value(), 0x711D5FEDB9A1E379ull) << std::hex << dg.value();
}

}  // namespace
}  // namespace conzone
