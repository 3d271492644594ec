// Bit-for-bit pins of ConZone's sequential-zone media paths under
// program failures, erase failures and power cuts.
//
// A seeded stream drives conflicting zone writers (4 KiB to 512 KiB),
// reads, host flushes, finishes, resets and power cuts, each followed by
// Recover, on a small device with faults in both cell classes, the L2P
// log and checkpoints. The test hashes every completion time (or error
// code), every read-back token, the device's counters and the mapping
// (ppn and map bits) of every zone into one FNV-1a digest and compares
// it with a recorded value. SLC staging, the zone-tail patch, folds,
// re-drives into SLC, burned SLC pulses, block erases with their
// failure scrub, the re-erase of torn erases, aggregation stamping and
// its break under SLC GC, and the checkpoint mount all feed it; the
// counter assertions prove each of those paths ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/device.hpp"

#include "test_digest.hpp"
#include "test_io.hpp"

namespace conzone {
namespace {

constexpr std::uint64_t kSlot = 4096;

/// Token of `lpn` written in generation `gen` of its zone (a zone reset
/// starts the next generation).
std::uint64_t TokenOf(std::uint64_t lpn, std::uint64_t gen) {
  return (lpn * 0x9E3779B97F4A7C15ull) ^ (gen << 40) ^ 0xA5A5u;
}

/// 4 MiB zones over 3.75 MiB superblocks (a 256 KiB SLC patch each),
/// 1 MiB chunks, 24 zones and 16 SLC superblocks (20 MiB, the paper's
/// ratio of SLC to patches).
ConZoneConfig SequentialPinConfig() {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.pages_per_block = 60;
  cfg.geometry.blocks_per_chip = 40;
  cfg.geometry.slc_blocks_per_chip = 16;
  cfg.zone_size_bytes = 4 * kMiB;
  cfg.lpns_per_chunk = 256;
  cfg.fault = FaultConfig::ConsumerDefaults();
  cfg.fault.seed = 19;
  cfg.fault.slc.program_fail = 5e-5;
  cfg.fault.normal.program_fail = 3e-4;
  cfg.fault.normal.erase_fail = 1e-3;
  cfg.fault.power_loss = true;
  cfg.l2p_log.enabled = true;
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.interval_entries = 2048;
  cfg.checkpoint.min_flush_entries = 64;
  return cfg;
}

class SequentialStream {
 public:
  SequentialStream(ConZoneDevice& dev, std::uint64_t seed)
      : dev_(dev),
        rng_(seed),
        zone_bytes_(dev.info().zone_size_bytes),
        num_zones_(dev.info().num_zones),
        gen_(num_zones_, 0),
        data_end_(num_zones_, 0) {}

  /// Run `ops` random ops; every op starts when the previous one ends.
  void Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t pick = rng_.NextBelow(100);
      if (pick < 60) {
        ASSERT_NO_FATAL_FAILURE(Write());
      } else if (pick < 85) {
        ASSERT_NO_FATAL_FAILURE(Read());
      } else if (pick < 90) {
        Add(dev_.Flush(t_));
      } else if (pick < 93) {
        const std::size_t w = rng_.NextBelow(writers_.size());
        Add(dev_.FinishZone(ZoneId{writers_[w]}, t_));
        ASSERT_NO_FATAL_FAILURE(ReplaceWriter(w));
      } else if (pick < 97) {
        ASSERT_NO_FATAL_FAILURE(Reset(static_cast<std::uint32_t>(rng_.NextBelow(num_zones_))));
      } else {
        // A cut up to 3 ms after the last submission tears or drops the
        // programs and erases still in flight.
        ASSERT_NO_FATAL_FAILURE(
            Cut(dev_.last_submit() + SimDuration::Micros(rng_.NextBelow(3000))));
      }
    }
  }

  Digest& digest() { return dg_; }
  std::uint64_t failed_ops() const { return failed_; }

  /// Where every lpn lives and at which granularity it is mapped.
  void AddMapping() {
    const std::uint64_t lpns = num_zones_ * zone_bytes_ / kSlot;
    for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
      const MapEntry e = dev_.mapping().Get(Lpn{lpn});
      dg_.Add(e.mapped() ? e.ppn.value() : ~0ull);
      dg_.Add(static_cast<std::uint64_t>(e.gran));
    }
  }

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

  void Write() {
    const std::size_t w = rng_.NextBelow(writers_.size());
    if (WritePointer(writers_[w]) == zone_bytes_) ASSERT_NO_FATAL_FAILURE(ReplaceWriter(w));
    const std::uint32_t z = writers_[w];
    static constexpr std::uint64_t kLens[] = {4 * kKiB,   8 * kKiB,   64 * kKiB,
                                              128 * kKiB, 384 * kKiB, 512 * kKiB};
    const std::uint64_t wp = WritePointer(z);
    const std::uint64_t len = std::min(kLens[rng_.NextBelow(6)], zone_bytes_ - wp);
    const std::uint64_t first = (z * zone_bytes_ + wp) / kSlot;
    std::vector<std::uint64_t> tokens(len / kSlot);
    for (std::uint64_t k = 0; k < tokens.size(); ++k) tokens[k] = TokenOf(first + k, gen_[z]);
    auto r = TestWrite(dev_, z * zone_bytes_ + wp, len, t_, tokens);
    Add(r);
    if (r.ok()) data_end_[z] = wp + len;
    if (r.ok() && wp + len == zone_bytes_ && rng_.NextBelow(2) == 0) {
      // The write completed the zone: its patch run is in flight. Cut
      // within 80 us of the write's end, across the staged read-back
      // that feeds the patch program.
      ASSERT_NO_FATAL_FAILURE(Cut(t_ + SimDuration::Micros(rng_.NextBelow(80))));
    }
  }

  void Read() {
    // Below the written data only: a finished zone's write pointer
    // passes it.
    const std::uint32_t z = static_cast<std::uint32_t>(rng_.NextBelow(num_zones_));
    const std::uint64_t wp = data_end_[z];
    if (wp == 0) return;
    static constexpr std::uint64_t kLens[] = {4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB};
    const std::uint64_t off = rng_.NextBelow(wp / kSlot) * kSlot;
    const std::uint64_t len = std::min(kLens[rng_.NextBelow(4)], wp - off);
    std::vector<std::uint64_t> got;
    auto r = TestRead(dev_, z * zone_bytes_ + off, len, t_, &got);
    Add(r);
    const std::uint64_t first = (z * zone_bytes_ + off) / kSlot;
    for (std::uint64_t k = 0; k < got.size(); ++k) {
      // Each slot holds its own lpn's data from this or (a reset undone
      // by a cut) an earlier generation of the zone.
      const std::uint64_t x = got[k] ^ TokenOf(first + k, 0);
      ASSERT_EQ(x & ((std::uint64_t{1} << 40) - 1), 0u) << "lpn " << first + k;
      ASSERT_LE(x >> 40, gen_[z]) << "lpn " << first + k;
      dg_.Add(got[k]);
    }
  }

  void Reset(std::uint32_t z) {
    auto r = dev_.ResetZone(ZoneId{z}, t_);
    Add(r);
    if (r.ok()) {
      ++gen_[z];
      data_end_[z] = 0;
    }
  }

  /// Writer `w` moves to the next zone that no writer holds, which is
  /// reset first when it holds data.
  void ReplaceWriter(std::size_t w) {
    for (;;) {
      const std::uint32_t z = next_zone_;
      next_zone_ = (next_zone_ + 1) % num_zones_;
      if (std::find(writers_.begin(), writers_.end(), z) != writers_.end()) continue;
      if (dev_.zones().Info(ZoneId{z}).state != ZoneState::kEmpty) {
        ASSERT_NO_FATAL_FAILURE(Reset(z));
      }
      writers_[w] = z;
      return;
    }
  }

  void Cut(SimTime at) {
    ASSERT_TRUE(dev_.PowerCut(at).ok());
    auto rec = dev_.Recover(at);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    Add(rec);
    for (std::uint32_t z = 0; z < num_zones_; ++z) {
      dg_.Add(WritePointer(z));
      data_end_[z] = std::min(data_end_[z], WritePointer(z));
    }
    AddMapping();
    // The mount brings partly written zones back closed, and closed
    // zones count against the active limit: finish all but the writers.
    for (std::uint32_t z = 0; z < num_zones_; ++z) {
      if (dev_.zones().Info(ZoneId{z}).state == ZoneState::kClosed &&
          std::find(writers_.begin(), writers_.end(), z) == writers_.end()) {
        Add(dev_.FinishZone(ZoneId{z}, t_));
      }
    }
  }

  ConZoneDevice& dev_;
  Rng rng_;
  const std::uint64_t zone_bytes_;
  const std::uint32_t num_zones_;
  std::vector<std::uint64_t> gen_;
  /// End of the data written to each zone since its last reset.
  std::vector<std::uint64_t> data_end_;
  /// Zones 0 and 2 share a write buffer, as do 1 and 3.
  std::vector<std::uint32_t> writers_{0, 1, 2, 3};
  std::uint32_t next_zone_ = 4;
  Digest dg_;
  SimTime t_;
  std::uint64_t failed_ = 0;
};

void AddCounters(const ConZoneDevice& dev, Digest& dg) {
  dg.Add(dev.media_counters());
  dg.Add(dev.translator().stats());
  dg.Add(dev.Stats());
  dg.Add(dev.Reliability());
  dg.Add(dev.Recovery());
  const GcStats& g = dev.gc().stats();
  for (std::uint64_t v : {g.runs, g.victims, g.slots_migrated, g.superblocks_erased,
                          g.busy_time.ns()}) {
    dg.Add(v);
  }
  const ConZoneStats s = dev.stats();
  for (std::uint64_t v :
       {s.host_bytes_written, s.host_bytes_read, s.writes, s.reads, s.zone_resets,
        s.host_flushes, s.flushes, s.premature_flushes, s.conflict_flushes, s.folds,
        s.fold_slots_read, s.buffer_ram_reads, s.patch_runs, s.aggregates_chunk,
        s.aggregates_zone, s.aggregation_breaks, s.conventional_writes,
        s.conventional_overwrites, s.conventional_gc_runs, s.conventional_gc_migrated}) {
    dg.Add(v);
  }
  dg.Add(dev.l2p_log().stats().entries_appended);
  dg.Add(dev.l2p_log().stats().flushes);
}

TEST(SequentialPinTest, FaultAndCutPathsBitForBit) {
  auto made = ConZoneDevice::Create(SequentialPinConfig());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ConZoneDevice& dev = **made;
  SequentialStream stream(dev, 41);
  ASSERT_NO_FATAL_FAILURE(stream.Run(12000));

  // Every moved media path ran: burned SLC pulses were re-written, a
  // one-shot program failed and re-drove into SLC, erases failed and
  // were scrubbed, torn erases were re-erased at mount, SLC GC broke
  // an aggregate, zone tails went into patch runs, and mounts restored
  // zones from checkpoint snapshots.
  const ReliabilityStats& rel = dev.Reliability();
  const RecoveryStats& rec = dev.Recovery();
  const ConZoneStats s = dev.stats();
  EXPECT_GT(rel.program_failures_slc, 0u);
  EXPECT_GT(rel.rewrite_slots, 0u);
  EXPECT_GT(rel.program_failures_normal, 0u);
  EXPECT_GT(rel.erase_failures_slc + rel.erase_failures_normal, 0u);
  EXPECT_GT(rec.reerased_blocks, 0u);
  EXPECT_GT(rec.zones_restored, 0u);
  EXPECT_GT(s.aggregation_breaks, 0u);
  EXPECT_GT(s.patch_runs, 0u);
  EXPECT_FALSE(dev.read_only());
  EXPECT_EQ(stream.failed_ops(), 0u);

  Digest& dg = stream.digest();
  AddCounters(dev, dg);
  stream.AddMapping();
  EXPECT_EQ(dg.value(), 0xD8D5D69AD9A26BB3ull) << std::hex << dg.value();
}

}  // namespace
}  // namespace conzone
