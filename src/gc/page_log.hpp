// Page-mapped in-place log — the FTL of the Legacy baseline (§IV-A) and
// of ConZone's conventional zones (§III-E extension).
//
// Both devices keep in-place data under page-granularity mapping in a
// log of normal superblocks that one NormalAllocator appends to, and
// both reclaim it with greedy device-side GC. This module is that FTL,
// built once:
//
//   Write: stream-detected buffering. A write continues the buffer whose
//   extent it extends, else takes an empty buffer, else evicts the
//   coldest one; a write that breaks the picked buffer's stream flushes
//   it first. At most one buffered copy of an lpn exists: before slots
//   are appended, every other buffer holding an older copy of them goes
//   to media, so reads find the newest copy and copies reach media in
//   host-write order.
//
//   Flush: whole one-shot units of an extent go into the log; a sub-unit
//   remainder is partial-programmed into the SLC secondary buffer, where
//   it stays until GC moves it. Both remap in place: the old copy is
//   invalidated.
//
//   Read: a buffered copy is served from RAM; otherwise the translator
//   resolves the slot, and its page read joins the request's page groups.
//
//   GC: the victim is the log superblock with the fewest valid slots
//   (lowest id on ties). Its live slots are read page by page, re-logged
//   in padded units issued when the reads end, and the victim is erased.
//   GC stops after two rounds that free nothing. Legacy's SLC-region
//   pass picks SLC victims the same way and migrates them into the log,
//   with no stall rule.
//
// The owning device keeps its policies: when GC runs, the flush of its
// write buffers on a host Flush, and (ConZone) the SLC GC, which reuses
// the page-grouped victim read and the erase step below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "buffer/write_buffer.hpp"
#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "flash/array.hpp"
#include "flash/normal_allocator.hpp"
#include "flash/page_groups.hpp"
#include "flash/slc_allocator.hpp"
#include "flash/superblock.hpp"
#include "flash/timing_engine.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/l2p_log.hpp"
#include "ftl/mapping.hpp"
#include "ftl/translator.hpp"
#include "gc/slc_gc.hpp"

namespace conzone {

/// The two completion horizons of a flush: the write-buffer SRAM accepts
/// new data once the flash transfers drain (`sram_free`); the data is
/// durable once every program pulse ends (`media_done`).
struct FlushTimes {
  SimTime sram_free;
  SimTime media_done;
};

/// Read `victim`'s live slots page by page, issued at `issue`: one sense
/// and one transfer per flash page holding live data, repeated at the
/// worst retry level among its slots. Retired blocks are read too. Each
/// live slot's address goes to `old_ppns` and its data to `live`, in
/// block order. Returns when the reads end.
SimTime ReadLiveSlots(FlashArray& array, FlashTimingEngine& engine, SuperblockId victim,
                      SimTime issue, std::vector<Ppn>& old_ppns,
                      std::vector<SlotWrite>& live);

/// Erase block `b` at `issue`; returns when the pulse ends. An erase
/// failure retires the block on the spot: the pulse still ran, its
/// leftover state is scrubbed and the pulse is booked as recovery time.
/// Which blocks to skip is the caller's policy.
Result<SimTime> EraseOrRetire(FlashArray& array, FlashTimingEngine& engine, BlockId b,
                              SimTime issue);

/// Erase `victim`'s blocks on every chip at `issue`, in one journal
/// window. Retired blocks are scrubbed, not erased. The superblock
/// returns to its free list while one healthy block survives; a fully
/// retired superblock is lost capacity.
struct EraseResult {
  SimTime done;
  bool released = false;
};
Result<EraseResult> EraseVictim(FlashArray& array, FlashTimingEngine& engine,
                                SuperblockPool& pool, SuperblockId victim, SimTime issue);

struct PageLogStats {
  std::uint64_t flushes = 0;            ///< Buffer extents flushed.
  std::uint64_t premature_flushes = 0;  ///< Flushes that staged a remainder in SLC.
  std::uint64_t buffer_ram_reads = 0;   ///< Read slots served from a write buffer.
  std::uint64_t overwrites = 0;         ///< Host updates that invalidated a valid copy.
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_slots_migrated = 0;  ///< Live slots GC re-logged.
};

class PageLog {
 public:
  /// How a slot written into the log is mapped.
  enum class Remap : std::uint8_t {
    kInPlace,  ///< Host data: invalidates the old valid copy, counts an overwrite.
    kRepoint,  ///< GC and eviction: the caller invalidates the old copy after.
  };
  /// The superblocks a GC pass collects.
  enum class Region : std::uint8_t {
    kLog,  ///< The log's normal superblocks.
    kSlc,  ///< The SLC region, migrated into the log (Legacy).
  };

  /// The log occupies the first `pool.NormalPoolCount()` normal
  /// superblocks. Every reference must outlive the log; `buffer_ready`
  /// holds each write buffer's SRAM-free time, and `l2p_log` (may be
  /// null) gets one entry per remap. Host writes without tokens store
  /// `token_salt ^ lpn`.
  PageLog(FlashArray& array, FlashTimingEngine& engine, SuperblockPool& pool,
          SlcAllocator& slc, WriteBufferPool& buffers, std::vector<SimTime>& buffer_ready,
          MappingTable& table, L2PCache& cache, Translator& translator, L2pLog* l2p_log,
          CellType map_media, std::uint64_t token_salt);

  /// Buffer `nslots` slots from `first`, owned by `owner`, starting at
  /// `t`; returns when the host transfer into SRAM ends. Each buffer the
  /// write has to empty goes through `flush(BufferedExtent&&, SimTime at,
  /// bool conflict)`, which returns the FlushTimes of that extent; it is
  /// the owner's flush, GC trigger included.
  template <class FlushFn>
  Result<SimTime> Write(ZoneId owner, Lpn first, std::uint64_t nslots,
                        std::span<const std::uint64_t> tokens, SimTime t, FlushFn&& flush);

  /// Place a non-empty extent issued at `now`: whole units into the log,
  /// one journal window each, and the remainder into SLC. No GC.
  Result<FlushTimes> FlushExtent(const BufferedExtent& extent, SimTime now);

  /// Serve `lpn` for a read whose data phase starts at `t0`.
  Status ReadSlot(Lpn lpn, SimTime t0, PageGrouper& groups,
                  std::vector<std::uint64_t>* tokens_out);

  /// Program `data` (at most one unit; GC and eviction pad the tail with
  /// slots that are invalidated at once) into the log, issued at `issue`,
  /// and map each lpn to its new copy. Pulses that failed programs burned
  /// are charged at `issue`; with `after_burns` the program waits for
  /// their transfers, else it is issued at `issue` as well.
  Result<FlushTimes> ProgramUnit(std::span<const SlotWrite> data, SimTime issue,
                                 Remap remap, bool after_burns = false);

  /// Greedy GC over `region` until its free list reaches the reclaim
  /// target; returns when the last erase ends.
  Result<SimTime> Collect(Region region, SimTime now);

  /// Power-loss remount: the allocator forgets its open superblock.
  void Remount() { alloc_.Remount(); }

  std::uint64_t unit_slots() const { return unit_slots_; }
  const PageLogStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PageLogStats{}; }

 private:
  SuperblockId SelectVictim(Region region) const;
  Status SetMapping(Lpn lpn, Ppn ppn, Remap remap);
  /// Charge the die time of the pulses the last ProgramUnit burned on
  /// failed blocks and book the recovery work; returns when their
  /// transfers drain.
  SimTime ChargeBurns(SimTime issue);

  FlashArray& array_;
  FlashTimingEngine& engine_;
  SuperblockPool& pool_;
  SlcAllocator& slc_;
  WriteBufferPool& buffers_;
  std::vector<SimTime>& buffer_ready_;
  MappingTable& table_;
  L2PCache& cache_;
  Translator& translator_;
  L2pLog* l2p_log_;
  NormalAllocator alloc_;
  const FlashGeometry& geo_;
  CellType map_media_;
  std::uint64_t token_salt_;
  std::uint64_t unit_slots_;
  FastDiv div_slots_per_page_;
  PageLogStats stats_;
  // Scratch reused across calls, so in-place writes allocate nothing
  // once warm.
  std::vector<SlotWrite> chunk_;      ///< Write()
  std::vector<SlotWrite> padded_;     ///< ProgramUnit()
  std::vector<Ppn> old_ppns_;         ///< Collect()
  std::vector<SlotWrite> live_;       ///< Collect()
};

template <class FlushFn>
Result<SimTime> PageLog::Write(ZoneId owner, Lpn first, std::uint64_t nslots,
                               std::span<const std::uint64_t> tokens, SimTime t,
                               FlushFn&& flush) {
  // Empty buffer `b` through the owner's flush at `at`; the buffer
  // accepts data again when the transfers drain.
  auto empty_buffer = [&](WriteBufferId b, bool conflict, SimTime at) -> Result<SimTime> {
    auto done = flush(buffers_.Take(b, conflict), at, conflict);
    if (!done.ok()) return done.status();
    buffer_ready_[static_cast<std::size_t>(b.value())] = done.value().sram_free;
    return done.value().sram_free;
  };
  std::uint64_t i = 0;
  while (i < nslots) {
    const Lpn next = Lpn(first.value() + i);
    const WriteBufferId buf = buffers_.PickBufferForStream(next);
    t = Later(t, buffer_ready_[static_cast<std::size_t>(buf.value())]);

    const BufferedExtent& cur = buffers_.Contents(buf);
    const bool contiguous =
        cur.empty() ||
        (cur.owner == owner && Lpn(cur.first_lpn.value() + cur.slot_count()) == next);
    const bool overlaps =
        !cur.empty() && next.value() < cur.first_lpn.value() + cur.slot_count() &&
        next.value() + (nslots - i) > cur.first_lpn.value();
    if (!contiguous || overlaps) {
      // Stream break (random write, rewrite of buffered data, or buffer
      // steal): flush and start a fresh extent.
      auto freed = empty_buffer(buf, /*conflict=*/true, t);
      if (!freed.ok()) return freed.status();
      t = freed.value();
    }

    const std::uint64_t n = std::min(buffers_.FreeSlots(buf), nslots - i);
    // An older copy of these slots waiting in another buffer goes to
    // media first: otherwise reads would find it before this one, and a
    // later flush of it would supersede this write.
    for (WriteBufferId o = buffers_.OverlappingBuffer(next, n, buf); o.valid();
         o = buffers_.OverlappingBuffer(next, n, buf)) {
      t = Later(t, buffer_ready_[static_cast<std::size_t>(o.value())]);
      auto freed = empty_buffer(o, /*conflict=*/true, t);
      if (!freed.ok()) return freed.status();
      t = freed.value();
    }
    chunk_.clear();
    for (std::uint64_t k = 0; k < n; ++k) {
      const Lpn lpn = Lpn(next.value() + k);
      chunk_.push_back(SlotWrite{lpn, tokens.empty() ? token_salt_ ^ lpn.value()
                                                     : tokens[i + k]});
    }
    if (Status st = buffers_.AppendTo(buf, owner, next, chunk_); !st.ok()) return st;
    i += n;

    // A full buffer flushes in the background: the write does not wait
    // for it, only later appends to this buffer do.
    if (buffers_.FreeSlots(buf) == 0) {
      auto freed = empty_buffer(buf, /*conflict=*/false, t);
      if (!freed.ok()) return freed.status();
    }
  }
  return t;
}

}  // namespace conzone
