// Composite garbage collection — the SLC half (paper §III-D).
//
// Zoned (normal) flash blocks never need device-side GC: the host resets
// whole zones and ConZone erases their reserved blocks directly (that
// path lives in the core device). The SLC secondary write buffer,
// however, accumulates invalidated slots — staged data gets folded back
// to normal blocks, zone resets drop staged data — so it runs a *full*
// GC: pick the victim superblock with the fewest valid slots (greedy),
// migrate the valid slots within the SLC region through the SLC write
// pointer, erase the victim, and return it to the free list.
//
// Every migration changes a PPA, so the owner device supplies a remap
// hook that fixes the mapping table, the L2P cache, and any aggregation
// that the move breaks.
#pragma once

#include <cstdint>
#include <functional>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "flash/array.hpp"
#include "flash/slc_allocator.hpp"
#include "flash/superblock.hpp"
#include "flash/timing_engine.hpp"

namespace conzone {

/// Collect a region when its free list drops below this many
/// superblocks (at least one, so the allocator keeps headroom)...
inline constexpr std::uint32_t kGcLowWatermark = 2;
/// ...and keep collecting until the free list is back at this level.
inline constexpr std::uint32_t kGcReclaimTarget = 3;

struct GcStats {
  std::uint64_t runs = 0;
  std::uint64_t victims = 0;
  std::uint64_t slots_migrated = 0;
  std::uint64_t superblocks_erased = 0;
  SimDuration busy_time;  ///< Simulated time spent inside GC.
};

class SlcGarbageCollector {
 public:
  /// (lpn, old ppn, new ppn) — invoked for every migrated slot *after*
  /// the new copy is programmed and before the old one is invalidated.
  using RemapHook = std::function<void(Lpn, Ppn, Ppn)>;

  /// Slots for which this returns true are *evicted from the SLC region*
  /// instead of being re-staged within it (e.g. conventional-zone data,
  /// which has no fold-back to drain it).
  using EvictFilter = std::function<bool(Lpn)>;
  /// Owner-side relocation of evicted slots: program them elsewhere,
  /// update the mapping, and return the completion time. The collector
  /// invalidates the old SLC copies afterwards.
  using EvictHook =
      std::function<Result<SimTime>(std::vector<SlotWrite>, SimTime reads_done)>;

  SlcGarbageCollector(FlashArray& array, FlashTimingEngine& engine,
                      SuperblockPool& pool, SlcAllocator& allocator);

  void set_remap_hook(RemapHook hook) { remap_ = std::move(hook); }
  void set_evict_hook(EvictFilter filter, EvictHook hook) {
    evict_filter_ = std::move(filter);
    evict_ = std::move(hook);
  }

  bool NeedsGc() const { return pool_.FreeSlcCount() < kGcLowWatermark; }

  /// Collect until the reclaim target is met or no victim remains.
  /// Returns the simulated completion time (>= now). The device holds the
  /// triggering host request until then — GC is foreground, as in real
  /// consumer devices under pressure.
  Result<SimTime> Run(SimTime now);

  /// Victim with the fewest valid slots, excluding the allocator's
  /// currently open superblock and free-list members. Invalid id when no
  /// candidate exists.
  SuperblockId SelectVictim() const;

  const GcStats& stats() const { return stats_; }

 private:
  /// Migrate valid slots out of `victim`, erase it, release it. Returns
  /// completion time.
  Result<SimTime> CollectOne(SuperblockId victim, SimTime now);

  FlashArray& array_;
  FlashTimingEngine& engine_;
  SuperblockPool& pool_;
  SlcAllocator& alloc_;
  RemapHook remap_;
  EvictFilter evict_filter_;
  EvictHook evict_;
  GcStats stats_;
};

}  // namespace conzone
