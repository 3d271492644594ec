#include "gc/slc_gc.hpp"

#include <limits>
#include <vector>

#include "gc/page_log.hpp"

namespace conzone {

SlcGarbageCollector::SlcGarbageCollector(FlashArray& array, FlashTimingEngine& engine,
                                         SuperblockPool& pool, SlcAllocator& allocator)
    : array_(array), engine_(engine), pool_(pool), alloc_(allocator) {}

SuperblockId SlcGarbageCollector::SelectVictim() const {
  const FlashGeometry& geo = array_.geometry();
  SuperblockId best;
  std::uint64_t best_valid = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_erases = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t s = 0; s < geo.NumSlcSuperblocks(); ++s) {
    const SuperblockId sb{s};
    if (sb == alloc_.current_superblock()) continue;
    // Explicit free-list check: a freed superblock can still carry stale
    // cursor state in a retired block, so used==0 no longer implies free.
    if (pool_.IsFreeSlc(sb)) continue;
    std::uint64_t valid = 0;
    std::uint64_t used = 0;
    std::uint64_t erases = 0;
    std::uint32_t healthy = 0;
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      const BlockId b = geo.BlockOfSuperblock(sb, ChipId{c});
      valid += array_.ValidSlots(b);
      used += array_.NextProgramSlot(b);
      erases += array_.EraseCount(b);
      if (!array_.IsRetired(b)) ++healthy;
    }
    if (used == 0) continue;   // never written
    if (healthy == 0) continue;  // fully retired: nothing erasable to reclaim
    // Lexicographic (valid, erase count, id): migration cost dominates;
    // among equally cheap victims prefer the least-worn (collecting a
    // victim erases it, so this steers erase load off hot superblocks),
    // then the lowest id for determinism.
    if (valid < best_valid || (valid == best_valid && erases < best_erases)) {
      best_valid = valid;
      best_erases = erases;
      best = sb;
    }
  }
  return best;
}

Result<SimTime> SlcGarbageCollector::CollectOne(SuperblockId victim, SimTime now) {
  const std::uint64_t migrate_mark = array_.MarkJournal();
  ++stats_.victims;

  // Gather valid slots, one sense + one transfer per page of live slots.
  std::vector<Ppn> old_ppns;
  std::vector<SlotWrite> live;
  const SimTime reads_done = ReadLiveSlots(array_, engine_, victim, now, old_ppns, live);

  // Partition: slots the owner wants out of SLC entirely (no fold-back
  // will ever drain them) versus slots re-staged within the region.
  std::vector<SlotWrite> keep;
  std::vector<Ppn> keep_old;
  std::vector<SlotWrite> evict_data;
  std::vector<Ppn> evict_old;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const bool evict = evict_filter_ && evict_ && evict_filter_(live[i].lpn);
    (evict ? evict_data : keep).push_back(live[i]);
    (evict ? evict_old : keep_old).push_back(old_ppns[i]);
  }

  SimTime progs_done = reads_done;
  if (!evict_data.empty()) {
    auto done = evict_(std::move(evict_data), reads_done);
    if (!done.ok()) return done.status();
    progs_done = Later(progs_done, done.value());
    for (const Ppn old : evict_old) {
      if (Status st = array_.InvalidateSlot(old); !st.ok()) return st;
      ++stats_.slots_migrated;
    }
  }

  // Migrate the rest within the SLC region through the write pointer;
  // the erase waits for the pulses the migration burned on the way to
  // healthy blocks, too.
  if (!keep.empty()) {
    auto prog = alloc_.ProgramTimed(keep, engine_, reads_done);
    if (!prog.ok()) return prog.status();
    progs_done = Later(progs_done, Later(prog.value().burns_end, prog.value().end));
    for (std::size_t i = 0; i < keep.size(); ++i) {
      const Ppn new_ppn = prog.value().ppns[i];
      if (remap_) remap_(keep[i].lpn, keep_old[i], new_ppn);
      if (Status st = array_.InvalidateSlot(keep_old[i]); !st.ok()) return st;
      ++stats_.slots_migrated;
    }
  }

  // Stamp the migration's journal entries before issuing erases: the
  // programs and invalidates above complete by progs_done, but the
  // erases start only then — sharing one window would let a mid-GC cut
  // mislabel never-issued erases as torn and discard restorable data.
  // Mark-scoped so a caller's pending batch (a fold mid-flush) is never
  // captured under the migration window.
  array_.StampJournal(migrate_mark, now, progs_done);
  auto erased = EraseVictim(array_, engine_, pool_, victim, progs_done);
  if (!erased.ok()) return erased.status();
  if (erased.value().released) ++stats_.superblocks_erased;
  return erased.value().done;
}

Result<SimTime> SlcGarbageCollector::Run(SimTime now) {
  ++stats_.runs;
  SimTime t = now;
  while (pool_.FreeSlcCount() < kGcReclaimTarget) {
    const SuperblockId victim = SelectVictim();
    if (!victim.valid()) {
      if (pool_.FreeSlcCount() == 0) {
        return Status::ResourceExhausted("SLC region exhausted and no GC victim");
      }
      break;  // nothing reclaimable; live with what we have
    }
    const std::size_t free_before = pool_.FreeSlcCount();
    auto done = CollectOne(victim, t);
    if (!done.ok()) return done.status();
    t = done.value();
    if (pool_.FreeSlcCount() <= free_before) {
      // The victim's live data consumed as much as the erase reclaimed —
      // the region is effectively full of valid data; compacting further
      // cannot help until the host invalidates something.
      break;
    }
  }
  stats_.busy_time += t - now;
  return t;
}

}  // namespace conzone
