// Superblock free-list management.
//
// Superblock s = the blocks with in-chip index s across every chip
// (paper §II-A). The SLC region's superblocks cycle through a free list:
// the secondary write buffer consumes them and the composite GC (§III-D)
// erases victims back onto the list. ConZone statically reserves the
// normal region's superblocks for zones and never touches the normal
// free list; the Legacy baseline (traditional FTL, §IV-A) allocates them
// dynamically through it.
#pragma once

#include <cstdint>
#include <deque>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "flash/geometry.hpp"

namespace conzone {

class FlashArray;

class SuperblockPool {
 public:
  /// `normal_pool_count` limits the normal free list to the first that
  /// many normal superblocks (UINT32_MAX = all; ConZone restricts it to
  /// the conventional-zone backing, Legacy uses the whole region).
  explicit SuperblockPool(const FlashGeometry& geometry,
                          std::uint32_t normal_pool_count = ~0u);

  /// Make allocation erase-count-aware: with a wear source attached,
  /// Allocate{Slc,Normal} pick the free superblock with the lowest total
  /// erase count (ties broken by lowest id — deterministic) instead of
  /// FIFO order. FIFO only levels wear that the pool itself caused;
  /// min-wear also corrects pre-existing imbalance (uneven retirement,
  /// re-drive hotspots, factory-worn blocks) by steering churn away from
  /// hot superblocks. `array` must outlive the pool.
  void AttachWearSource(const FlashArray* array) { wear_ = array; }

  /// Take a free SLC superblock: least-worn first when a wear source is
  /// attached, else FIFO (which levels only self-inflicted wear).
  Result<SuperblockId> AllocateSlc();

  /// Return an erased SLC superblock to the free list.
  Status ReleaseSlc(SuperblockId sb);

  std::size_t FreeSlcCount() const { return free_slc_.size(); }
  /// Whether `sb` currently sits on the SLC free list. GC victim selection
  /// needs this explicitly once retired blocks exist: a free-list member
  /// can still carry stale slot state in a retired block, so "no valid
  /// slots" is no longer a reliable free-ness test.
  bool IsFreeSlc(SuperblockId sb) const;

  /// Take a free normal-region superblock (Legacy FTL allocation).
  Result<SuperblockId> AllocateNormal();
  /// Return an erased normal superblock to the free list.
  Status ReleaseNormal(SuperblockId sb);
  std::size_t FreeNormalCount() const { return free_normal_.size(); }
  /// Normal superblocks the free list cycles: the first this many.
  std::uint32_t NormalPoolCount() const { return normal_pool_count_; }
  bool IsFreeNormal(SuperblockId sb) const;

  /// Free-list snapshots in list order, for checkpoint serialization.
  const std::deque<SuperblockId>& FreeSlcList() const { return free_slc_; }
  const std::deque<SuperblockId>& FreeNormalList() const { return free_normal_; }

  /// Sum of per-chip block erase counts for `sb` (0 without wear source).
  std::uint64_t EraseSum(SuperblockId sb) const;

  /// Power-loss remount: rebuild both free lists from media state. A
  /// superblock is free iff every healthy block in it is erased (cursor
  /// and valid count zero) and at least one healthy block remains —
  /// fully-retired superblocks must never cycle back into allocation.
  /// Retired blocks may keep a stale cursor (the live free lists allow
  /// that too, see IsFreeSlc). The normal list keeps its configured cap.
  void RebuildFreeLists(const FlashArray& array);

 private:
  /// Pop FIFO front, or the (erase-sum, id)-minimal member when a wear
  /// source is attached.
  SuperblockId PopLeastWorn(std::deque<SuperblockId>& free_list);
  bool SuperblockErased(const FlashArray& array, SuperblockId sb) const;

  FlashGeometry geo_;
  std::uint32_t normal_pool_count_ = 0;
  std::deque<SuperblockId> free_slc_;
  std::deque<SuperblockId> free_normal_;
  const FlashArray* wear_ = nullptr;
};

}  // namespace conzone
