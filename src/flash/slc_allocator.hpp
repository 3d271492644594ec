// SLC-region write pointer.
//
// The paper (§III-B) keeps a separate write pointer per media region
// because the programming units differ: the SLC secondary buffer can
// partial-program at 4 KiB, the normal region programs one-shot units.
// This allocator is the SLC pointer: it binds to a free SLC superblock
// and iterates in *page-fill stripe order* — the four 4 KiB slots of one
// page, then the same page of the next chip, then the next page row —
// so a multi-slot premature flush batches into whole-page program pulses
// spread across the chips, while a sub-page flush still partial-programs
// a single page. When a superblock is exhausted the pointer rebinds to
// the next free superblock from the pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "flash/array.hpp"
#include "flash/geometry.hpp"
#include "flash/superblock.hpp"
#include "flash/timing_engine.hpp"

namespace conzone {

class SlcAllocator {
 public:
  SlcAllocator(FlashArray& array, SuperblockPool& pool);

  /// Program `writes` at the SLC write pointer; returns the physical slot
  /// of each write, in order, valid until the next Program call. Fails
  /// with kResourceExhausted when the region runs out of free superblocks
  /// (caller must GC first).
  ///
  /// Media faults are absorbed here: a program failure burns the slot,
  /// retires the block, and the write is re-driven at the next healthy
  /// position — so a successful return means every write landed.
  Result<std::span<const Ppn>> Program(std::span<const SlotWrite> writes);

  /// The SLC program step: Program `writes` and charge their media time
  /// on `engine`, all issued at `issue`. Slots sharing a flash page batch
  /// into one pulse (a partial page program still costs a full pulse).
  /// The pulses burned on failed slots run first and are booked as
  /// recovery work; whether a caller waits for them is its own policy.
  struct Timed {
    std::span<const Ppn> ppns;  ///< Valid until the next Program call.
    SimTime data_in;            ///< The data's transfers drained.
    SimTime end;                ///< The data's pulses ended.
    SimTime burns_end;          ///< The burned pulses ended (`issue` if none).
  };
  Result<Timed> ProgramTimed(std::span<const SlotWrite> writes, FlashTimingEngine& engine,
                             SimTime issue);

  /// The superblock the pointer is currently bound to (invalid if none
  /// yet). GC must never pick this as a victim.
  SuperblockId current_superblock() const { return current_; }

  /// Power-loss remount: drop the volatile binding. The partially filled
  /// superblock it pointed at is abandoned to GC (its live slots are
  /// still mapped and readable); the next Program binds a fresh one.
  void Remount() {
    current_ = SuperblockId{};
    index_ = 0;
    failed_.clear();
  }

 private:
  Status BindNextSuperblock();

  FlashArray& array_;
  SuperblockPool& pool_;
  const FlashGeometry& geo_;

  SuperblockId current_;   // invalid until first program
  std::uint64_t index_ = 0;  // flat position in page-fill stripe order
  std::vector<Ppn> failed_;  // burned positions of the last Program call
  std::vector<Ppn> ppns_;    // slots of the last Program call
};

}  // namespace conzone
