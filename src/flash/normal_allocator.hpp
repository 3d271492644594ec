// Log-structured normal-region allocator: the write pointer of the page
// log (gc/page_log.hpp) behind the Legacy baseline and ConZone's
// conventional zones.
//
// Traditional consumer flash storage (§II-A, the "Legacy" device of
// §IV-A) has no zones: the controller appends wherever its write pointer
// says, and a page-mapping table tracks every 4 KiB slot. This allocator
// is that write pointer: it binds to a free normal superblock and hands
// out one-shot program units striped across the chips; exhausted
// superblocks are replaced from the pool, and the log's GC erases
// victims back onto it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "flash/array.hpp"
#include "flash/geometry.hpp"
#include "flash/superblock.hpp"

namespace conzone {

class NormalAllocator {
 public:
  NormalAllocator(FlashArray& array, SuperblockPool& pool);

  /// Program exactly one unit (program_unit bytes) of slots; `writes`
  /// must contain unit/slot_size entries. Returns the PPN of each slot
  /// and the chip that executed the program (for timing).
  ///
  /// Media faults are absorbed here: a failed one-shot program retires
  /// the block and the unit is re-driven at the next healthy position; a
  /// successful return means the unit landed. The chips whose pulses
  /// burned are reported via last_failed_chips() for timing charges.
  struct UnitResult {
    std::span<const Ppn> ppns;  ///< Valid until the next ProgramUnit call.
    ChipId chip;
  };
  Result<UnitResult> ProgramUnit(std::span<const SlotWrite> writes);

  /// Chips that burned a failed one-shot pulse during the most recent
  /// ProgramUnit call.
  std::span<const ChipId> last_failed_chips() const { return failed_chips_; }

  SuperblockId current_superblock() const { return current_; }

  /// Power-loss remount: drop the volatile binding; the next ProgramUnit
  /// binds a fresh superblock and the abandoned tail is left to GC.
  void Remount() {
    current_ = SuperblockId{};
    row_ = 0;
    chip_off_ = 0;
    failed_chips_.clear();
  }

 private:
  Status BindNextSuperblock();

  FlashArray& array_;
  SuperblockPool& pool_;
  const FlashGeometry& geo_;

  SuperblockId current_;
  std::uint32_t row_ = 0;       // unit row within the superblock
  std::uint32_t chip_off_ = 0;  // next chip within the row
  std::vector<ChipId> failed_chips_;  // burned pulses of the last call
  std::vector<Ppn> ppns_;             // slots of the last unit
};

}  // namespace conzone
