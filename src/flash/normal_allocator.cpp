#include "flash/normal_allocator.hpp"

#include <string>

namespace conzone {

NormalAllocator::NormalAllocator(FlashArray& array, SuperblockPool& pool)
    : array_(array), pool_(pool), geo_(array.geometry()) {}

Status NormalAllocator::BindNextSuperblock() {
  auto sb = pool_.AllocateNormal();
  if (!sb.ok()) return sb.status();
  current_ = sb.value();
  row_ = 0;
  chip_off_ = 0;
  return Status::Ok();
}

Result<NormalAllocator::UnitResult> NormalAllocator::ProgramUnit(
    std::span<const SlotWrite> writes) {
  const std::uint64_t unit_slots = geo_.program_unit / geo_.slot_size;
  if (writes.size() != unit_slots) {
    return Status::InvalidArgument("ProgramUnit needs exactly " +
                                   std::to_string(unit_slots) + " slots");
  }
  failed_chips_.clear();
  // Retry until the unit lands on a healthy block: retired blocks are
  // skipped, a fresh program failure burns the pulse (chip recorded for
  // timing) and the unit is re-driven at the next position. Terminates:
  // the (row, chip) cursor strictly advances and pool exhaustion surfaces
  // as kResourceExhausted.
  for (;;) {
    if (!current_.valid() || row_ >= geo_.UnitsPerBlock()) {
      if (Status st = BindNextSuperblock(); !st.ok()) return st;
    }
    const ChipId chip{chip_off_};
    const BlockId block = geo_.BlockOfSuperblock(current_, chip);
    const std::uint32_t first_page = row_ * geo_.PagesPerProgramUnit();
    if (++chip_off_ == geo_.NumChips()) {
      chip_off_ = 0;
      ++row_;
    }
    if (array_.IsRetired(block)) continue;

    Status st = array_.ProgramSlots(block, writes);
    if (!st.ok()) {
      if (st.code() == StatusCode::kMediaError) {
        failed_chips_.push_back(chip);
        continue;
      }
      return st;
    }
    ppns_.clear();
    for (std::uint64_t k = 0; k < unit_slots; ++k) {
      const std::uint32_t page =
          first_page + static_cast<std::uint32_t>(k / geo_.SlotsPerPage());
      const std::uint32_t slot = static_cast<std::uint32_t>(k % geo_.SlotsPerPage());
      ppns_.push_back(geo_.SlotAt(geo_.PageAt(block, page), slot));
    }
    return UnitResult{ppns_, chip};
  }
}

}  // namespace conzone
