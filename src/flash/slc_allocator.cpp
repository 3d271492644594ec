#include "flash/slc_allocator.hpp"

namespace conzone {

SlcAllocator::SlcAllocator(FlashArray& array, SuperblockPool& pool)
    : array_(array), pool_(pool), geo_(array.geometry()) {}

Status SlcAllocator::BindNextSuperblock() {
  auto sb = pool_.AllocateSlc();
  if (!sb.ok()) return sb.status();
  current_ = sb.value();
  index_ = 0;
  return Status::Ok();
}

Result<std::span<const Ppn>> SlcAllocator::Program(std::span<const SlotWrite> writes) {
  // Page-fill stripe order within the superblock: flat index i maps to
  //   page row  = i / (slots_per_page * chips)
  //   chip      = (i / slots_per_page) % chips
  //   slot      = i % slots_per_page
  const std::uint32_t spp = geo_.SlotsPerPage();
  const std::uint64_t total =
      static_cast<std::uint64_t>(geo_.SlcUsableSlotsPerBlock()) * geo_.NumChips();
  failed_.clear();
  ppns_.clear();
  for (const SlotWrite& w : writes) {
    // Each write retries until it lands: retired blocks are skipped, and a
    // fresh program failure burns its slot (recorded in failed_) before the
    // write is re-driven at the next position. Termination: index_ strictly
    // advances, and pool exhaustion surfaces as kResourceExhausted.
    for (;;) {
      if (!current_.valid() || index_ >= total) {
        Status st = BindNextSuperblock();
        if (!st.ok()) return st;
      }
      const std::uint32_t page_row = static_cast<std::uint32_t>(index_ / (spp * geo_.NumChips()));
      const std::uint32_t chip = static_cast<std::uint32_t>((index_ / spp) % geo_.NumChips());
      const std::uint32_t slot = static_cast<std::uint32_t>(index_ % spp);
      const BlockId block = geo_.BlockOfSuperblock(current_, ChipId{chip});
      if (array_.IsRetired(block)) {
        ++index_;
        continue;
      }
      // In this order each block's sequential cursor is page_row*spp + slot.
      const SlotWrite one[] = {w};
      Status st = array_.ProgramSlots(block, one);
      if (st.ok()) {
        ppns_.push_back(geo_.SlotAt(geo_.PageAt(block, page_row), slot));
        ++index_;
        break;
      }
      if (st.code() == StatusCode::kMediaError) {
        failed_.push_back(geo_.SlotAt(geo_.PageAt(block, page_row), slot));
        ++index_;
        continue;
      }
      return st;
    }
  }
  return std::span<const Ppn>(ppns_);
}

namespace {
/// Time a run of SLC slots allocated in page-fill stripe order: slots
/// sharing a flash page batch into one program pulse. Returns the latest
/// data-in and pulse-end times across the groups.
FlashTimingEngine::ProgramResult ProgramSlcSlots(FlashTimingEngine& engine,
                                                 const FlashGeometry& geo,
                                                 std::span<const Ppn> ppns, SimTime issue) {
  FlashTimingEngine::ProgramResult out{issue, issue};
  std::size_t i = 0;
  while (i < ppns.size()) {
    const FlashPageId page = geo.PageOfSlot(ppns[i]);
    std::size_t j = i + 1;
    while (j < ppns.size() && geo.PageOfSlot(ppns[j]) == page) ++j;
    const auto prog = engine.Program(geo.ChipOfBlock(geo.BlockOfPage(page)), CellType::kSlc,
                                     (j - i) * geo.slot_size, issue);
    out.data_in = Later(out.data_in, prog.data_in);
    out.end = Later(out.end, prog.end);
    i = j;
  }
  return out;
}
}  // namespace

SlcAllocator::Timed SlcAllocator::Charge(FlashTimingEngine& engine, SimTime issue) {
  Timed out{issue, issue, issue};
  if (!failed_.empty()) {
    // The die ran each burned pulse before the verify rejected it.
    out.burns_end = ProgramSlcSlots(engine, geo_, failed_, issue).end;
    array_.mutable_reliability().BookRedrive(
        engine.timing().For(CellType::kSlc).program_latency *
            static_cast<std::uint64_t>(failed_.size()),
        failed_.size());
  }
  const auto prog = ProgramSlcSlots(engine, geo_, ppns_, issue);
  out.data_in = prog.data_in;
  out.end = prog.end;
  return out;
}

}  // namespace conzone
