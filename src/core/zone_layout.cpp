#include "core/zone_layout.hpp"

#include <cassert>
#include <string>

namespace conzone {

ZoneLayout::ZoneLayout(const FlashGeometry& geometry, std::uint64_t zone_size_bytes,
                       std::uint32_t reserve_offset_superblocks)
    : geo_(geometry),
      zone_bytes_(zone_size_bytes),
      sbs_per_zone_(geo_.NormalSuperblockBytes() ? zone_size_bytes / geo_.NormalSuperblockBytes()
                                                 : 0),
      reserve_offset_(reserve_offset_superblocks),
      normal_bytes_(geo_.NormalSuperblockBytes() * sbs_per_zone_),
      num_zones_(sbs_per_zone_ && geo_.NumNormalSuperblocks() > reserve_offset_superblocks
                     ? static_cast<std::uint32_t>(
                           (geo_.NumNormalSuperblocks() - reserve_offset_superblocks) /
                           sbs_per_zone_)
                     : 0),
      div_chips_(geo_.NumChips()),
      div_units_per_block_(geo_.PagesPerProgramUnit() ? geo_.UnitsPerBlock() : 0),
      div_program_unit_(geo_.program_unit),
      div_page_size_(geo_.page_size),
      div_slot_size_(geo_.slot_size),
      pages_per_unit_(geo_.page_size ? geo_.PagesPerProgramUnit() : 0) {}

Status ZoneLayout::Validate() const {
  if (sbs_per_zone_ == 0) {
    return Status::InvalidArgument("layout: zone size " + std::to_string(zone_bytes_) +
                                   " is below one superblock's capacity " +
                                   std::to_string(geo_.NormalSuperblockBytes()));
  }
  if (num_zones_ == 0) {
    return Status::InvalidArgument("layout: no zones fit in the normal region");
  }
  if (zone_bytes_ % geo_.slot_size != 0) {
    return Status::InvalidArgument("layout: zone size must be slot-aligned");
  }
  return Status::Ok();
}

SuperblockId ZoneLayout::SuperblockOfZone(ZoneId zone, std::uint64_t k) const {
  assert(zone.value() < num_zones_ && k < sbs_per_zone_);
  return SuperblockId(geo_.NumSlcSuperblocks() + reserve_offset_ +
                      zone.value() * sbs_per_zone_ + k);
}

ZoneLayout::UnitLoc ZoneLayout::UnitAt(ZoneId zone, std::uint64_t unit_index) const {
  const std::uint64_t row = div_chips_.Div(unit_index);
  const std::uint32_t chip =
      static_cast<std::uint32_t>(unit_index - row * div_chips_.value());
  const std::uint32_t sb_k = static_cast<std::uint32_t>(div_units_per_block_.Div(row));
  const std::uint32_t block_row = static_cast<std::uint32_t>(
      row - sb_k * div_units_per_block_.value());
  UnitLoc loc;
  loc.chip = ChipId{chip};
  loc.block = geo_.BlockOfSuperblock(SuperblockOfZone(zone, sb_k), loc.chip);
  loc.first_page_in_block = block_row * pages_per_unit_;
  return loc;
}

Ppn ZoneLayout::NormalSlot(ZoneId zone, std::uint64_t offset) const {
  assert(offset < normal_bytes_);
  const std::uint64_t unit = div_program_unit_.Div(offset);
  const std::uint64_t in_unit = offset - unit * div_program_unit_.value();
  const UnitLoc loc = UnitAt(zone, unit);
  const std::uint32_t page =
      loc.first_page_in_block + static_cast<std::uint32_t>(div_page_size_.Div(in_unit));
  const std::uint32_t slot = static_cast<std::uint32_t>(
      div_slot_size_.Div(div_page_size_.Mod(in_unit)));
  return geo_.SlotAt(geo_.PageAt(loc.block, page), slot);
}

ZoneLayout::StripePos ZoneLayout::StripeOfSlot(Ppn ppn) const {
  // Page-fill stripe order (must match SlcAllocator):
  //   flat = page_row * (slots_per_page * chips) + chip * slots_per_page + slot.
  const BlockId block = geo_.BlockOfSlot(ppn);
  assert(geo_.IsSlcBlock(block));
  const std::uint32_t spp = geo_.SlotsPerPage();
  const std::uint32_t in_block = geo_.SlotIndexInBlock(ppn);
  const std::uint32_t page_row = in_block / spp;
  const std::uint32_t slot = in_block % spp;
  const std::uint32_t chip = static_cast<std::uint32_t>(geo_.ChipOfBlock(block).value());
  StripePos pos;
  pos.sb = geo_.SuperblockOfBlock(block);
  pos.flat = static_cast<std::uint64_t>(page_row) * spp * geo_.NumChips() +
             static_cast<std::uint64_t>(chip) * spp + slot;
  return pos;
}

Ppn ZoneLayout::SlotOfStripe(const StripePos& pos) const {
  const std::uint32_t spp = geo_.SlotsPerPage();
  const std::uint32_t page_row =
      static_cast<std::uint32_t>(pos.flat / (spp * geo_.NumChips()));
  const std::uint32_t chip = static_cast<std::uint32_t>((pos.flat / spp) % geo_.NumChips());
  const std::uint32_t slot = static_cast<std::uint32_t>(pos.flat % spp);
  const BlockId block = geo_.BlockOfSuperblock(pos.sb, ChipId{chip});
  return geo_.SlotAt(geo_.PageAt(block, page_row), slot);
}

std::optional<Ppn> ZoneLayout::StripeAdvance(Ppn ppn, std::uint64_t steps) const {
  StripePos pos = StripeOfSlot(ppn);
  pos.flat += steps;
  const std::uint64_t total =
      static_cast<std::uint64_t>(geo_.SlcUsableSlotsPerBlock()) * geo_.NumChips();
  if (pos.flat >= total) return std::nullopt;
  return SlotOfStripe(pos);
}

}  // namespace conzone
