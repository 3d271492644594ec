#include "flash/geometry.hpp"

#include <string>

namespace conzone {

Status FlashGeometry::Validate() const {
  if (channels == 0 || chips_per_channel == 0) {
    return Status::InvalidArgument("geometry: need at least one channel and chip");
  }
  if (blocks_per_chip == 0 || pages_per_block == 0) {
    return Status::InvalidArgument("geometry: need at least one block and page");
  }
  if (slc_blocks_per_chip >= blocks_per_chip) {
    return Status::InvalidArgument(
        "geometry: SLC region must leave room for normal blocks");
  }
  if (page_size == 0 || slot_size == 0 || page_size % slot_size != 0) {
    return Status::InvalidArgument("geometry: page_size must be a multiple of slot_size");
  }
  // NumChips() multiplies in 32 bits and TotalSlots() in 64: a product
  // that wraps would size the device to a fraction of its geometry.
  std::uint32_t chips = 0;
  std::uint64_t blocks = 0;
  std::uint64_t pages = 0;
  std::uint64_t slots = 0;
  if (__builtin_mul_overflow(channels, chips_per_channel, &chips) ||
      __builtin_mul_overflow(static_cast<std::uint64_t>(chips), blocks_per_chip, &blocks) ||
      __builtin_mul_overflow(blocks, pages_per_block, &pages) ||
      __builtin_mul_overflow(pages, page_size / slot_size, &slots) ||
      slots >= kMaxSlots) {
    return Status::InvalidArgument("geometry: chip, block or slot count too large");
  }
  if (normal_cell == CellType::kSlc) {
    return Status::InvalidArgument("geometry: normal region cannot be SLC");
  }
  if (program_unit == 0 || program_unit % page_size != 0) {
    return Status::InvalidArgument(
        "geometry: program_unit must be a whole number of flash pages");
  }
  if (pages_per_block % PagesPerProgramUnit() != 0) {
    return Status::InvalidArgument(
        "geometry: pages_per_block=" + std::to_string(pages_per_block) +
        " not divisible by pages per program unit=" +
        std::to_string(PagesPerProgramUnit()));
  }
  if (pages_per_block % BitsPerCell(normal_cell) != 0) {
    return Status::InvalidArgument(
        "geometry: pages_per_block must divide evenly in SLC mode");
  }
  return Status::Ok();
}

}  // namespace conzone
