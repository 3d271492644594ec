// Physical geometry of the emulated flash array.
//
// Topology (paper §II-A, §IV-A): `channels` buses, each with
// `chips_per_channel` dies. Every chip holds `blocks_per_chip` blocks of
// `pages_per_block` 16 KiB flash pages. The first `slc_blocks_per_chip`
// blocks of each chip are programmed in SLC mode (§III-B); the rest are
// the "normal" multi-level region (TLC/QLC).
//
// Derived structures:
//   - superblock s  = the blocks with in-chip index s across all chips;
//   - superpage     = the program units with the same offset across chips;
//   - slot          = a 4 KiB sub-page, the FTL mapping granularity and
//                     the SLC partial-programming unit.
//
// A block programmed as SLC stores 1/BitsPerCell(normal_cell) of its
// multi-level capacity; only its first `SlcUsablePagesPerBlock()` pages
// are usable.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "flash/cell.hpp"

namespace conzone {

struct FlashGeometry {
  /// Validate() rejects a slot count at or above this. FlashArray and
  /// MappingTable store a ppn or lpn + 1 in the low 62 bits of a word.
  static constexpr std::uint64_t kMaxSlots = (std::uint64_t{1} << 62) - 1;

  std::uint32_t channels = 2;
  std::uint32_t chips_per_channel = 2;
  std::uint32_t blocks_per_chip = 108;
  std::uint32_t slc_blocks_per_chip = 12;
  std::uint32_t pages_per_block = 252;
  std::uint64_t page_size = 16 * kKiB;
  std::uint64_t slot_size = 4 * kKiB;
  /// Cell type of the normal (non-SLC) region.
  CellType normal_cell = CellType::kTlc;
  /// One-shot programming unit of the normal region, per chip (§IV-A:
  /// 96 KiB for the TLC configuration; §III-B mentions 64 KiB for QLC).
  std::uint64_t program_unit = 96 * kKiB;

  // --- Topology ---
  std::uint32_t NumChips() const { return channels * chips_per_channel; }
  ChannelId ChannelOfChip(ChipId chip) const {
    return ChannelId(chip.value() / chips_per_channel);
  }

  // --- Blocks ---
  std::uint64_t TotalBlocks() const {
    return static_cast<std::uint64_t>(NumChips()) * blocks_per_chip;
  }
  BlockId BlockAt(ChipId chip, std::uint32_t index_in_chip) const {
    return BlockId(chip.value() * blocks_per_chip + index_in_chip);
  }
  ChipId ChipOfBlock(BlockId b) const { return ChipId(b.value() / blocks_per_chip); }
  std::uint32_t BlockIndexInChip(BlockId b) const {
    return static_cast<std::uint32_t>(b.value() % blocks_per_chip);
  }
  bool IsSlcBlock(BlockId b) const {
    return BlockIndexInChip(b) < slc_blocks_per_chip;
  }
  CellType CellOfBlock(BlockId b) const {
    return IsSlcBlock(b) ? CellType::kSlc : normal_cell;
  }

  // --- Superblocks (rows of blocks across chips) ---
  std::uint32_t NumSuperblocks() const { return blocks_per_chip; }
  std::uint32_t NumSlcSuperblocks() const { return slc_blocks_per_chip; }
  std::uint32_t NumNormalSuperblocks() const {
    return blocks_per_chip - slc_blocks_per_chip;
  }
  bool IsSlcSuperblock(SuperblockId s) const {
    return s.value() < slc_blocks_per_chip;
  }
  BlockId BlockOfSuperblock(SuperblockId s, ChipId chip) const {
    return BlockAt(chip, static_cast<std::uint32_t>(s.value()));
  }
  SuperblockId SuperblockOfBlock(BlockId b) const {
    return SuperblockId(BlockIndexInChip(b));
  }

  // --- Pages and slots ---
  std::uint32_t SlotsPerPage() const {
    return static_cast<std::uint32_t>(page_size / slot_size);
  }
  std::uint64_t TotalFlashPages() const { return TotalBlocks() * pages_per_block; }
  std::uint64_t TotalSlots() const { return TotalFlashPages() * SlotsPerPage(); }
  FlashPageId PageAt(BlockId b, std::uint32_t page_in_block) const {
    return FlashPageId(b.value() * pages_per_block + page_in_block);
  }
  BlockId BlockOfPage(FlashPageId p) const { return BlockId(p.value() / pages_per_block); }
  std::uint32_t PageIndexInBlock(FlashPageId p) const {
    return static_cast<std::uint32_t>(p.value() % pages_per_block);
  }
  Ppn SlotAt(FlashPageId p, std::uint32_t slot_in_page) const {
    return Ppn(p.value() * SlotsPerPage() + slot_in_page);
  }
  FlashPageId PageOfSlot(Ppn s) const { return FlashPageId(s.value() / SlotsPerPage()); }
  std::uint32_t SlotIndexInPage(Ppn s) const {
    return static_cast<std::uint32_t>(s.value() % SlotsPerPage());
  }
  BlockId BlockOfSlot(Ppn s) const { return BlockOfPage(PageOfSlot(s)); }
  ChipId ChipOfSlot(Ppn s) const { return ChipOfBlock(BlockOfSlot(s)); }
  std::uint32_t SlotIndexInBlock(Ppn s) const {
    return static_cast<std::uint32_t>(s.value() %
                                      (static_cast<std::uint64_t>(pages_per_block) * SlotsPerPage()));
  }

  // --- Program units ---
  std::uint32_t PagesPerProgramUnit() const {
    return static_cast<std::uint32_t>(program_unit / page_size);
  }
  std::uint32_t UnitsPerBlock() const {
    return pages_per_block / PagesPerProgramUnit();
  }
  /// Superpage = one program unit per chip (§II-A): the flush granularity
  /// that exploits full device parallelism.
  std::uint64_t SuperpageBytes() const {
    return program_unit * NumChips();
  }

  // --- SLC capacity ---
  std::uint32_t SlcUsablePagesPerBlock() const {
    return pages_per_block / BitsPerCell(normal_cell);
  }
  std::uint32_t SlcUsableSlotsPerBlock() const {
    return SlcUsablePagesPerBlock() * SlotsPerPage();
  }
  std::uint64_t SlcUsableBytesPerSuperblock() const {
    return static_cast<std::uint64_t>(SlcUsablePagesPerBlock()) * page_size * NumChips();
  }

  // --- Normal-region capacity ---
  std::uint64_t BlockDataBytes() const {
    return static_cast<std::uint64_t>(pages_per_block) * page_size;
  }
  std::uint64_t NormalSuperblockBytes() const {
    return BlockDataBytes() * NumChips();
  }
  std::uint64_t NormalRegionBytes() const {
    return NormalSuperblockBytes() * NumNormalSuperblocks();
  }

  /// Validate internal consistency; every device constructor calls this.
  Status Validate() const;
};

}  // namespace conzone
