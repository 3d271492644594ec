// Reserved physical layout of zones (paper §III-B, Fig. 3).
//
// ConZone reserves a fixed run of normal-region superblocks for every
// zone ("square-patterned blocks in Fig. 3") so that data residing in the
// normal flash area is always physically contiguous *in layout order*:
// the physical address of any byte can be computed from its logical
// offset within the zone. Layout order stripes one-shot program units
// across the chips — unit u of a zone goes to chip (u mod chips), row
// (u div chips) — which is what lets a superpage flush program all chips
// in parallel.
//
// When the host-visible zone size exceeds the reserved superblocks' data
// capacity (TLC's non-power-of-two problem, §III-E), the tail of the zone
// — the *patch region* — is written to SLC pages instead; the layout
// exposes the boundary so the write path and the aggregation checks can
// treat the two parts correctly.
#pragma once

#include <cstdint>
#include <optional>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "flash/geometry.hpp"

namespace conzone {

class ZoneLayout {
 public:
  /// Each zone reserves the most normal superblocks whose data capacity
  /// fits in it; fewer would put a superblock or more of data into its
  /// SLC patch. `reserve_offset_superblocks` normal superblocks are
  /// skipped before zone 0's reservation (they back the conventional-zone
  /// pool).
  ZoneLayout(const FlashGeometry& geometry, std::uint64_t zone_size_bytes,
             std::uint32_t reserve_offset_superblocks = 0);

  Status Validate() const;

  std::uint32_t num_zones() const { return num_zones_; }
  /// Bytes of a zone that live in its reserved normal superblocks.
  std::uint64_t normal_bytes() const { return normal_bytes_; }
  /// Bytes of a zone patched into SLC (zone_bytes - normal_bytes).
  std::uint64_t patch_bytes() const { return zone_bytes_ - normal_bytes_; }

  std::uint64_t device_capacity() const {
    return zone_bytes_ * num_zones_;
  }

  /// Normal superblocks reserved per zone.
  std::uint64_t superblocks_per_zone() const { return sbs_per_zone_; }
  /// k-th reserved superblock of `zone` (k < superblocks_per_zone()).
  SuperblockId SuperblockOfZone(ZoneId zone, std::uint64_t k) const;

  /// Program units per zone in the normal region.
  std::uint64_t UnitsPerZone() const { return normal_bytes_ / geo_.program_unit; }

  struct UnitLoc {
    BlockId block;
    ChipId chip;
    std::uint32_t first_page_in_block = 0;
  };
  /// Location of program unit `unit_index` of `zone` (layout order).
  UnitLoc UnitAt(ZoneId zone, std::uint64_t unit_index) const;

  /// Physical slot of zone-relative byte `offset` (< normal_bytes()).
  Ppn NormalSlot(ZoneId zone, std::uint64_t offset) const;

  // --- SLC stripe arithmetic (for contiguous patch runs, §III-E) ---
  /// Position of a slot in the SLC page-fill stripe order (must match
  /// SlcAllocator's allocation order).
  struct StripePos {
    SuperblockId sb;
    std::uint64_t flat = 0;
  };
  StripePos StripeOfSlot(Ppn ppn) const;
  Ppn SlotOfStripe(const StripePos& pos) const;
  /// Slot `steps` positions after `ppn` in stripe order; nullopt when the
  /// walk would leave the superblock (contiguity broken).
  std::optional<Ppn> StripeAdvance(Ppn ppn, std::uint64_t steps) const;

  const FlashGeometry& geometry() const { return geo_; }

 private:
  FlashGeometry geo_;
  std::uint64_t zone_bytes_;
  std::uint64_t sbs_per_zone_;
  std::uint32_t reserve_offset_;
  std::uint64_t normal_bytes_;
  std::uint32_t num_zones_;
  // Reciprocals of the geometry constants used by the per-IO address
  // arithmetic (UnitAt / NormalSlot sit on the read hot path through
  // aggregated-entry resolution).
  FastDiv div_chips_;
  FastDiv div_units_per_block_;
  FastDiv div_program_unit_;
  FastDiv div_page_size_;
  FastDiv div_slot_size_;
  std::uint32_t pages_per_unit_ = 0;  ///< geo_.PagesPerProgramUnit()
};

}  // namespace conzone
