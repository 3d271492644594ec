// Strongly typed identifiers for the address spaces in the emulator.
//
// The paper distinguishes many granularities of address:
//   - host byte offsets (LBAs in the request layer),
//   - logical pages (LPA, 4 KiB — the FTL mapping granularity),
//   - logical chunks (LCA, 1024 LPAs = 4 MiB) and logical zones (LZA),
//   - flash pages (16 KiB physical pages),
//   - physical 4 KiB slots (PPA) — a flash page holds 4 of them,
//   - blocks, superblocks, chips, channels, zones, write buffers.
// Mixing these up is the classic FTL bug, so each gets its own type.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>

namespace conzone {

template <class Tag>
class Id {
 public:
  using rep = std::uint64_t;
  static constexpr rep kInvalidValue = std::numeric_limits<rep>::max();

  constexpr Id() = default;
  constexpr explicit Id(rep v) : v_(v) {}

  static constexpr Id Invalid() { return Id(); }
  constexpr bool valid() const { return v_ != kInvalidValue; }
  constexpr rep value() const { return v_; }

  constexpr auto operator<=>(const Id&) const = default;

  /// Successor id — useful when iterating dense id ranges.
  constexpr Id next() const { return Id(v_ + 1); }

 private:
  rep v_ = kInvalidValue;
};

// Logical address spaces (host-visible).
using Lpn = Id<struct LpnTag>;        ///< Logical page number, 4 KiB units.
using ZoneId = Id<struct ZoneTag>;    ///< Logical zone.

// Physical address spaces (media-side).
using Ppn = Id<struct PpnTag>;  ///< Physical 4 KiB slot number, device-flat.
using FlashPageId = Id<struct FlashPageTag>;  ///< Physical 16 KiB flash page, device-flat.
using BlockId = Id<struct BlockTag>;          ///< Physical flash block, device-flat.
using SuperblockId = Id<struct SuperblockTag>;  ///< Row of blocks across all chips.

// Topology.
using ChannelId = Id<struct ChannelTag>;
using ChipId = Id<struct ChipTag>;  ///< Device-flat chip index.

// Device resources.
using WriteBufferId = Id<struct WriteBufferTag>;

}  // namespace conzone

namespace std {
template <class Tag>
struct hash<conzone::Id<Tag>> {
  size_t operator()(const conzone::Id<Tag>& id) const noexcept {
    return std::hash<std::uint64_t>()(id.value());
  }
};
}  // namespace std
