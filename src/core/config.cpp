#include "core/config.hpp"

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "core/zone_layout.hpp"

namespace conzone {

std::uint64_t ConZoneConfig::ConventionalSuperblocks() const {
  if (num_conventional_zones == 0) return 0;
  // 128-bit: the zone bytes of a 32-bit zone count can pass 2^64.
  const unsigned __int128 bytes =
      static_cast<unsigned __int128>(num_conventional_zones) * zone_size_bytes;
  const std::uint64_t sb_bytes = geometry.NormalSuperblockBytes();
  const unsigned __int128 needed = (bytes + sb_bytes - 1) / sb_bytes + 2;  // GC headroom
  return needed > UINT64_MAX ? UINT64_MAX : static_cast<std::uint64_t>(needed);
}

Status ConZoneConfig::Validate() const {
  if (Status st = geometry.Validate(); !st.ok()) return st;
  if (Status st = buffers.Validate(geometry.slot_size); !st.ok()) return st;
  if (Status st = l2p_log.Validate(); !st.ok()) return st;
  if (Status st = checkpoint.Validate(); !st.ok()) return st;
  if (checkpoint.enabled && !l2p_log.enabled) {
    return Status::InvalidArgument(
        "config: checkpointing requires the L2P log (interval counts "
        "flushed log entries)");
  }
  if (Status st = fault.Validate(); !st.ok()) return st;
  const std::uint64_t conv_sbs = ConventionalSuperblocks();
  ZoneLayout layout(geometry, zone_size_bytes,
                    static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(conv_sbs, geometry.NumNormalSuperblocks())));
  if (conv_sbs > geometry.NumNormalSuperblocks() ||
      geometry.NumNormalSuperblocks() - conv_sbs < layout.superblocks_per_zone()) {
    return Status::InvalidArgument(
        "config: conventional pool leaves no room for a sequential zone");
  }
  if (Status st = layout.Validate(); !st.ok()) return st;
  if (layout.patch_bytes() % geometry.slot_size != 0) {
    return Status::InvalidArgument("config: patch region must be slot-aligned");
  }
  if (zone_size_bytes % (static_cast<std::uint64_t>(lpns_per_chunk) * geometry.slot_size) !=
      0) {
    return Status::InvalidArgument("config: zone size must be a whole number of chunks");
  }
  if (max_open_zones == 0 || max_active_zones < max_open_zones) {
    return Status::InvalidArgument("config: need max_active >= max_open >= 1");
  }
  return Status::Ok();
}

ConZoneConfig ConZoneConfig::PaperConfig() {
  // Defaults already encode §IV-A: TLC normal region, 2 channels x 2
  // chips, 252-page blocks => 15.75 MiB natural superblock capacity,
  // 16 MiB host-visible zones with a 256 KiB SLC patch, 96 KiB program
  // unit, two 384 KiB write buffers, 12 KiB L2P cache, 3200 MiB/s
  // channels, 1.5 GB flash.
  return ConZoneConfig{};
}

ConZoneConfig ConZoneConfig::ForShard(std::uint32_t shard_id,
                                      std::uint64_t master_seed) const {
  ConZoneConfig out = *this;
  if (shard_id == 0) return out;  // identity: 1-shard == single-device
  out.fault.seed = MixSeeds(out.fault.seed, master_seed, shard_id);
  return out;
}

}  // namespace conzone
