// What the striped and mirrored volumes (DESIGN.md §6, §8) check and
// fold across their members: the shared geometry rule, the zone-limit
// fold and the summed counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "core/storage_device.hpp"

namespace conzone {

using Members = std::vector<std::unique_ptr<StorageDevice>>;

/// A device may join (or replace a member of) a volume whose first member
/// is `first` when it has the same I/O alignment and zonedness and, if
/// zoned, the same zone size and no conventional zones.
inline Status CheckMemberGeometry(const DeviceInfo& di, const DeviceInfo& first) {
  if (di.io_alignment != first.io_alignment) {
    return Status::InvalidArgument("members disagree on I/O alignment");
  }
  if (di.zoned() != first.zoned()) {
    return Status::InvalidArgument(
        "cannot mix zoned and conventional members in one volume");
  }
  if (di.zoned() && di.zone_size_bytes != first.zone_size_bytes) {
    return Status::InvalidArgument("members disagree on zone size");
  }
  if (di.zoned() && di.num_conventional_zones != 0) {
    return Status::InvalidArgument("members with conventional zones are not supported");
  }
  return Status::Ok();
}

/// Opening a logical zone opens one member zone on every member, so the
/// volume's guaranteed open and active limits are the weakest member's
/// (0 = unlimited; any limited member caps the volume).
inline void FoldZoneLimits(const Members& members, DeviceInfo* di) {
  const auto weakest = [](std::uint32_t acc, std::uint32_t limit) {
    return limit == 0 ? acc : acc == 0 ? limit : std::min(acc, limit);
  };
  for (const auto& m : members) {
    const DeviceInfo mi = m->info();
    di->max_open_zones = weakest(di->max_open_zones, mi.max_open_zones);
    di->max_active_zones = weakest(di->max_active_zones, mi.max_active_zones);
  }
}

/// One counter set summed over every member, e.g.
/// `SumOverMembers(members, &StorageDevice::Stats)`.
template <class Counters>
Counters SumOverMembers(const Members& members, Counters (StorageDevice::*get)() const) {
  Counters sum;
  for (const auto& m : members) sum.Merge((*m.*get)());
  return sum;
}

}  // namespace conzone
