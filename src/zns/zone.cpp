#include "zns/zone.hpp"

#include <string>

namespace conzone {

Status ZoneLimitsConfig::Validate() const {
  if (num_zones == 0) return Status::InvalidArgument("zones: need at least one zone");
  if (zone_size_bytes == 0) return Status::InvalidArgument("zones: zero zone size");
  if (zone_capacity_bytes == 0 || zone_capacity_bytes > zone_size_bytes) {
    return Status::InvalidArgument("zones: capacity must be in (0, size]");
  }
  if (max_open_zones == 0 || max_active_zones < max_open_zones) {
    return Status::InvalidArgument("zones: need max_active >= max_open >= 1");
  }
  return Status::Ok();
}

ZoneManager::ZoneManager(const ZoneLimitsConfig& config) : cfg_(config) {
  zones_.resize(cfg_.num_zones);
}

Status ZoneManager::CheckId(ZoneId zone) const {
  if (!zone.valid() || zone.value() >= zones_.size()) {
    return Status::OutOfRange("zone id " + std::to_string(zone.value()) +
                              " out of range");
  }
  return Status::Ok();
}

Status ZoneManager::EnsureOpenSlot() {
  if (open_ < cfg_.max_open_zones) return Status::Ok();
  // Implicitly close the least-indexed implicitly open zone, as real
  // controllers do when the host exceeds the open limit with implicit
  // opens.
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    if (zones_[i].state == ZoneState::kImplicitOpen) {
      zones_[i].state = ZoneState::kClosed;
      --open_;
      return Status::Ok();
    }
  }
  return Status::ResourceExhausted("all open-zone slots held by explicitly open zones");
}

Status ZoneManager::BeginWrite(ZoneId zone, std::uint64_t offset_in_zone,
                               std::uint64_t len) {
  if (Status st = CheckId(zone); !st.ok()) return st;
  ZoneInfo& z = zones_[static_cast<std::size_t>(zone.value())];
  if (z.state == ZoneState::kFull) {
    return Status::FailedPrecondition("write to FULL zone " + std::to_string(zone.value()));
  }
  if (len == 0) return Status::InvalidArgument("zero-length write");
  if (offset_in_zone != z.write_pointer) {
    return Status::InvalidArgument(
        "non-sequential write to zone " + std::to_string(zone.value()) + ": offset " +
        std::to_string(offset_in_zone) + " != wp " + std::to_string(z.write_pointer));
  }
  if (len > cfg_.zone_capacity_bytes || offset_in_zone > cfg_.zone_capacity_bytes - len) {
    return Status::OutOfRange("write beyond zone capacity");
  }

  if (z.state == ZoneState::kEmpty || z.state == ZoneState::kClosed) {
    const bool was_active = (z.state == ZoneState::kClosed);
    if (!was_active && active_ >= cfg_.max_active_zones) {
      return Status::ResourceExhausted("max active zones reached");
    }
    if (Status st = EnsureOpenSlot(); !st.ok()) return st;
    z.state = ZoneState::kImplicitOpen;
    ++open_;
    if (!was_active) ++active_;
  }

  z.write_pointer += len;
  if (z.write_pointer == cfg_.zone_capacity_bytes) {
    // Transition to FULL releases the open and active slots.
    --open_;
    --active_;
    z.state = ZoneState::kFull;
  }
  return Status::Ok();
}

Status ZoneManager::CheckRead(ZoneId zone, std::uint64_t offset_in_zone,
                              std::uint64_t len) const {
  if (Status st = CheckId(zone); !st.ok()) return st;
  const ZoneInfo& z = zones_[static_cast<std::size_t>(zone.value())];
  if (len == 0) return Status::InvalidArgument("zero-length read");
  if (len > z.write_pointer || offset_in_zone > z.write_pointer - len) {
    return Status::OutOfRange("read beyond write pointer of zone " +
                              std::to_string(zone.value()));
  }
  return Status::Ok();
}

Status ZoneManager::ExplicitOpen(ZoneId zone) {
  if (Status st = CheckId(zone); !st.ok()) return st;
  ZoneInfo& z = zones_[static_cast<std::size_t>(zone.value())];
  switch (z.state) {
    case ZoneState::kExplicitOpen:
      return Status::Ok();
    case ZoneState::kImplicitOpen:
      z.state = ZoneState::kExplicitOpen;
      return Status::Ok();
    case ZoneState::kEmpty:
    case ZoneState::kClosed: {
      const bool was_active = (z.state == ZoneState::kClosed);
      if (!was_active && active_ >= cfg_.max_active_zones) {
        return Status::ResourceExhausted("max active zones reached");
      }
      if (Status st = EnsureOpenSlot(); !st.ok()) return st;
      z.state = ZoneState::kExplicitOpen;
      ++open_;
      if (!was_active) ++active_;
      return Status::Ok();
    }
    case ZoneState::kFull:
      return Status::FailedPrecondition("cannot open FULL zone");
  }
  return Status::Internal("bad zone state");
}

Status ZoneManager::Close(ZoneId zone) {
  if (Status st = CheckId(zone); !st.ok()) return st;
  ZoneInfo& z = zones_[static_cast<std::size_t>(zone.value())];
  if (!IsOpen(z.state)) {
    return Status::FailedPrecondition("close of non-open zone " +
                                      std::to_string(zone.value()));
  }
  // A zone with no written data returns to EMPTY per the ZNS spec.
  if (z.write_pointer == 0) {
    z.state = ZoneState::kEmpty;
    --open_;
    --active_;
  } else {
    z.state = ZoneState::kClosed;
    --open_;
  }
  return Status::Ok();
}

Status ZoneManager::Finish(ZoneId zone) {
  if (Status st = CheckId(zone); !st.ok()) return st;
  ZoneInfo& z = zones_[static_cast<std::size_t>(zone.value())];
  if (z.state == ZoneState::kFull) return Status::Ok();
  if (IsOpen(z.state)) --open_;
  if (IsActive(z.state)) --active_;
  else if (z.state == ZoneState::kEmpty) {
    // Finishing an empty zone makes it FULL with wp pinned at capacity.
  }
  z.state = ZoneState::kFull;
  z.write_pointer = cfg_.zone_capacity_bytes;
  return Status::Ok();
}

Status ZoneManager::Reset(ZoneId zone) {
  if (Status st = CheckId(zone); !st.ok()) return st;
  ZoneInfo& z = zones_[static_cast<std::size_t>(zone.value())];
  if (IsOpen(z.state)) --open_;
  if (IsActive(z.state)) --active_;
  z.state = ZoneState::kEmpty;
  z.write_pointer = 0;
  z.resets++;
  return Status::Ok();
}

const ZoneInfo& ZoneManager::Info(ZoneId zone) const {
  return zones_[static_cast<std::size_t>(zone.value())];
}

void ZoneManager::RestoreAtMount(ZoneId zone, std::uint64_t write_pointer) {
  ZoneInfo& z = zones_[static_cast<std::size_t>(zone.value())];
  z.write_pointer = write_pointer;
  if (write_pointer == 0) {
    z.state = ZoneState::kEmpty;
  } else if (write_pointer >= cfg_.zone_capacity_bytes) {
    z.state = ZoneState::kFull;
  } else {
    z.state = ZoneState::kClosed;
  }
}

void ZoneManager::RecountAfterMount() {
  open_ = 0;
  active_ = 0;
  for (const ZoneInfo& z : zones_) {
    if (IsOpen(z.state)) ++open_;
    if (IsActive(z.state)) ++active_;
  }
}

}  // namespace conzone
