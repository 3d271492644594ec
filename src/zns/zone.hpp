// Host-visible zone model (zoned-namespace semantics).
//
// ConZone exposes the storage as a zoned block device: writes inside a
// zone must land exactly at the zone's write pointer, a full zone rejects
// writes until the host resets it, and the number of simultaneously open
// / active zones is bounded (F2FS keeps up to 6 zones open, §II-B). The
// state machine is the standard ZNS one, minus the states that need
// power-loss handling:
//
//            Reset                    write @ wp
//   EMPTY ----------> (stays EMPTY) -------------> IMPLICIT_OPEN
//   IMPLICIT_OPEN/EXPLICIT_OPEN --Close--> CLOSED --write--> IMPLICIT_OPEN
//   any open/closed --Finish or wp==capacity--> FULL --Reset--> EMPTY
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"

namespace conzone {

enum class ZoneState : std::uint8_t {
  kEmpty = 0,
  kImplicitOpen,
  kExplicitOpen,
  kClosed,
  kFull,
};

struct ZoneLimitsConfig {
  std::uint64_t zone_size_bytes = 0;      ///< LBA-space span of one zone.
  std::uint64_t zone_capacity_bytes = 0;  ///< Writable bytes (<= size).
  std::uint32_t num_zones = 0;
  std::uint32_t max_open_zones = 6;
  std::uint32_t max_active_zones = 12;

  Status Validate() const;
};

struct ZoneInfo {
  ZoneState state = ZoneState::kEmpty;
  std::uint64_t write_pointer = 0;  ///< Byte offset within the zone.
  std::uint64_t resets = 0;
};

class ZoneManager {
 public:
  explicit ZoneManager(const ZoneLimitsConfig& config);

  const ZoneLimitsConfig& config() const { return cfg_; }

  /// Validate and account a write of `len` bytes at byte `offset_in_zone`.
  /// Must start exactly at the write pointer and fit the capacity;
  /// implicitly opens the zone (honoring open/active limits) and
  /// transitions to FULL when the capacity is reached.
  Status BeginWrite(ZoneId zone, std::uint64_t offset_in_zone, std::uint64_t len);

  /// Validate a read: [offset, offset+len) must lie below the write
  /// pointer (reading unwritten space is an error in ConZone, as in
  /// NVMeVirt's ZNS mode).
  Status CheckRead(ZoneId zone, std::uint64_t offset_in_zone, std::uint64_t len) const;

  Status ExplicitOpen(ZoneId zone);
  Status Close(ZoneId zone);
  Status Finish(ZoneId zone);
  Status Reset(ZoneId zone);

  const ZoneInfo& Info(ZoneId zone) const;
  std::uint32_t open_count() const { return open_; }
  std::uint32_t active_count() const { return active_; }

  /// All zones, for zone-report style listings.
  const std::vector<ZoneInfo>& zones() const { return zones_; }

  // --- Power-loss remount ---
  //
  // After a cut, open/closed distinctions are gone (they lived in
  // volatile controller state); zones come back EMPTY, CLOSED or FULL
  // from the durable write pointer alone, as ZNS mandates after an
  // unexpected power off.

  /// Overwrite one zone's host-visible state from the write pointer the
  /// recovery scan reconciled. Keeps the reset counter.
  void RestoreAtMount(ZoneId zone, std::uint64_t write_pointer);

  /// Recompute the open/active accounting after a batch of
  /// RestoreAtMount calls. Active zones may transiently exceed
  /// max_active_zones at mount; BeginWrite enforces the limit for any
  /// zone opened afterwards.
  void RecountAfterMount();

 private:
  Status CheckId(ZoneId zone) const;
  bool IsOpen(ZoneState s) const {
    return s == ZoneState::kImplicitOpen || s == ZoneState::kExplicitOpen;
  }
  bool IsActive(ZoneState s) const { return IsOpen(s) || s == ZoneState::kClosed; }
  /// Make room for opening one more zone, closing an implicitly open zone
  /// if allowed. Fails when limits are pinned by explicitly open zones.
  Status EnsureOpenSlot();

  ZoneLimitsConfig cfg_;
  std::vector<ZoneInfo> zones_;
  std::uint32_t open_ = 0;
  std::uint32_t active_ = 0;
};

}  // namespace conzone
