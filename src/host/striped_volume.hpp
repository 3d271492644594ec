// Host-side striped volume: one logical zoned (or conventional) address
// space over N member devices (DESIGN.md §6).
//
// The consumer stack the paper implies — a host striping I/O over
// several zoned devices — is modeled as a StorageDevice *composition*:
// a StripedVolume is itself a StorageDevice, so FioRunner, ZoneCache,
// benches and examples drive it unchanged.
//
// Geometry. Every logical zone is striped, `stripe_bytes` at a time,
// round-robin across all N members, and lives at the same zone index
// on each of them:
//
//   logical zone L  ->  member zone L on members 0 .. N-1
//
// so a logical zone is `N * member_zone_size` bytes.
//
// Routing. Writes and reads are split at stripe-unit boundaries and
// coalesced into at most one contiguous run per member, all submitted
// at the same simulated time: the members' internal resource timelines
// advance independently, which is exactly what makes them overlap.
// ResetZone and Flush fan out to every member; both complete at the
// max across members.
//
// Execution. The volume issues a request's member sub-requests one after
// another on the calling thread, in run order. Their overlap is modelled
// in simulated time, so host threads would not make one request faster
// (DESIGN.md §6). Every member sub-request of a request is issued — a
// failing member does not shield later members from their sub-IOs,
// mirroring a real host that already has all stripe legs in flight —
// and a failure reports the lowest-run-index error.
//
// Zone identity is typed at every boundary: the volume's own ZoneId
// values are *logical* zones, and member zones only travel as
// MemberZone{member, zone} — never as a raw index that could alias a
// logical id (the exact bug class PR 4's superblock fix came from).
//
// Conventional members (DeviceInfo::zone_size_bytes == 0) form a
// conventional volume: same striping over byte offsets, no zones, and
// ResetZone is refused by the volume itself — gated on DeviceInfo, the
// documented conventional signal, never on a member's error code.
// Zoned and conventional members cannot mix.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/storage_device.hpp"

namespace conzone {

/// A zone on one member device, as opposed to a logical zone of the
/// volume. Keeping the two in distinct types makes accidental
/// logical/member aliasing a compile error at the routing boundary.
struct MemberZone {
  std::uint32_t member = 0;  ///< Member index within the volume.
  ZoneId zone;               ///< Zone in the member's own zone space.

  bool operator==(const MemberZone&) const = default;
};

struct StripedVolumeOptions {
  /// Stripe unit: consecutive runs of this many bytes go to consecutive
  /// members. Must divide the member zone size and be a multiple of the
  /// members' I/O alignment.
  std::uint64_t stripe_bytes = 64 * 1024;
};

class StripedVolume final : public StorageDevice {
 public:
  /// Validates member geometry (uniform zonedness, zone size and
  /// alignment) and takes ownership.
  static Result<std::unique_ptr<StripedVolume>> Create(
      std::vector<std::unique_ptr<StorageDevice>> members,
      const StripedVolumeOptions& options = {});

  DeviceInfo info() const override;
  Result<IoResult> Write(const IoRequest& req) override;
  Result<IoResult> Read(const IoRequest& req) override;
  Result<SimTime> ResetZone(ZoneId zone, SimTime now) override;
  Result<SimTime> Flush(SimTime now) override;
  StatsSnapshot Stats() const override;
  ReliabilityStats Reliability() const override;
  RecoveryStats Recovery() const override;

  // --- Introspection (tests, tools) ---
  std::uint32_t num_members() const { return static_cast<std::uint32_t>(members_.size()); }
  std::uint64_t stripe_bytes() const { return stripe_; }
  StorageDevice& member(std::uint32_t i) { return *members_[i]; }
  const StorageDevice& member(std::uint32_t i) const { return *members_[i]; }

  /// The member zone that holds stripe lane `lane` (in [0, num_members()))
  /// of logical zone `logical`: member `lane`, zone `logical`. Zoned
  /// volumes only.
  MemberZone ToMemberZone(ZoneId logical, std::uint32_t lane) const;
  /// Inverse: the logical zone a member zone belongs to.
  ZoneId ToLogicalZone(const MemberZone& mz) const;

 private:
  /// One contiguous member-space run of a split request. A request
  /// touches each member in at most one run (stripe rows of one member
  /// are contiguous in its own address space).
  struct Run {
    std::uint32_t member;
    std::uint64_t offset;  ///< Member-space byte offset.
    std::uint64_t len;
  };

  StripedVolume(std::vector<std::unique_ptr<StorageDevice>> members,
                const StripedVolumeOptions& options, DeviceInfo member_info,
                std::uint32_t rows);

  /// Split `len` bytes at `rel` (zone-relative for zoned volumes,
  /// absolute for conventional) into per-member runs, ascending member
  /// order. `member_base` is the zone's start on every member.
  void Split(std::uint64_t rel, std::uint64_t len, std::uint64_t member_base);

  /// Validates bounds and (zoned) the zone-crossing rule. On success
  /// fills the member-space zone start and the zone-relative offset.
  Status Resolve(const IoRequest& req, std::uint64_t* member_base,
                 std::uint64_t* rel) const;

  std::vector<std::unique_ptr<StorageDevice>> members_;
  DeviceInfo member_info_;   ///< Common member geometry (name = first member's).
  std::uint64_t stripe_;     ///< Stripe unit bytes.
  std::uint32_t width_;      ///< Members = stripe lanes.
  std::uint32_t rows_;       ///< Member zones consumed per member (zoned).
  std::uint64_t zone_bytes_; ///< Logical zone size (zoned; 0 otherwise).
  std::uint64_t member_span_;///< Striped bytes used per member (conventional).
  std::uint64_t align_;      ///< I/O alignment = token granularity.

  // Per-request scratch, reused so the routing path is allocation-free
  // after warm-up (the volume never re-enters itself).
  std::vector<Run> runs_;
  std::vector<std::vector<std::uint64_t>> lane_tokens_;  ///< Gather/scatter.
};

}  // namespace conzone
