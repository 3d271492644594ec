// Host-side redundant volume: a zoned N-way mirror over N member
// devices, with degraded reads, an online scrub, and live member rebuild
// (DESIGN.md §8).
//
// StripedVolume (§6) scales capacity and bandwidth but dies with its
// weakest member: one failed or power-cut device makes the whole logical
// address space unreadable. RedundantVolume is the robustness
// counterpart — the btrfs scrub/replace story. Every member holds every
// logical zone: logical zone z is member zone z on each member, and
// every write goes to all members at the logical offset. Members must be
// zoned (no conventional zones): scrub and rebuild compare and copy
// write-pointer prefixes, which only append-only zones guarantee. The
// stripe unit is the granularity of scrub, rebuild and degraded-read
// accounting.
//
// Degraded reads. A member is excluded from service once it is latched
// failed — explicitly (MarkFailed), by a failed write leg, or because a
// replacement is rebuilding it. Reads that hit a failed/lagging member
// (media error, powered-off FailedPrecondition, write-pointer-regressed
// OutOfRange) fail over to the next replica. The request still
// succeeds, the per-IO IoResult::reconstructed_units signals it, and
// RedundancyStats aggregates it. kInvalidArgument/kInternal/kUnimplemented
// are volume bugs and propagate. The volume is offline once no member is
// active.
//
// Online scrub. StartScrub + Tick walk the volume stripe row by stripe
// row at a configured rows-per-tick pace, interleaved with foreground
// traffic by the caller: replicas are compared token for token, and a
// lagging member (its durable prefix ends inside the row — the signature
// of a survived power cut) is repaired by appending the missing slots at
// its write pointer.
// Repair authority is strictly the kActive members: a failed member may
// hold stale content (writes and zone resets issued while it was out of
// service never reached it), so its tokens never overwrite or extend an
// active replica's — content found only on non-active members is logged
// as a mismatch and blocks that member's readmission (ResetZone also
// best-effort-propagates to failed-but-online members so their zones do
// not go stale in the first place). Readable-but-divergent content
// cannot be rewritten in place (append-only media); it is counted and
// logged deterministically in scrub_log() instead.
//
// Live rebuild. ReplaceMember(i, fresh) swaps in a fresh device and
// rebuilds member i's content zone by zone, stripe row by stripe row,
// from its surviving replicas, while the volume keeps serving foreground
// traffic: writes land on the fresh member for zones already rebuilt
// and are recopied later for zones ahead of the cursor; reads treat the
// rebuilding member as absent. ReplaceMember refuses to evict the last
// active member — that would destroy the only good copy. Each Tick ends
// with a Flush of the fresh member, so a power cut at a tick boundary
// recovers to exactly the rebuilt prefix; a cut mid-tick regresses the
// fresh member to a durable row prefix and the next Tick resynchronizes
// by probing the readable prefix and continuing from there — never a
// torn row (the crash checker's prefix rule, lifted to the volume).
//
// Determinism. Member legs are issued one after another on the calling
// thread, in member order; replica selection and reconstruction orders
// are functions of the request alone, and scrub/rebuild advance in fixed
// cursor order — so same-seed reruns are bit-identical. Every leg of a
// request is issued even when an earlier one fails.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/storage_device.hpp"

namespace conzone {

enum class MemberState {
  kActive,      ///< Serving reads and writes.
  kFailed,      ///< Excluded from service; awaiting ReplaceMember.
  kRebuilding,  ///< Fresh device being filled; writes join per rebuilt zone.
};

struct RedundantVolumeOptions {
  /// Stripe unit: reconstruction, scrub and rebuild all advance in units
  /// of this many bytes. Must divide the member zone size and be a
  /// multiple of the members' I/O alignment.
  std::uint64_t stripe_bytes = 64 * 1024;
  /// Background quantum: stripe rows verified (scrub) or copied
  /// (rebuild) per Tick().
  std::uint32_t rows_per_tick = 8;
};

/// One deterministic scrub finding: replica disagreement that could not
/// be repaired in place (zoned media is append-only).
struct ScrubMismatch {
  ZoneId logical;        ///< Logical zone of the divergent row.
  std::uint32_t row;     ///< Stripe row index within the zone.
  std::uint32_t member;  ///< Divergent member.

  bool operator==(const ScrubMismatch&) const = default;
};

class RedundantVolume final : public StorageDevice {
 public:
  /// Validates member geometry (zoned, no conventional zones, uniform
  /// zone size and alignment) and takes ownership.
  static Result<std::unique_ptr<RedundantVolume>> Create(
      std::vector<std::unique_ptr<StorageDevice>> members,
      const RedundantVolumeOptions& options = {});

  DeviceInfo info() const override;
  Result<IoResult> Write(const IoRequest& req) override;
  Result<IoResult> Read(const IoRequest& req) override;
  Result<SimTime> ResetZone(ZoneId zone, SimTime now) override;
  Result<SimTime> Flush(SimTime now) override;
  StatsSnapshot Stats() const override;
  ReliabilityStats Reliability() const override;
  RecoveryStats Recovery() const override;

  /// Volume-level redundancy accounting (degraded service, scrub,
  /// rebuild). Member-level fault accounting stays in Reliability().
  const RedundancyStats& Redundancy() const { return red_; }

  // --- Member failure & replacement ---

  /// Latch member `i` failed: it receives no further I/O and reads are
  /// served degraded. Idempotent.
  Status MarkFailed(std::uint32_t i);

  /// Swap in a fresh device for member `i` (failed or not) and start a
  /// live rebuild. Some other member must be active (it is the rebuild
  /// source); the fresh device must match the member geometry and be
  /// empty; one rebuild at a time; an active scrub is cancelled. The
  /// old device is destroyed. Rebuild work advances via Tick().
  Status ReplaceMember(std::uint32_t i, std::unique_ptr<StorageDevice> fresh,
                       SimTime now);

  // --- Background work (scrub / rebuild), tick-scheduled ---

  /// Begin a full-volume scrub pass from zone 0. Fails if a rebuild is
  /// active or a scrub is already running.
  Status StartScrub(SimTime now);

  /// Advance the active background job (rebuild has priority over scrub)
  /// by `rows_per_tick` stripe rows and flush the members it wrote.
  /// Returns the simulated completion time of the work performed (== now
  /// when idle). A powered-off member surfaces as an error; recover it
  /// and call Tick again — the rebuild resynchronizes itself.
  Result<SimTime> Tick(SimTime now);

  bool scrub_active() const { return scrub_active_; }
  bool rebuild_active() const { return rebuild_member_ >= 0; }
  /// Member under rebuild (-1 when none).
  std::int32_t rebuild_member() const { return rebuild_member_; }
  /// Member zones fully rebuilt so far (== zones when done).
  std::uint32_t rebuild_zones_done() const { return rebuild_zone_; }

  /// Unrepairable divergences found by scrub, in deterministic walk
  /// order (capped; the scrub_mismatches counter keeps counting).
  const std::vector<ScrubMismatch>& scrub_log() const { return scrub_log_; }

  // --- Introspection (tests, tools) ---
  std::uint32_t num_members() const { return static_cast<std::uint32_t>(members_.size()); }
  std::uint64_t stripe_bytes() const { return stripe_; }
  StorageDevice& member(std::uint32_t i) { return *members_[i]; }
  const StorageDevice& member(std::uint32_t i) const { return *members_[i]; }
  MemberState member_state(std::uint32_t i) const { return state_[i]; }

 private:
  RedundantVolume(std::vector<std::unique_ptr<StorageDevice>> members,
                  const RedundantVolumeOptions& options, DeviceInfo member_info,
                  std::uint32_t rows);

  // --- Routing helpers ---
  /// Validate a request and resolve its logical zone.
  Status Resolve(const IoRequest& req, std::uint64_t* logical,
                 std::uint64_t* in_zone) const;
  /// True when `code` signals a failed/lagging member whose data the
  /// volume may reconstruct (vs a caller/volume bug that must propagate).
  static bool Reconstructable(StatusCode code);
  /// Latch a member failed (idempotent) and count it.
  void LatchFailed(std::uint32_t m);
  /// Outcome of one leg per member of target_scratch_.
  struct Legs {
    SimTime done;              ///< Latest completion of the legs that succeeded.
    std::size_t failed = 0;    ///< Legs that failed.
    Status first_err;          ///< Status of the lowest-index failed leg.
  };
  /// Issue `leg(m)` (returning Result<SimTime>) to every member m of
  /// target_scratch_, in order, and latch the members whose legs failed —
  /// unless every leg failed, which blames the request, not a member.
  template <class Leg>
  Legs IssueLegs(SimTime now, Leg&& leg);
  /// Reads are served only by fully-active members: a rebuilding member
  /// may hold holes until its completion verify sweep passes, so it never
  /// serves foreground reads.
  bool Readable(std::uint32_t m) const { return state_[m] == MemberState::kActive; }
  /// Writes include a rebuilding member once zone `zone` is behind the
  /// copy cursor, so rebuilt ground stays in sync with the peers.
  bool Writable(std::uint32_t m, std::uint64_t zone) const;

  /// Default token the volume materializes when the host writes without
  /// tokens, so replica comparison is well-defined across heterogeneous
  /// member types.
  std::uint64_t VolumeToken(std::uint64_t logical_page) const {
    return 0x9ED00000ull ^ logical_page;
  }

  // --- Background work bodies ---
  Result<SimTime> TickScrub(SimTime now);
  Result<SimTime> TickRebuild(SimTime now);
  /// Scrub one stripe row; sets *content to false when the row is beyond
  /// every member's durable content (zone exhausted).
  Result<SimTime> ScrubRow(std::uint64_t logical, std::uint64_t row, SimTime now,
                           bool* content);
  /// One copy step of phase 0 or 2: RebuildRow, and at the zone's
  /// content end (*zone_done) flush the fresh member and rewind the
  /// cursor and fail streak.
  Result<SimTime> CopyRow(SimTime now, bool* zone_done);
  /// Copy one stripe row of the zone under rebuild onto the fresh
  /// member; sets *content=false at the source's durable end.
  Result<SimTime> RebuildRow(SimTime now, bool* content);
  /// Completion verify sweep, one zone per call: compare the fresh
  /// member's durable prefix against the source's; on a shortfall (a
  /// power cut tore rebuilt ground) re-enter the copy phase at the hole.
  Result<SimTime> VerifyRebuildZone(SimTime now, bool* hole);
  /// Durable content of the rebuild source for zone `zr`, in slots: the
  /// longest prefix among the surviving replicas. Fails if a source
  /// member is offline (caller must Recover it).
  Status SourceZoneSlots(std::uint32_t zr, SimTime now, std::uint64_t* slots,
                         SimTime* done);
  /// Handle a failed append to the fresh member: offline propagates;
  /// otherwise escalate probe-resync → zone reset → Internal.
  Status FreshWriteFailed(Status leg, SimTime now, SimTime* done);
  /// Readable 4 KiB slots of `m` in [base, base+span), probed slot by
  /// slot from `base` (the prefix property makes this the write pointer).
  std::uint64_t ProbePrefix(std::uint32_t m, std::uint64_t base,
                            std::uint64_t span, SimTime now, SimTime* done);
  void RecordMismatch(std::uint64_t logical, std::uint64_t row, std::uint32_t m);

  std::vector<std::unique_ptr<StorageDevice>> members_;
  std::vector<MemberState> state_;
  DeviceInfo member_info_;  ///< Common member geometry (name = first member's).
  std::uint64_t stripe_;      ///< Stripe unit bytes.
  std::uint32_t rows_;        ///< Zones per member = logical zones.
  std::uint64_t zone_bytes_;  ///< Zone size (logical = member).
  std::uint64_t align_;       ///< I/O alignment = token granularity.
  std::uint32_t rows_per_tick_;  ///< Background quantum (stripe rows / Tick).

  RedundancyStats red_;
  std::vector<ScrubMismatch> scrub_log_;
  static constexpr std::size_t kScrubLogCap = 4096;

  // Scrub cursor (logical zone, stripe row) — valid while scrub_active_.
  bool scrub_active_ = false;
  std::uint64_t scrub_zone_ = 0;
  std::uint64_t scrub_row_ = 0;
  /// Per-member per-pass verdict: 1 while every row of this pass agreed
  /// with (or was repaired onto) the member. A failed member that ends a
  /// pass clean — and no foreground write dirtied scrubbed ground — is
  /// readmitted to kActive.
  std::vector<std::uint8_t> scrub_clean_;
  /// A foreground write/reset landed at or behind the scrub cursor, so
  /// "pass was clean" no longer implies "member is in sync".
  bool scrub_dirty_ = false;

  // Rebuild cursor — valid while rebuild_member_ >= 0: member zone index
  // + byte offset inside it. Phases: 0 = copy (cursor rebuild_zone_/
  // rebuild_off_), 1 = verify sweep (cursor rebuild_verify_zone_), 2 =
  // re-copying a hole the verify found (zone rebuild_verify_zone_,
  // offset rebuild_off_).
  std::int32_t rebuild_member_ = -1;
  std::uint8_t rebuild_phase_ = 0;
  std::uint32_t rebuild_zone_ = 0;
  std::uint32_t rebuild_verify_zone_ = 0;
  std::uint64_t rebuild_off_ = 0;
  /// Consecutive failed appends to the fresh member: 1 → probe-resync
  /// the cursor to its durable prefix (the post-power-cut path), 2 →
  /// reset the member zone and restart it, 3 → give up (Internal).
  std::uint32_t rebuild_fail_streak_ = 0;

  // Per-request scratch, reused so the routing path stays allocation-
  // free after warm-up (the volume never re-enters itself).
  std::vector<std::uint64_t> token_scratch_;  ///< Materialized write tokens.
  std::vector<std::uint32_t> target_scratch_;  ///< Members served by this request.
  std::vector<std::uint32_t> failed_scratch_;  ///< IssueLegs: members whose leg failed.
};

}  // namespace conzone
