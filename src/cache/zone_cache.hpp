// ZoneCache — a log-structured, zone-aware flash cache on the logical
// zoned address space (DESIGN.md §14).
//
// The cache layers on any StorageDevice (bare ConZone device,
// StripedVolume, RedundantVolume): an in-memory key→(zone,slot,len)
// index, admission into per-group open zones (group = hotness/stream
// class so co-placed entries expire together), and eviction by whole-
// zone reset — pick the closed zone with the fewest live slots, migrate
// entries that earned a hit to a dedicated migration stream, drop the
// rest, reset the zone. A persistent index journal (ping-pong snapshot
// epochs in the conventional zones, or two dedicated sequential zones
// when the device has none) lets Mount() rebuild the index after a
// power cut; every recovered entry is verified against media before it
// is trusted.
//
// Crash contract: a remounted cache may have lost recently acknowledged
// puts, reverted a key to an older acknowledged value, or resurrected a
// recently deleted key — it never serves wrong bytes. ZoneCacheFsck
// proves the structural half of that contract offline.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "core/storage_device.hpp"

namespace conzone {

struct ZoneCacheOptions {
  /// Host-visible placement groups (hotness/stream classes). Group g of
  /// a Put must be < num_groups; eviction migration uses one extra
  /// internal stream, so the cache keeps num_groups+1 zones open at
  /// peak — keep this under the device's open-zone budget.
  std::uint32_t num_groups = 2;
  /// Eviction triggers when the free-zone pool would drop below this.
  /// Must be >= 1 so a migration target zone can always be opened
  /// mid-eviction.
  std::uint32_t reserve_free_zones = 2;
  /// Journal + device flush cadence in Puts (0 = flush on every Put).
  /// Between flushes, acknowledged puts may be lost by a power cut —
  /// allowed by the crash contract.
  std::uint64_t sync_every_puts = 64;
};

struct ZoneCacheStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t admitted_slots = 0;   ///< Header+value slots written by puts.
  std::uint64_t evictions = 0;        ///< Zones reclaimed by reset.
  std::uint64_t migrated_entries = 0;
  std::uint64_t migrated_slots = 0;
  std::uint64_t dropped_entries = 0;  ///< Evicted without migration.
  std::uint64_t journal_records = 0;
  std::uint64_t journal_snapshots = 0;
  std::uint64_t syncs = 0;
  // Mount-side counters (set by the Mount() that created this cache).
  std::uint64_t mount_replayed = 0;   ///< Valid journal records replayed.
  std::uint64_t mount_entries = 0;    ///< Entries surviving media verify.
  std::uint64_t mount_dropped = 0;    ///< Replayed entries that failed verify.

  double HitRatio() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
  }
};

class ZoneCache {
 public:
  /// One cached object as the index sees it (introspection for fsck and
  /// tests; `slot` is the header slot, the value occupies
  /// [slot+1, slot+1+value_slots) of the same zone).
  struct EntryView {
    std::uint64_t key = 0;
    std::uint32_t zone = 0;
    std::uint32_t slot = 0;
    std::uint32_t value_slots = 0;
    std::uint32_t group = 0;
    std::uint64_t seq = 0;  ///< Journal seq of the admitting record.
  };

  struct GetResult {
    bool hit = false;
    SimTime done;
    std::vector<std::uint64_t> tokens;  ///< Value tokens on a hit.
  };

  /// Mount a cache on `dev`: replay the journal, verify every candidate
  /// entry against media (unverifiable entries are dropped, counted in
  /// stats().mount_dropped), seal recovered data zones, and reset
  /// entry-free ones into the free pool. On a fresh device this formats
  /// the journal and starts empty.
  static Result<std::unique_ptr<ZoneCache>> Mount(StorageDevice* dev,
                                                  const ZoneCacheOptions& options,
                                                  SimTime now);

  /// Look `key` up; on a hit reads the value pages and returns their
  /// tokens. A miss is not an error (hit=false).
  Result<GetResult> Get(std::uint64_t key, SimTime now);

  /// Admit (or overwrite) `key` with one token per 4 KiB value page
  /// into placement group `group`. May evict (reset) a zone to make
  /// room. Returns the completion time of the slowest I/O issued.
  Result<SimTime> Put(std::uint64_t key, std::uint32_t group,
                      std::span<const std::uint64_t> value_tokens, SimTime now);

  /// Drop `key` if present (journaled, so the drop survives remount).
  Result<SimTime> Delete(std::uint64_t key, SimTime now);

  /// Flush the journal and device write buffers; after Sync returns,
  /// every acknowledged put is remount-durable.
  Result<SimTime> Sync(SimTime now);

  const ZoneCacheStats& stats() const { return stats_; }

  // --- Introspection (fsck, tests) ---
  /// Index snapshot sorted by key — deterministic for fingerprinting.
  std::vector<EntryView> IndexSnapshot() const;
  std::uint64_t LiveSlotsOfZone(std::uint32_t zone) const;
  bool IsDataZone(std::uint32_t zone) const;
  std::uint64_t entries() const { return index_.size(); }
  std::uint64_t max_entries() const { return max_entries_; }
  std::uint32_t num_data_zones() const;
  std::uint32_t free_data_zones() const;
  std::uint64_t slot_bytes() const { return slot_; }
  std::uint64_t zone_slots() const { return zone_slots_; }
  StorageDevice* device() const { return dev_; }

  /// Expected header-page token for an entry: what Put programs and
  /// what mount/fsck recompute from the value pages read off media.
  static std::uint64_t HeaderToken(std::uint64_t key, std::uint32_t value_slots,
                                   std::span<const std::uint64_t> value_tokens);

 private:
  struct Entry {
    std::uint32_t zone = 0;
    std::uint32_t slot = 0;
    std::uint32_t value_slots = 0;
    std::uint32_t group = 0;
    std::uint32_t hits = 0;
    std::uint64_t seq = 0;
  };

  enum class ZoneState : std::uint8_t { kFree, kOpen, kClosed };

  struct DataZone {
    ZoneState state = ZoneState::kFree;
    std::uint32_t wp_slots = 0;
    std::uint32_t live_slots = 0;
    /// Admission log ((key, header slot) per entry written here since
    /// the last reset); stale keys are filtered against the index when
    /// read.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  };

  /// One journal half (ping-pong area): a run of whole zones (or half a
  /// zone when only one conventional zone exists). Records never
  /// straddle a zone boundary.
  struct JournalArea {
    /// (byte base, record capacity) extents, written in order.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> extents;
    std::uint32_t records = 0;  ///< Total capacity.
    /// Zones to reset before reuse (sequential-journal mode only).
    std::vector<std::uint32_t> reset_zones;
  };

  enum class JOp : std::uint8_t {
    kPut = 1,      ///< key admitted/overwritten at (zone,slot,len)
    kDelete = 2,   ///< key dropped
    kReset = 3,    ///< zone reclaimed: drop every entry still in it
    kSnapPut = 4,  ///< snapshot copy of a live entry
    kSnapEnd = 5,  ///< snapshot complete; t0 = seq of its first record
  };

  struct JournalRecord {
    JOp op = JOp::kPut;
    std::uint64_t key = 0;      // kReset: unused; kSnapEnd: first snap seq
    std::uint32_t group = 0;
    std::uint32_t value_slots = 0;
    std::uint32_t zone = 0;
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
  };

  ZoneCache(StorageDevice* dev, const ZoneCacheOptions& options);

  Status Init(SimTime now);                // geometry + journal layout
  Status Replay(SimTime now);              // journal → candidate index
  Status VerifyAndSeal(SimTime now);       // media verify + zone sealing

  // Journal plumbing.
  static void EncodeRecord(const JournalRecord& r, std::uint64_t out[3]);
  static bool DecodeRecord(const std::uint64_t in[3], JournalRecord* r);
  std::uint64_t RecordOffset(const JournalArea& a, std::uint32_t idx) const;
  Result<SimTime> AppendRecord(const JournalRecord& r, SimTime now);
  Result<SimTime> WriteSnapshot(std::uint32_t into_area, SimTime now);

  // Data-path helpers.
  Result<SimTime> EvictOne(bool allow_migration, SimTime now);
  Result<SimTime> OpenZoneFor(std::uint32_t stream, SimTime now);
  void DropIndexEntry(std::uint64_t key);  // live-count bookkeeping
  /// Pad `zone` from its write pointer to capacity, so the device zone
  /// goes FULL and releases its active-zone slot, and close it. Returns
  /// the pad's completion (`now` when the zone is already full).
  Result<SimTime> Seal(std::uint32_t zone, IoClass io_class, SimTime now);
  /// Write `key`'s header and value at `zone`'s write pointer, index the
  /// entry there (dropping any older copy) and journal the kPut.
  Result<SimTime> Admit(std::uint32_t zone, std::uint64_t key, std::uint32_t group,
                        std::span<const std::uint64_t> value, IoClass io_class,
                        SimTime now);
  std::uint64_t ZoneBase(std::uint32_t zone) const {
    return static_cast<std::uint64_t>(zone) * zone_bytes_;
  }

  StorageDevice* dev_;
  ZoneCacheOptions opt_;

  // Geometry.
  std::uint64_t slot_ = 4096;
  std::uint64_t zone_bytes_ = 0;
  std::uint64_t zone_slots_ = 0;
  std::uint32_t num_zones_ = 0;
  std::uint32_t first_data_zone_ = 0;
  bool sequential_journal_ = false;

  JournalArea areas_[2];
  std::uint32_t active_area_ = 0;
  std::uint32_t next_record_ = 0;  ///< Next record index in active area.
  std::uint64_t next_seq_ = 1;
  std::uint64_t max_entries_ = 0;
  std::uint64_t puts_since_sync_ = 0;

  std::unordered_map<std::uint64_t, Entry> index_;
  /// Data zones, indexed by `zone - first_data_zone_`.
  std::vector<DataZone> zones_;
  /// Free pool kept sorted ascending; allocation takes the lowest id so
  /// placement is deterministic.
  std::vector<std::uint32_t> free_zones_;
  /// Open zone per stream (groups 0..num_groups-1, migration stream at
  /// index num_groups); UINT32_MAX = none open.
  std::vector<std::uint32_t> open_zone_;

  ZoneCacheStats stats_;
};

}  // namespace conzone
