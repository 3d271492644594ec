// Durable L2P checkpoint images (ISSUE 8 / DESIGN.md §12).
//
// A checkpoint is a point-in-time snapshot of the FTL's rebuildable RAM
// state — L2P mapping, zone write pointers, superblock free lists — plus
// the FlashArray program-sequence watermark taken at the same instant.
// At mount, the newest valid image replays the mapping directly and the
// OOB scan shrinks to the blocks programmed after the watermark (the
// "tail"), turning remount cost from O(used pages) into O(tail).
//
// On-flash model: like the L2P log, the checkpoint region is side-band
// metadata flash — the store keeps the serialized blob in host memory
// and the device charges honest erase+program timing for every commit.
// Two reserved slots ping-pong: a commit always overwrites the slot NOT
// holding the newest valid image, so a cut during the write leaves the
// previous image intact. Each image carries a monotonic sequence number
// and an FNV-1a checksum; mount picks the newest slot whose checksum
// verifies (serial-number arithmetic, so wraparound orders correctly)
// and a torn or corrupt slot simply loses the election — worst case both
// slots are torn and mount falls back to the full scan.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"

namespace conzone {

struct CheckpointConfig {
  /// Master switch. Requires the L2P log (the interval counts flushed
  /// log entries); ConZoneConfig::Validate enforces that.
  bool enabled = false;
  /// Write a checkpoint after this many flushed L2P-log entries.
  std::uint64_t interval_entries = 16384;
  /// Also checkpoint on a clean host Flush/FUA — the device is quiescent
  /// and the log was just force-flushed, so the image is cheap to place —
  /// once at least this many log entries flushed since the last image (a
  /// flush-heavy host would otherwise pay a full image per Flush).
  /// UINT64_MAX checkpoints on the interval alone.
  std::uint64_t min_flush_entries = 256;

  Status Validate() const;
};

/// One extent of the L2P mapping: `count` consecutive lpns starting at
/// `lpn` map to consecutive ppns starting at `ppn`. Zoned workloads are
/// extent-shaped (zones fill sequentially, SLC stages sequentially), so
/// run-length coding keeps the image O(extents) instead of O(pages).
/// Chip striping breaks extents every program unit; Encode additionally
/// folds arithmetic progressions of runs (constant stride, then a second
/// level over the fold) so a striped zone serializes in O(1) records and
/// the image load stays a page-sized read at any fullness. Worst case
/// (fully random maps) degrades to one-entry runs.
struct MapRun {
  std::uint64_t lpn = 0;
  std::uint64_t ppn = 0;
  std::uint64_t count = 0;
  bool operator==(const MapRun&) const = default;
};

/// Append `run` to `runs`, extending the tail run when `run` continues it
/// in both lpn and ppn space — the one merge rule every image's run list
/// is built with, whether entry by entry or from cached per-zone runs.
inline void AppendRun(std::vector<MapRun>& runs, const MapRun& run) {
  if (!runs.empty()) {
    MapRun& tail = runs.back();
    if (run.lpn == tail.lpn + tail.count && run.ppn == tail.ppn + tail.count) {
      tail.count += run.count;
      return;
    }
  }
  runs.push_back(run);
}

/// Per-zone reconciliation snapshot. `write_pointer` doubles as the
/// staged-end byte offset. When kFlagRestorable is set, the snapshot was
/// computed from the mapping by the same pure reconciliation the mount
/// path runs, with no orphan islands — a zone untouched since the image
/// restores from these fields without re-walking its lpns. Without the
/// flag (or for a zone dirtied after the snapshot) the fields are
/// advisory and media reconciliation stays authoritative.
struct ZoneSnap {
  static constexpr std::uint64_t kFlagDegraded = 1;
  static constexpr std::uint64_t kFlagPatchContiguous = 2;
  static constexpr std::uint64_t kFlagRestorable = 4;
  std::uint64_t write_pointer = 0;
  std::uint64_t durable_normal_end = 0;
  std::uint64_t patch_start = 0;  ///< Raw ppn; meaningful per flags.
  std::uint64_t flags = 0;
  bool operator==(const ZoneSnap&) const = default;
};

/// Decoded checkpoint payload. Encode/Decode round-trip through the
/// versioned, checksummed wire format described in DESIGN.md §12.
struct CheckpointImage {
  std::uint64_t seq = 0;          ///< Monotonic image number (slot election).
  std::uint64_t program_seq = 0;  ///< FlashArray watermark at snapshot.
  /// L2P mapping at snapshot as extents, in lpn order.
  std::vector<MapRun> mappings;
  /// Append (lpn, ppn), extending the tail run when contiguous.
  void AddMapping(std::uint64_t lpn, std::uint64_t ppn) {
    AppendRun(mappings, MapRun{lpn, ppn, 1});
  }
  /// Per-zone snapshots, one per device zone (conventional + sequential).
  std::vector<ZoneSnap> zones;
  /// Free-list snapshots (superblock ids, list order). Advisory, as above.
  std::vector<std::uint64_t> free_slc;
  std::vector<std::uint64_t> free_normal;

  std::vector<std::uint8_t> Encode() const;
  /// Validates magic, version, structural sizes and the FNV-1a trailer,
  /// and that no unfolded run's lpn or ppn range wraps past 2^64;
  /// nullopt on any mismatch (a torn or corrupt image must lose quietly).
  static std::optional<CheckpointImage> Decode(
      const std::vector<std::uint8_t>& blob);

  /// a strictly newer than b in serial-number arithmetic (RFC 1982
  /// style): wraparound-safe as long as live images are < 2^63 apart.
  static bool SeqNewer(std::uint64_t a, std::uint64_t b) {
    return a != b && (a - b) < (1ull << 63);
  }
};

class CheckpointStore {
 public:
  struct Slot {
    bool valid = false;
    std::uint64_t seq = 0;
    SimTime media_end;  ///< When the image's last program completes.
    std::vector<std::uint8_t> blob;
    /// Decode-verification cache: Commit installs a freshly encoded blob
    /// (trivially decodable), so the election does not re-checksum a
    /// megabyte image on every call — the mount path still runs one full
    /// Decode before trusting any entry. CorruptByteForTest clears it.
    mutable bool verified = false;
  };

  static constexpr int kSlots = 2;

  /// Slot a new image must target: the one NOT holding the newest valid
  /// image (ping-pong). With no valid image, slot 0.
  int NextSlot() const;

  /// Install `blob` into `slot`. `media_end` is the simulated completion
  /// time of the image's last program; a later power cut before that
  /// instant tears the slot.
  void Commit(int slot, std::vector<std::uint8_t> blob, std::uint64_t seq,
              SimTime media_end);

  /// Invalidate every slot whose write had not completed by `cut`.
  /// Returns the number of slots torn.
  std::uint64_t ApplyPowerCut(SimTime cut);

  /// Newest slot whose blob decodes (checksum verifies). Ties — two valid
  /// slots with equal seq, possible only via external corruption — go to
  /// the lower slot index. Null when no slot survives.
  const Slot* NewestValid() const;

  /// Sequence number the next image should carry (newest valid + 1,
  /// starting at 1).
  std::uint64_t NextSeq() const;

  const Slot& slot(int i) const { return slots_[static_cast<std::size_t>(i)]; }
  /// Test hook: flip one byte of a committed blob in place.
  void CorruptByteForTest(int slot, std::size_t offset);

 private:
  Slot slots_[kSlots];
};

}  // namespace conzone
