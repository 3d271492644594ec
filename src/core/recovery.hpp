// Power-cut recovery (DESIGN.md §5e, §12): the mount's state and its
// media passes.
//
// ConZoneDevice::Recover (recovery.cpp) runs the mount as named passes
// over one MountState, which it builds and drops:
//
//   1. re-erase the blocks the cut tore;
//   2. image load: decode the newest valid checkpoint image;
//   3. pass A: decide which image runs still hold what the image saw;
//   4. clear the table except the clean runs, then the tail scan: sense
//      every used block the image does not cover and map its slots;
//   5. pass B: install the image runs;
//   6. zone restore, allocators, and the two mount gates.
//
// Pass A, the tail scan and pass B take the flash array, mapping table
// and timing engine as arguments, so tests drive them on a bare array.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "flash/array.hpp"
#include "flash/checkpoint_store.hpp"
#include "flash/timing_engine.hpp"
#include "ftl/mapping.hpp"

namespace conzone {

/// The aggregation rule's answer for one zone (§III-C, Fig. 5 ②): its
/// first `lpns` lpns map at granularity `gran`, the rest page by page.
struct Aggregation {
  std::uint64_t lpns = 0;
  MapGranularity gran = MapGranularity::kPage;
};

/// What one mount knows. Recover builds it and drops it on return.
struct MountState {
  /// Flags the blocks of `rescan_blocks`: the cut's undo pass put older
  /// state back there (resurrected slots, restored erase pre-images), so
  /// the image may map their lpns elsewhere or not at all.
  MountState(std::uint32_t num_zones, std::uint64_t num_blocks,
             std::span<const BlockId> rescan_blocks);

  /// The newest valid image, decoded; empty when the mount has none.
  std::optional<CheckpointImage> image;
  /// The image holds one snapshot per zone.
  bool have_snaps = false;
  /// Pass A: per image run, 1 when the media under it is unchanged.
  std::vector<std::uint8_t> run_clean;
  /// The clean runs' lpn ranges (first, count): the table clear keeps them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keep;
  /// Per block, 1 to sense it even below the image's watermark.
  std::vector<std::uint8_t> rescan;
  /// Per zone, 1 once anything diverged from the image there: an unclean
  /// run or a sensed slot. Final after the tail scan.
  std::vector<std::uint8_t> zone_dirty;
  /// Per zone, the map bits pass B gives a clean run's entries.
  std::vector<Aggregation> agg;

  /// Program-sequence watermark of the image (blocks stamped at or below
  /// it hold what the image saw).
  std::uint64_t watermark() const { return image ? image->program_seq : 0; }
  /// Sequential zone `z` restores from its snapshot: restorable there and
  /// clean through the media passes.
  bool RestoredFromSnapshot(std::uint32_t z) const {
    return have_snaps && zone_dirty[z] == 0 &&
           (image->zones[z].flags & ZoneSnap::kFlagRestorable) != 0;
  }
};

/// Pass A: a run of the image is clean when it lies in bounds of `table`
/// and of `array` and every block under its ppns is unchanged since the
/// image (change stamp at or below the watermark) and not flagged for a
/// rescan. Fills run_clean and keep; an unclean run dirties every zone
/// it spans. Needs `ms.image`.
void MarkCleanRuns(const FlashArray& array, const MappingTable& table, MountState& ms);

/// Tail scan over a table cleared except for the keep ranges. Skips each
/// used block the image covers (programmed at or below the watermark,
/// not flagged), counting its pages as pages_skipped. Senses every other
/// used block page by page from `now` and maps each valid slot, dirtying
/// its zone. Returns when the last sense ends (`now` if none). Two valid
/// copies of one lpn fail the mount with a wholly cleared table.
Result<SimTime> ScanTail(FlashArray& array, MappingTable& table,
                         FlashTimingEngine& engine, MountState& ms, SimTime now,
                         RecoveryStats& stats);

/// Pass B: install the image runs after the tail scan. A clean run
/// installs blind, split per zone at `ms.agg`; an unclean run's entries
/// each re-check the slot they name, drop into checkpoint_stale_dropped
/// when it no longer holds their lpn, and fail like the tail scan on a
/// second copy. Needs `ms.image`.
Status InstallImage(const FlashArray& array, MappingTable& table, const MountState& ms,
                    RecoveryStats& stats);

}  // namespace conzone
