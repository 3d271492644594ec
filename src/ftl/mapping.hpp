// Page-mapping table with hybrid-aggregation map bits (paper §III-C, Fig. 5).
//
// The FTL always records a full page-granularity L2P table ("FTL still
// uses page mapping to record all mapping information"). Two reserved
// bits per entry — the *map bits* — mark whether the entry belongs to a
// logically & physically contiguous run that has been aggregated at
// chunk (1024 LPAs = 4 MiB) or zone granularity. Aggregated runs can be
// represented by a single L2P cache entry, stretching the tiny consumer
// L2P cache across a much larger address range.
//
// The table itself lives in flash; `MapPageOf()` says which metadata
// flash page holds a given entry so the read path can charge the right
// number of flash reads on an L2P cache miss.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/zeroed_alloc.hpp"

namespace conzone {

enum class MapGranularity : std::uint8_t { kPage = 0, kChunk = 1, kZone = 2 };

constexpr const char* MapGranularityName(MapGranularity g) {
  switch (g) {
    case MapGranularity::kPage: return "page";
    case MapGranularity::kChunk: return "chunk";
    case MapGranularity::kZone: return "zone";
  }
  return "?";
}

struct MapEntry {
  Ppn ppn;                                         ///< Invalid if unmapped.
  MapGranularity gran = MapGranularity::kPage;     ///< The map bits.
  bool mapped() const { return ppn.valid(); }
};

struct MappingGeometry {
  std::uint64_t num_lpns = 0;          ///< Logical 4 KiB pages.
  std::uint32_t lpns_per_chunk = 1024; ///< 4 MiB chunks (§III-A).
  std::uint32_t lpns_per_zone = 4096;  ///< Zone size in LPAs.
  /// L2P entries per 16 KiB metadata flash page (16 KiB / 4 B).
  std::uint32_t entries_per_map_page = 4096;
};

class MappingTable {
 public:
  explicit MappingTable(const MappingGeometry& geometry);

  const MappingGeometry& geometry() const { return geo_; }

  /// Point `lpn` at `ppn` with page-granularity map bits. Any previous
  /// aggregation covering `lpn` must have been downgraded first.
  void Set(Lpn lpn, Ppn ppn);

  /// Bulk install of `count` consecutive lpns to consecutive ppns with
  /// the given map bits, for the mount fast path only: pure streaming
  /// stores — no per-entry occupancy check, no per-call overhead. The
  /// target range may still hold stale pre-mount bytes (see
  /// ClearForMountExcept); the mount's Σvalid == mapped gate catches a
  /// range that is double-installed or never overwritten. The caller
  /// passes the aggregation granularity the entries will end up with so
  /// the remount needs no second stamping pass over the table.
  void InstallRunAtMount(Lpn lpn, Ppn ppn, std::uint64_t count,
                         MapGranularity gran);

  /// Power-loss remount variant of ClearAllForMount for when the caller
  /// already knows which lpn ranges it will immediately re-install
  /// (checkpoint runs whose media is untouched): zeroes only the gaps
  /// between the `keep` ranges — sorted by lpn, disjoint, in bounds —
  /// plus the tail, and resets the mapped counts. Entries inside keep
  /// ranges retain stale bytes until InstallRunAtMount overwrites them;
  /// rewriting the whole table is the mount fast path's single biggest
  /// cost, so touching each entry exactly once is the point. Gaps in
  /// zones whose mapped count is 0 are skipped: outside this window
  /// (until the keep ranges are re-installed) such a zone holds only
  /// default entries, so a caller that gives up inside the window must
  /// call ClearAllForMount to restore that.
  void ClearForMountExcept(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& keep);

  /// Drop the mapping (zone reset / TRIM).
  void Unmap(Lpn lpn);

  /// Drop every mapping of zone `z` (zone reset): visit its mapped
  /// entries in lpn order as fn(Lpn, Ppn), clearing each, and adjust the
  /// counts once. The entries, counts and changed flag end as after
  /// Unmap on each lpn of the zone; the walk stops at the last mapped one.
  template <typename Fn>
  void UnmapZone(ZoneId z, Fn&& fn) {
    const std::size_t zi = static_cast<std::size_t>(z.value());
    const std::uint32_t mapped = zone_mapped_[zi];
    if (mapped == 0) return;
    const std::size_t end = std::min(entries_.size(), (zi + 1) * geo_.lpns_per_zone);
    std::uint32_t left = mapped;
    for (std::size_t i = zi * geo_.lpns_per_zone; left > 0 && i < end; ++i) {
      std::uint64_t& e = entries_[i];
      const std::uint64_t ppn1 = e & kPpnMask;
      if (ppn1 == 0) continue;
      fn(Lpn(i), Ppn(ppn1 - 1));
      e = 0;
      --left;
    }
    mapped_ -= mapped;
    zone_mapped_[zi] = 0;
    zone_changed_[zi] = 1;
  }

  MapEntry Get(Lpn lpn) const;

  /// Stamp the map bits of `count` entries starting at `start` as
  /// aggregated at `gran`. The caller has already verified physical
  /// contiguity against the reserved zone layout (§III-C ②).
  void SetAggregated(Lpn start, std::uint64_t count, MapGranularity gran);

  /// Reset map bits of a range to page granularity (contiguity broken,
  /// e.g. data re-staged to SLC after a zone reset + rewrite).
  void DowngradeToPage(Lpn start, std::uint64_t count);

  // --- Address helpers ---
  Lpn ZoneBase(ZoneId z) const { return Lpn(z.value() * geo_.lpns_per_zone); }

  /// Metadata flash page holding the entry for `lpn`.
  std::uint64_t MapPageOf(Lpn lpn) const { return lpn.value() / geo_.entries_per_map_page; }
  std::uint64_t NumMapPages() const;

  /// Number of currently mapped entries (diagnostics).
  std::uint64_t mapped_count() const { return mapped_; }

  /// Mapped entries in zone `z`'s lpn range. Kept in step with
  /// mapped_count() by every call that changes it, so the per-zone
  /// counts always sum to it.
  std::uint64_t zone_mapped_count(ZoneId z) const {
    return zone_mapped_[static_cast<std::size_t>(z.value())];
  }
  /// Zones the table spans (the last one may be partial).
  std::uint64_t num_zones() const { return zone_mapped_.size(); }

  /// True when zone `z`'s mapped (lpn, ppn) pairs may differ from what
  /// they were at its last ClearZoneChanged. Every call that keeps the
  /// per-zone counts sets it (Set, also on a remap; Unmap; the mount
  /// install and both mount clears); map bits do not. All zones start
  /// changed. Checkpoint serialisation re-walks only changed zones.
  bool zone_changed(ZoneId z) const {
    return zone_changed_[static_cast<std::size_t>(z.value())] != 0;
  }
  void ClearZoneChanged(ZoneId z) { zone_changed_[static_cast<std::size_t>(z.value())] = 0; }

  /// Power-loss remount: drop every entry (and all aggregation) so the
  /// recovery scan can rebuild the table from media OOB state.
  void ClearAllForMount();

  /// Visit every mapped entry of zone `z` in lpn order as fn(Lpn, Ppn).
  /// The walk stops once it has visited the zone's mapped count, so a
  /// zone that maps a prefix costs its mapped lpns, not its size.
  template <typename Fn>
  void ForEachMappedInZone(ZoneId z, Fn&& fn) const {
    const std::size_t zi = static_cast<std::size_t>(z.value());
    const std::size_t end = std::min(entries_.size(), (zi + 1) * geo_.lpns_per_zone);
    std::uint32_t left = zone_mapped_[zi];
    for (std::size_t i = zi * geo_.lpns_per_zone; left > 0 && i < end; ++i) {
      const std::uint64_t ppn1 = entries_[i] & kPpnMask;
      if (ppn1 == 0) continue;
      fn(Lpn(i), Ppn(ppn1 - 1));
      --left;
    }
  }

  /// Visit every mapped entry in lpn order as fn(Lpn, Ppn), zone by zone
  /// as ForEachMappedInZone.
  template <typename Fn>
  void ForEachMapped(Fn&& fn) const {
    for (std::uint64_t z = 0; z < zone_mapped_.size(); ++z) ForEachMappedInZone(ZoneId(z), fn);
  }

 private:
  /// Count the run [lpn, lpn + count) as mapped, in total and per zone.
  void CountRun(std::uint64_t lpn, std::uint64_t count);

  // One 8-byte word per lpn: the map bits in the top two bits and
  // ppn + 1 below them, so 0 is MapEntry{} — the value the lazily zeroed
  // `entries_` storage starts every entry at. An invalid id is all ones,
  // so the ppn + 1 field of 0 decodes, by wrapping, to Ppn::Invalid().
  static_assert(Ppn::kInvalidValue + 1 == 0);
  static constexpr int kGranShift = 62;
  static constexpr std::uint64_t kPpnMask = (std::uint64_t{1} << kGranShift) - 1;
  static std::uint64_t Pack(Ppn ppn, MapGranularity gran) {
    assert(ppn.valid() && ppn.value() < kPpnMask);
    return (static_cast<std::uint64_t>(gran) << kGranShift) | (ppn.value() + 1);
  }

  MappingGeometry geo_;
  /// Zone of an lpn: Set/Unmap run once per written slot, so no divide.
  FastDiv div_lpns_per_zone_;
  ZeroedVector<std::uint64_t> entries_;
  std::uint64_t mapped_ = 0;
  std::vector<std::uint32_t> zone_mapped_;
  std::vector<std::uint8_t> zone_changed_;
};

}  // namespace conzone
