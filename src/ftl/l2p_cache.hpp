// The volatile L2P cache (paper §III-C).
//
// Consumer-grade storage has only a few KiB of SRAM for L2P caching, so
// each cached entry is precious. An entry maps a *logical unit* at one of
// three granularities — page (LPA), chunk (LCA), zone (LZA) — to the
// physical slot of the unit's first 4 KiB page; lookups probe the three
// granularities coarse-to-fine, and a hit computes the final PPA by
// adding the offset of the original LPA inside the unit.
//
// Organization: entries are hashed into buckets (the paper's bucketed
// search) with a global LRU chain for eviction. Entries inserted as
// *pinned* (the §IV-D PINNED design) are exempt from eviction; when an
// aggregated entry is generated, the finer-granularity entries it covers
// are evicted to reclaim capacity.
//
// Storage: entries live in a flat slot array sized to the configured
// capacity; the LRU chain is intrusive (prev/next slot indices inside
// each entry) and the hash index is an open-addressing table of slot
// indices (linear probing, backward-shift deletion). Lookups, inserts
// and evictions touch contiguous memory and never allocate after
// construction — this sits on the per-IO hot path of every read.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "ftl/mapping.hpp"

namespace conzone {

/// Identity of a cached translation: granularity + index of the logical
/// unit (lpn / units-per-granularity).
struct L2pKey {
  MapGranularity gran = MapGranularity::kPage;
  std::uint64_t index = 0;

  std::uint64_t Encoded() const { return (index << 2) | static_cast<std::uint64_t>(gran); }
  friend bool operator==(const L2pKey&, const L2pKey&) = default;
};

struct L2pCacheConfig {
  std::uint64_t capacity_bytes = 12 * kKiB;  ///< §IV-A scaled-down budget.
  std::uint32_t entry_bytes = 4;             ///< §IV-D packed-entry figure.
  std::uint32_t lpns_per_chunk = 1024;
  std::uint32_t lpns_per_zone = 4096;

  std::uint64_t MaxEntries() const {
    return entry_bytes ? capacity_bytes / entry_bytes : 0;
  }
};

struct L2pCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_insertions = 0;  ///< Cache full of pinned entries.

  double HitRate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
  double MissRate() const { return lookups ? 1.0 - HitRate() : 0.0; }
};

class L2PCache {
 public:
  explicit L2PCache(const L2pCacheConfig& config);

  /// Probe one granularity level. A hit refreshes LRU recency and returns
  /// the base PPA of the logical unit.
  std::optional<Ppn> Lookup(const L2pKey& key);

  /// Probe without touching recency or statistics (diagnostics).
  std::optional<Ppn> Peek(const L2pKey& key) const;

  /// Count `lookups` probes, `hits` of which found an entry already at
  /// the LRU head (Translator::BookRepeatedHits).
  void BookRepeatedHits(std::uint64_t lookups, std::uint64_t hits) {
    stats_.lookups += lookups;
    stats_.hits += hits;
  }

  /// Insert (or refresh) a translation. Evicts the LRU unpinned entry
  /// when full; if every resident entry is pinned the insertion of an
  /// unpinned entry is dropped.
  void Insert(const L2pKey& key, Ppn base_ppn, bool pinned = false);

  void Erase(const L2pKey& key);

  /// Evict all finer-granularity entries whose range is covered by the
  /// aggregate `key` (PINNED design: the aggregate supersedes them).
  void EvictCoveredBy(const L2pKey& key);

  /// Remove every entry overlapping the LPA range [start, start+count) —
  /// used on zone reset and at remount. Costs O(resident entries), not
  /// O(count).
  void InvalidateLpnRange(Lpn start, std::uint64_t count);

  std::size_t size() const { return size_; }
  std::uint64_t max_entries() const { return max_entries_; }
  std::size_t pinned_count() const { return pinned_count_; }
  const L2pCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = L2pCacheStats{}; }

  /// LPAs covered by one unit at granularity `g`.
  std::uint64_t UnitLpns(MapGranularity g) const;
  /// Key of the unit containing `lpn` at granularity `g`.
  L2pKey KeyFor(MapGranularity g, Lpn lpn) const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    std::uint64_t key = 0;  // encoded L2pKey
    Ppn base_ppn;
    std::uint32_t prev = kNil;  // intrusive LRU chain (head = most recent)
    std::uint32_t next = kNil;
    bool pinned = false;
  };

  static std::uint64_t HashKey(std::uint64_t key);
  /// Bucket of `key` in table_, or the first empty bucket of its probe
  /// sequence. `*found` says which.
  std::size_t FindBucket(std::uint64_t key, bool* found) const;
  /// Backward-shift deletion at `bucket` (no tombstones).
  void TableErase(std::size_t bucket);

  void LruUnlink(std::uint32_t slot);
  void LruPushFront(std::uint32_t slot);
  void LruMoveToFront(std::uint32_t slot);

  void EvictOne();
  /// Remove `slot` (already located at `bucket`) from table, LRU and the
  /// slot free list.
  void RemoveSlot(std::uint32_t slot, std::size_t bucket);

  L2pCacheConfig cfg_;
  std::uint64_t max_entries_;
  // Reciprocals for KeyFor — probed up to three times per read IO.
  FastDiv div_lpns_per_chunk_;
  FastDiv div_lpns_per_zone_;
  std::vector<Slot> slots_;             // flat entry storage
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> table_;    // open addressing: slot index or kNil
  std::uint64_t table_mask_ = 0;        // table_.size() - 1 (power of two)
  std::uint32_t lru_head_ = kNil;       // most recently used
  std::uint32_t lru_tail_ = kNil;       // least recently used
  std::size_t size_ = 0;
  std::size_t pinned_count_ = 0;
  L2pCacheStats stats_;
};

}  // namespace conzone
