// Logical-to-physical translation (paper §III-C, Fig. 4).
//
// A read first probes the L2P cache coarse-to-fine: the logical address
// is re-expressed as a zone address (LZA), chunk address (LCA) and page
// address (LPA) and each is looked up in turn. On a miss the mapping
// entry must be fetched from the metadata flash pages, and *how many*
// flash reads that costs is the crux of the §IV-D case study:
//
//   kBitmap   — an SRAM bitmap mirrors every entry's map bits, so the
//               granularity is known up front: exactly 1 fetch. Fast but
//               needs ~0.006% of capacity in SRAM (64 MiB for 1 TB —
//               unacceptable on consumer devices, kept as the
//               performance-optimized reference).
//   kMultiple — assume the widest aggregation first: fetch the LZA
//               entry, check its map bits, fall back to the LCA entry,
//               then the LPA entry: 1-3 fetches (capacity-optimized).
//   kPinned   — aggregated entries are pinned in the cache when they are
//               generated and never evicted, so a miss implies page
//               granularity: exactly 1 fetch, no bitmap (the paper's
//               proposed feasible design).
//
// Aggregated hits resolve the final PPA through a PhysicalResolver
// implemented by the device over its reserved zone layout ("calculated
// based on the offset of the original logical address").
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/mapping.hpp"

namespace conzone {

enum class L2pSearchStrategy : std::uint8_t { kBitmap = 0, kMultiple = 1, kPinned = 2 };

constexpr const char* L2pSearchStrategyName(L2pSearchStrategy s) {
  switch (s) {
    case L2pSearchStrategy::kBitmap: return "BITMAP";
    case L2pSearchStrategy::kMultiple: return "MULTIPLE";
    case L2pSearchStrategy::kPinned: return "PINNED";
  }
  return "?";
}

/// Resolves the PPA of `lpn` inside an aggregated unit, using the
/// device's reserved physical layout.
class PhysicalResolver {
 public:
  virtual ~PhysicalResolver() = default;
  virtual std::optional<Ppn> ResolveAggregated(MapGranularity gran,
                                               std::uint64_t unit_index,
                                               Lpn lpn) const = 0;
};

struct TranslatorConfig {
  L2pSearchStrategy strategy = L2pSearchStrategy::kBitmap;
  /// When false the device runs pure page mapping (the Fig. 7 baseline):
  /// only page-granularity cache entries are used.
  bool hybrid = true;
  /// Legacy-style sequential prefetch: on a page-granularity miss, insert
  /// this many *following* page entries from the fetched map page as well
  /// (§IV-C uses 1023 under Legacy). 0 disables.
  std::uint32_t prefetch_window = 0;
};

/// Fixed-capacity list of the metadata map pages a miss had to read. A
/// translation fetches at most 3 (MULTIPLE probes zone → chunk → page),
/// so the storage is inline — `TranslateOutcome` never touches the heap
/// on the per-IO path.
class MapFetchList {
 public:
  void push_back(std::uint64_t page) {
    assert(count_ < kMax);
    pages_[count_++] = page;
  }
  const std::uint64_t* begin() const { return pages_.data(); }
  const std::uint64_t* end() const { return pages_.data() + count_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  static constexpr std::size_t kMax = 3;
  std::array<std::uint64_t, kMax> pages_{};
  std::uint32_t count_ = 0;
};

struct TranslateOutcome {
  Ppn ppn;
  bool cache_hit = false;
  MapGranularity gran = MapGranularity::kPage;
  /// Metadata flash pages that had to be read (empty on a cache hit).
  /// The device charges one flash read per element.
  MapFetchList map_pages_fetched;
};

struct TranslatorStats {
  std::uint64_t translations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t map_fetches = 0;
  std::uint64_t hits_by_gran[3] = {0, 0, 0};

  double MissRate() const {
    return translations
               ? 1.0 - static_cast<double>(cache_hits) / static_cast<double>(translations)
               : 0.0;
  }
  double FetchesPerMiss() const {
    const std::uint64_t misses = translations - cache_hits;
    return misses ? static_cast<double>(map_fetches) / static_cast<double>(misses) : 0.0;
  }
};

class Translator {
 public:
  Translator(MappingTable& table, L2PCache& cache, const PhysicalResolver& resolver,
             const TranslatorConfig& config);

  /// Translate `lpn`; fails if the address was never written.
  Result<TranslateOutcome> Translate(Lpn lpn);

  /// Book `n` further Translate calls that hit the same resident
  /// aggregated entry at granularity `g` as the call before them. The
  /// read path serves the rest of an aggregated unit without probing
  /// again: a repeated hit only moves the entry to the LRU head, where
  /// the first hit left it, so the statistics are all that would change.
  void BookRepeatedHits(MapGranularity g, std::uint64_t n);

  /// Write-path hook: a new aggregate was generated (§III-C ④ / Fig. 5 ②).
  /// Inserts it into the cache — pinned under kPinned, which also evicts
  /// the covered finer entries.
  void OnAggregateGenerated(MapGranularity gran, std::uint64_t unit_index, Ppn base_ppn);

  /// SRAM the strategy consumes beyond the cache itself (the BITMAP map-
  /// bits mirror); 0 for the other strategies.
  std::uint64_t StrategySramBytes() const;

  const TranslatorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TranslatorStats{}; }
  const TranslatorConfig& config() const { return cfg_; }

 private:
  Result<TranslateOutcome> MissBitmap(Lpn lpn, TranslateOutcome out);
  Result<TranslateOutcome> MissMultiple(Lpn lpn, TranslateOutcome out);
  Result<TranslateOutcome> MissPinnedOrPage(Lpn lpn, TranslateOutcome out);

  /// Cache-insert helper for a unit containing `lpn` at granularity `g`.
  void InsertUnit(MapGranularity g, Lpn lpn, bool pinned);

  MappingTable& table_;
  L2PCache& cache_;
  const PhysicalResolver& resolver_;
  TranslatorConfig cfg_;
  TranslatorStats stats_;
};

}  // namespace conzone
