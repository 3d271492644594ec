#include "ftl/translator.hpp"

#include <cassert>
#include <string>

namespace conzone {

namespace {
Lpn AlignToUnit(Lpn lpn, std::uint64_t unit) { return Lpn(lpn.value() / unit * unit); }
}  // namespace

Translator::Translator(MappingTable& table, L2PCache& cache,
                       const PhysicalResolver& resolver, const TranslatorConfig& config)
    : table_(table), cache_(cache), resolver_(resolver), cfg_(config) {}

std::uint64_t Translator::StrategySramBytes() const {
  if (cfg_.strategy != L2pSearchStrategy::kBitmap || !cfg_.hybrid) return 0;
  // Two map bits per L2P entry (Fig. 5), densely packed.
  return CeilDiv(table_.geometry().num_lpns * 2, 8);
}

void Translator::InsertUnit(MapGranularity g, Lpn lpn, bool pinned) {
  const L2pKey key = cache_.KeyFor(g, lpn);
  const Lpn base = AlignToUnit(lpn, cache_.UnitLpns(g));
  const MapEntry base_entry = table_.Get(base);
  assert(base_entry.mapped());
  cache_.Insert(key, base_entry.ppn, pinned);
  if (pinned && g != MapGranularity::kPage) cache_.EvictCoveredBy(key);
}

Result<TranslateOutcome> Translator::Translate(Lpn lpn) {
  ++stats_.translations;
  TranslateOutcome out;

  // (I) Probe the cache LZA -> LCA -> LPA.
  if (cfg_.hybrid) {
    for (MapGranularity g : {MapGranularity::kZone, MapGranularity::kChunk}) {
      const L2pKey key = cache_.KeyFor(g, lpn);
      if (auto base = cache_.Lookup(key)) {
        auto ppn = resolver_.ResolveAggregated(g, key.index, lpn);
        if (!ppn) {
          return Status::Internal("aggregated cache entry for lpn " +
                                  std::to_string(lpn.value()) +
                                  " cannot be resolved by the layout");
        }
        ++stats_.cache_hits;
        ++stats_.hits_by_gran[static_cast<int>(g)];
        out.cache_hit = true;
        out.gran = g;
        out.ppn = *ppn;
        (void)base;
        return out;
      }
    }
  }
  if (auto ppn = cache_.Lookup(cache_.KeyFor(MapGranularity::kPage, lpn))) {
    ++stats_.cache_hits;
    ++stats_.hits_by_gran[static_cast<int>(MapGranularity::kPage)];
    out.cache_hit = true;
    out.gran = MapGranularity::kPage;
    out.ppn = *ppn;
    return out;
  }

  // (II) Cache miss: the entry must be fetched from the metadata flash
  // pages. Reads of never-written addresses fail up front.
  if (!table_.Get(lpn).mapped()) {
    return Status::OutOfRange("read of unmapped lpn " + std::to_string(lpn.value()));
  }
  if (!cfg_.hybrid) return MissPinnedOrPage(lpn, std::move(out));
  switch (cfg_.strategy) {
    case L2pSearchStrategy::kBitmap: return MissBitmap(lpn, std::move(out));
    case L2pSearchStrategy::kMultiple: return MissMultiple(lpn, std::move(out));
    case L2pSearchStrategy::kPinned: return MissPinnedOrPage(lpn, std::move(out));
  }
  return Status::Internal("unknown search strategy");
}

void Translator::BookRepeatedHits(MapGranularity g, std::uint64_t n) {
  assert(cfg_.hybrid && g != MapGranularity::kPage);
  stats_.translations += n;
  stats_.cache_hits += n;
  stats_.hits_by_gran[static_cast<int>(g)] += n;
  // The probe runs zone -> chunk, so a chunk hit follows a zone miss.
  cache_.BookRepeatedHits(g == MapGranularity::kZone ? n : 2 * n, n);
}

Result<TranslateOutcome> Translator::MissBitmap(Lpn lpn, TranslateOutcome out) {
  // The SRAM bitmap mirrors the map bits: one fetch at the right level.
  const MapGranularity g = table_.Get(lpn).gran;
  const Lpn base = AlignToUnit(lpn, cache_.UnitLpns(g));
  out.map_pages_fetched.push_back(table_.MapPageOf(base));
  stats_.map_fetches += 1;
  InsertUnit(g, lpn, /*pinned=*/false);
  out.gran = g;
  if (g == MapGranularity::kPage) {
    out.ppn = table_.Get(lpn).ppn;
  } else {
    auto ppn = resolver_.ResolveAggregated(g, cache_.KeyFor(g, lpn).index, lpn);
    if (!ppn) return Status::Internal("bitmap: unresolvable aggregate");
    out.ppn = *ppn;
  }
  return out;
}

Result<TranslateOutcome> Translator::MissMultiple(Lpn lpn, TranslateOutcome out) {
  // Assume the widest aggregation first (§III-C): fetch the LZA entry,
  // check its map bits, then the LCA entry, then the LPA entry. Probes
  // that land on the same table entry are not fetched twice.
  const Lpn zone_base = AlignToUnit(lpn, cache_.UnitLpns(MapGranularity::kZone));
  const Lpn chunk_base = AlignToUnit(lpn, cache_.UnitLpns(MapGranularity::kChunk));

  out.map_pages_fetched.push_back(table_.MapPageOf(zone_base));
  const MapEntry zone_entry = table_.Get(zone_base);
  if (zone_entry.mapped() && zone_entry.gran == MapGranularity::kZone) {
    InsertUnit(MapGranularity::kZone, lpn, /*pinned=*/false);
    out.gran = MapGranularity::kZone;
    auto ppn = resolver_.ResolveAggregated(
        MapGranularity::kZone, cache_.KeyFor(MapGranularity::kZone, lpn).index, lpn);
    if (!ppn) return Status::Internal("multiple: unresolvable zone aggregate");
    out.ppn = *ppn;
    stats_.map_fetches += out.map_pages_fetched.size();
    return out;
  }

  MapEntry chunk_entry = zone_entry;
  if (chunk_base != zone_base) {
    out.map_pages_fetched.push_back(table_.MapPageOf(chunk_base));
    chunk_entry = table_.Get(chunk_base);
  }
  if (chunk_entry.mapped() && chunk_entry.gran == MapGranularity::kChunk) {
    InsertUnit(MapGranularity::kChunk, lpn, /*pinned=*/false);
    out.gran = MapGranularity::kChunk;
    auto ppn = resolver_.ResolveAggregated(
        MapGranularity::kChunk, cache_.KeyFor(MapGranularity::kChunk, lpn).index, lpn);
    if (!ppn) return Status::Internal("multiple: unresolvable chunk aggregate");
    out.ppn = *ppn;
    stats_.map_fetches += out.map_pages_fetched.size();
    return out;
  }

  if (lpn != chunk_base) {
    out.map_pages_fetched.push_back(table_.MapPageOf(lpn));
  }
  InsertUnit(MapGranularity::kPage, lpn, /*pinned=*/false);
  out.gran = MapGranularity::kPage;
  out.ppn = table_.Get(lpn).ppn;
  stats_.map_fetches += out.map_pages_fetched.size();
  return out;
}

Result<TranslateOutcome> Translator::MissPinnedOrPage(Lpn lpn, TranslateOutcome out) {
  // Under kPinned every aggregate is resident and pinned, so a miss
  // implies page granularity; pure page mapping trivially so. One fetch.
  out.map_pages_fetched.push_back(table_.MapPageOf(lpn));
  stats_.map_fetches += 1;
  out.gran = MapGranularity::kPage;
  out.ppn = table_.Get(lpn).ppn;
  cache_.Insert(cache_.KeyFor(MapGranularity::kPage, lpn), out.ppn, /*pinned=*/false);

  if (cfg_.prefetch_window > 0) {
    // Sequential prefetch (Legacy, §IV-C): pull following entries from the
    // already-fetched map page at no extra flash cost.
    const std::uint64_t per_page = table_.geometry().entries_per_map_page;
    const std::uint64_t page_end = (lpn.value() / per_page + 1) * per_page;
    const std::uint64_t end = std::min({lpn.value() + 1 + cfg_.prefetch_window, page_end,
                                        table_.geometry().num_lpns});
    for (std::uint64_t l = lpn.value() + 1; l < end; ++l) {
      const MapEntry e = table_.Get(Lpn(l));
      if (!e.mapped()) break;
      cache_.Insert(cache_.KeyFor(MapGranularity::kPage, Lpn(l)), e.ppn, false);
    }
  }
  return out;
}

void Translator::OnAggregateGenerated(MapGranularity gran, std::uint64_t unit_index,
                                      Ppn base_ppn) {
  if (cfg_.strategy != L2pSearchStrategy::kPinned || !cfg_.hybrid) return;
  const L2pKey key{gran, unit_index};
  cache_.Insert(key, base_ppn, /*pinned=*/true);
  cache_.EvictCoveredBy(key);
}

}  // namespace conzone
