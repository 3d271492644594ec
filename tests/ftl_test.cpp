// Unit tests for the FTL: mapping table (map bits), L2P cache (buckets,
// LRU, pinning) and the translator's three search strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/mapping.hpp"
#include "ftl/translator.hpp"

namespace conzone {
namespace {

MappingGeometry SmallMapGeo() {
  MappingGeometry g;
  g.num_lpns = 16384;       // 4 zones of 4096
  g.lpns_per_chunk = 1024;  // 4 chunks per zone
  g.lpns_per_zone = 4096;
  g.entries_per_map_page = 4096;
  return g;
}

L2pCacheConfig SmallCacheCfg(std::uint64_t entries = 8) {
  L2pCacheConfig c;
  c.capacity_bytes = entries * 4;
  c.entry_bytes = 4;
  c.lpns_per_chunk = 1024;
  c.lpns_per_zone = 4096;
  return c;
}

// --- mapping table ---

TEST(MappingTableTest, SetGetUnmap) {
  MappingTable t(SmallMapGeo());
  EXPECT_FALSE(t.Get(Lpn{5}).mapped());
  t.Set(Lpn{5}, Ppn{100});
  EXPECT_TRUE(t.Get(Lpn{5}).mapped());
  EXPECT_EQ(t.Get(Lpn{5}).ppn, Ppn{100});
  EXPECT_EQ(t.Get(Lpn{5}).gran, MapGranularity::kPage);
  EXPECT_EQ(t.mapped_count(), 1u);
  t.Unmap(Lpn{5});
  EXPECT_FALSE(t.Get(Lpn{5}).mapped());
  EXPECT_EQ(t.mapped_count(), 0u);
}

TEST(MappingTableTest, SetResetsGranularity) {
  MappingTable t(SmallMapGeo());
  t.Set(Lpn{0}, Ppn{1});
  t.SetAggregated(Lpn{0}, 1, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kChunk);
  t.Set(Lpn{0}, Ppn{2});  // remap downgrades to page
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kPage);
}

TEST(MappingTableTest, AggregateAndDowngradeRanges) {
  MappingTable t(SmallMapGeo());
  for (std::uint64_t i = 0; i < 1024; ++i) t.Set(Lpn{i}, Ppn{i});
  t.SetAggregated(Lpn{0}, 1024, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{1023}).gran, MapGranularity::kChunk);
  t.DowngradeToPage(Lpn{0}, 1024);
  EXPECT_EQ(t.Get(Lpn{512}).gran, MapGranularity::kPage);
  // PPNs survive bit flips — the table is always a full page map.
  EXPECT_EQ(t.Get(Lpn{512}).ppn, Ppn{512});
}

TEST(MappingTableTest, PerZoneCountsMatchBruteForce) {
  // Random Set / Unmap / InstallRunAtMount / both mount clears; after
  // every step the per-zone counts must equal a brute-force count, sum
  // to mapped_count(), and ForEachMapped (which stops each zone at its
  // count) must visit exactly the mapped entries. ClearForMountExcept,
  // which skips zones by their count too, must leave every entry outside
  // its keep ranges at MapEntry{}. A zone whose (lpn, ppn) pairs differ
  // from those at its last ClearZoneChanged must read changed:
  // checkpoint images skip re-walking the others. The last zone is
  // partial, as on a Legacy device.
  MappingGeometry geo = SmallMapGeo();
  geo.num_lpns += 1000;
  MappingTable t(geo);
  ASSERT_EQ(t.num_zones(), 5u);
  const std::uint64_t n = t.geometry().num_lpns;
  const std::uint64_t per_zone = t.geometry().lpns_per_zone;
  Rng rng(0x20C0);
  // Unmap then bulk-install [lpn, lpn + count): InstallRunAtMount does no
  // occupancy check, so its contract is an unmapped or just-cleared range.
  auto install = [&](std::uint64_t lpn, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) t.Unmap(Lpn{lpn + i});
    t.InstallRunAtMount(Lpn{lpn}, Ppn{rng.NextBelow(1u << 20)}, count,
                        MapGranularity::kPage);
  };
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  std::vector<Pairs> at_clear(t.num_zones());
  Rng clear_rng(0xC1EA);  // its own stream: the op sequence stays as it was
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.NextBelow(20);
    if (op < 9) {
      const Lpn lpn{rng.NextBelow(n)};
      t.Set(lpn, Ppn{rng.NextBelow(1u << 20)});
      // Aggregated map bits too, so a cleared entry must reset them.
      if (op < 3) t.SetAggregated(lpn, 1, MapGranularity::kChunk);
    } else if (op < 15) {
      t.Unmap(Lpn{rng.NextBelow(n)});
    } else if (op < 18) {
      const std::uint64_t lpn = rng.NextBelow(n);
      install(lpn, 1 + rng.NextBelow(std::min<std::uint64_t>(2 * per_zone, n - lpn)));
    } else if (op == 18) {
      // The mount fast path: clear all but some sorted, disjoint keep
      // ranges (some spanning zones), then re-install exactly those.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> keep;
      for (std::uint64_t pos = rng.NextBelow(per_zone); pos < n;) {
        const std::uint64_t count = 1 + rng.NextBelow(std::min<std::uint64_t>(per_zone, n - pos));
        keep.emplace_back(pos, count);
        pos += count + rng.NextBelow(per_zone);
      }
      t.ClearForMountExcept(keep);
      // Everything outside the keep ranges now reads as never mapped.
      std::uint64_t next = 0;
      for (std::size_t k = 0; k <= keep.size(); ++k) {
        const std::uint64_t gap_end = k < keep.size() ? keep[k].first : n;
        for (std::uint64_t l = next; l < gap_end; ++l) {
          const MapEntry e = t.Get(Lpn{l});
          ASSERT_TRUE(!e.mapped() && e.gran == MapGranularity::kPage)
              << "step " << step << " lpn " << l;
        }
        if (k < keep.size()) next = keep[k].first + keep[k].second;
      }
      for (const auto& [lpn, count] : keep) {
        t.InstallRunAtMount(Lpn{lpn}, Ppn{lpn}, count, MapGranularity::kPage);
      }
    } else {
      t.ClearAllForMount();
    }

    std::vector<std::uint64_t> brute(t.num_zones(), 0);
    Pairs mapped;
    std::vector<Pairs> zone_pairs(t.num_zones());
    for (std::uint64_t l = 0; l < n; ++l) {
      const MapEntry e = t.Get(Lpn{l});
      if (!e.mapped()) continue;
      ++brute[l / per_zone];
      mapped.emplace_back(l, e.ppn.value());
      zone_pairs[l / per_zone].emplace_back(l, e.ppn.value());
    }
    std::uint64_t sum = 0;
    for (std::uint64_t z = 0; z < t.num_zones(); ++z) {
      ASSERT_EQ(t.zone_mapped_count(ZoneId{z}), brute[z]) << "step " << step << " zone " << z;
      sum += t.zone_mapped_count(ZoneId{z});
    }
    ASSERT_EQ(sum, t.mapped_count()) << "step " << step;
    Pairs visited;
    t.ForEachMapped([&](Lpn l, Ppn p) { visited.emplace_back(l.value(), p.value()); });
    ASSERT_EQ(visited, mapped) << "step " << step;
    for (std::uint64_t z = 0; z < t.num_zones(); ++z) {
      if (zone_pairs[z] != at_clear[z]) {
        ASSERT_TRUE(t.zone_changed(ZoneId{z})) << "step " << step << " zone " << z;
      }
      if (clear_rng.NextBelow(4) == 0) {
        t.ClearZoneChanged(ZoneId{z});
        at_clear[z] = zone_pairs[z];
      }
    }
  }
}

TEST(MappingTableTest, UnmapZoneMatchesPerLpnUnmap) {
  // Twin tables filled alike, some entries aggregated; one drops a zone
  // with UnmapZone, the other with Unmap on each lpn of the zone that
  // Get shows mapped. The visits, every entry, the counts and the
  // changed flags must agree. The last zone is partial; the zones are
  // dense, sparse, mapped only at the end, or empty.
  MappingGeometry geo = SmallMapGeo();
  geo.num_lpns += 1000;
  const std::uint64_t n = geo.num_lpns;
  const std::uint64_t per_zone = geo.lpns_per_zone;
  Rng rng(0x0A2E);
  for (int round = 0; round < 40; ++round) {
    MappingTable a(geo);
    MappingTable b(geo);
    for (std::uint64_t z = 0; z < a.num_zones(); ++z) {
      const std::uint64_t lo = z * per_zone;
      const std::uint64_t hi = std::min(n, lo + per_zone);
      const std::uint64_t kind = rng.NextBelow(4);
      for (std::uint64_t l = lo; l < hi; ++l) {
        const bool map = kind == 0   ? rng.NextBelow(8) != 0
                         : kind == 1 ? rng.NextBelow(50) == 0
                         : kind == 2 ? l + 3 >= hi
                                     : false;
        if (!map) continue;
        const Ppn ppn{rng.NextBelow(1u << 20)};
        a.Set(Lpn{l}, ppn);
        b.Set(Lpn{l}, ppn);
        if (rng.NextBelow(4) == 0) {
          a.SetAggregated(Lpn{l}, 1, MapGranularity::kChunk);
          b.SetAggregated(Lpn{l}, 1, MapGranularity::kChunk);
        }
      }
      a.ClearZoneChanged(ZoneId{z});
      b.ClearZoneChanged(ZoneId{z});
    }
    const ZoneId zone{rng.NextBelow(a.num_zones())};
    using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    Pairs got;
    a.UnmapZone(zone, [&](Lpn l, Ppn p) { got.emplace_back(l.value(), p.value()); });
    Pairs want;
    for (std::uint64_t l = zone.value() * per_zone;
         l < std::min(n, (zone.value() + 1) * per_zone); ++l) {
      const MapEntry e = b.Get(Lpn{l});
      if (e.mapped()) want.emplace_back(l, e.ppn.value());
      b.Unmap(Lpn{l});
    }
    const std::string what = "round " + std::to_string(round) + " zone " +
                             std::to_string(zone.value());
    ASSERT_EQ(got, want) << what;
    ASSERT_EQ(a.mapped_count(), b.mapped_count()) << what;
    for (std::uint64_t z = 0; z < a.num_zones(); ++z) {
      ASSERT_EQ(a.zone_mapped_count(ZoneId{z}), b.zone_mapped_count(ZoneId{z})) << what;
      ASSERT_EQ(a.zone_changed(ZoneId{z}), b.zone_changed(ZoneId{z})) << what << " " << z;
    }
    for (std::uint64_t l = 0; l < n; ++l) {
      const MapEntry ea = a.Get(Lpn{l});
      const MapEntry eb = b.Get(Lpn{l});
      ASSERT_TRUE(ea.ppn == eb.ppn && ea.gran == eb.gran) << what << " lpn " << l;
    }
  }
}

TEST(MappingTableTest, FreshTableIsDefaultEverywhere) {
  const MappingTable t(SmallMapGeo());
  for (std::uint64_t l = 0; l < t.geometry().num_lpns; ++l) {
    const MapEntry e = t.Get(Lpn{l});
    ASSERT_FALSE(e.mapped()) << "lpn " << l;
    ASSERT_EQ(e.ppn, Ppn::Invalid()) << "lpn " << l;
    ASSERT_EQ(e.gran, MapGranularity::kPage) << "lpn " << l;
  }
  EXPECT_EQ(t.mapped_count(), 0u);
  std::uint64_t visited = 0;
  t.ForEachMapped([&](Lpn, Ppn) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(MappingTableTest, EntryEncodingRoundTripsExtremes) {
  // The largest ppn an entry holds (ppn + 1 fills its 62 low bits).
  constexpr std::uint64_t kLargestPpn = (std::uint64_t{1} << 62) - 2;
  MappingTable t(SmallMapGeo());
  const Lpn last{t.geometry().num_lpns - 1};
  auto expect = [&](Lpn l, Ppn ppn, MapGranularity gran, const char* what) {
    const MapEntry e = t.Get(l);
    EXPECT_TRUE(e.mapped()) << what;
    EXPECT_EQ(e.ppn, ppn) << what;
    EXPECT_EQ(e.gran, gran) << what;
  };
  t.Set(Lpn{0}, Ppn{0});
  t.Set(last, Ppn{kLargestPpn});
  expect(Lpn{0}, Ppn{0}, MapGranularity::kPage, "ppn 0");
  expect(last, Ppn{kLargestPpn}, MapGranularity::kPage, "largest ppn");
  for (const MapGranularity gran :
       {MapGranularity::kPage, MapGranularity::kChunk, MapGranularity::kZone}) {
    t.SetAggregated(Lpn{0}, 1, gran);
    t.SetAggregated(last, 1, gran);
    expect(Lpn{0}, Ppn{0}, gran, MapGranularityName(gran));
    expect(last, Ppn{kLargestPpn}, gran, MapGranularityName(gran));
    t.DowngradeToPage(Lpn{0}, 1);
    t.DowngradeToPage(last, 1);
    expect(Lpn{0}, Ppn{0}, MapGranularity::kPage, "downgraded");
    expect(last, Ppn{kLargestPpn}, MapGranularity::kPage, "downgraded");
  }
  // A mount run ending at the largest ppn, with zone map bits.
  t.InstallRunAtMount(Lpn{8}, Ppn{kLargestPpn - 3}, 4, MapGranularity::kZone);
  for (std::uint64_t i = 0; i < 4; ++i) {
    expect(Lpn{8 + i}, Ppn{kLargestPpn - 3 + i}, MapGranularity::kZone, "installed");
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> visited;
  t.ForEachMapped([&](Lpn l, Ppn p) { visited.emplace_back(l.value(), p.value()); });
  ASSERT_EQ(visited.size(), 6u);
  EXPECT_EQ(visited.front(), std::make_pair(std::uint64_t{0}, std::uint64_t{0}));
  EXPECT_EQ(visited.back(), std::make_pair(last.value(), kLargestPpn));
  EXPECT_EQ(t.mapped_count(), 6u);
  // Unmap returns each entry to MapEntry{}, whatever its map bits were.
  t.SetAggregated(Lpn{0}, 1, MapGranularity::kZone);
  for (const Lpn l : {Lpn{0}, Lpn{8}, last}) {
    t.Unmap(l);
    const MapEntry e = t.Get(l);
    EXPECT_FALSE(e.mapped());
    EXPECT_EQ(e.ppn, Ppn::Invalid());
    EXPECT_EQ(e.gran, MapGranularity::kPage);
  }
  EXPECT_EQ(t.mapped_count(), 3u);
}

TEST(MappingTableTest, AddressHelpers) {
  MappingTable t(SmallMapGeo());
  EXPECT_EQ(t.ZoneBase(ZoneId{1}), Lpn{4096});
  EXPECT_EQ(t.MapPageOf(Lpn{4095}), 0u);
  EXPECT_EQ(t.MapPageOf(Lpn{4096}), 1u);
  EXPECT_EQ(t.NumMapPages(), 4u);
}

// --- l2p cache ---

TEST(L2PCacheTest, HitRefreshesRecency) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kPage, 1}, Ppn{10});
  c.Insert({MapGranularity::kPage, 2}, Ppn{20});
  // Touch entry 1, then insert a third: entry 2 must be the victim.
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 1}).has_value());
  c.Insert({MapGranularity::kPage, 3}, Ppn{30});
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 1}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 2}).has_value());
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(L2PCacheTest, GranularityIsPartOfTheKey) {
  L2PCache c(SmallCacheCfg(4));
  c.Insert({MapGranularity::kPage, 0}, Ppn{1});
  c.Insert({MapGranularity::kChunk, 0}, Ppn{2});
  c.Insert({MapGranularity::kZone, 0}, Ppn{3});
  EXPECT_EQ(c.Peek({MapGranularity::kPage, 0}).value(), Ppn{1});
  EXPECT_EQ(c.Peek({MapGranularity::kChunk, 0}).value(), Ppn{2});
  EXPECT_EQ(c.Peek({MapGranularity::kZone, 0}).value(), Ppn{3});
}

TEST(L2PCacheTest, PinnedEntriesSurviveEviction) {
  L2PCache c(SmallCacheCfg(3));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{100 + i});
  }
  EXPECT_TRUE(c.Peek({MapGranularity::kZone, 0}).has_value());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.pinned_count(), 1u);
}

TEST(L2PCacheTest, AllPinnedRejectsUnpinnedInsert) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, true);
  c.Insert({MapGranularity::kZone, 1}, Ppn{2}, true);
  c.Insert({MapGranularity::kPage, 9}, Ppn{3});
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 9}).has_value());
  EXPECT_EQ(c.stats().rejected_insertions, 1u);
}

TEST(L2PCacheTest, EvictCoveredByRemovesFinerEntries) {
  L2PCache c(SmallCacheCfg(16));
  c.Insert({MapGranularity::kPage, 100}, Ppn{1});
  c.Insert({MapGranularity::kPage, 5000}, Ppn{2});   // different zone
  c.Insert({MapGranularity::kChunk, 0}, Ppn{3});     // chunk 0 of zone 0
  c.Insert({MapGranularity::kZone, 0}, Ppn{4}, true);
  c.EvictCoveredBy({MapGranularity::kZone, 0});
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 100}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kChunk, 0}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 5000}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kZone, 0}).has_value());
}

TEST(L2PCacheTest, InvalidateLpnRangeRemovesOverlaps) {
  L2PCache c(SmallCacheCfg(16));
  c.Insert({MapGranularity::kPage, 4096}, Ppn{1});
  c.Insert({MapGranularity::kChunk, 4}, Ppn{2});  // lpns 4096..5119
  c.Insert({MapGranularity::kZone, 1}, Ppn{3});   // lpns 4096..8191
  c.Insert({MapGranularity::kPage, 0}, Ppn{4});   // untouched
  c.InvalidateLpnRange(Lpn{4096}, 1024);
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 4096}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kChunk, 4}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kZone, 1}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 0}).has_value());
}

/// Reference for InvalidateLpnRange: erase every page, chunk and zone key
/// overlapping [lo, hi) one by one, as the cache once did itself.
void EraseOverlappingKeys(L2PCache& c, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t chunk = c.UnitLpns(MapGranularity::kChunk);
  const std::uint64_t zone = c.UnitLpns(MapGranularity::kZone);
  for (std::uint64_t l = lo; l < hi; ++l) c.Erase({MapGranularity::kPage, l});
  for (std::uint64_t k = lo / chunk; k * chunk < hi; ++k) c.Erase({MapGranularity::kChunk, k});
  for (std::uint64_t k = lo / zone; k * zone < hi; ++k) c.Erase({MapGranularity::kZone, k});
}

TEST(L2PCacheTest, InvalidateLpnRangeMatchesPerKeyErase) {
  // Two caches see the same pinned/unpinned inserts, lookups and erases;
  // ranges are invalidated on one and erased key by key on the other.
  // Every observable must agree, including which entries later inserts
  // evict.
  constexpr std::uint64_t kZones = 8;
  constexpr std::uint64_t kLpns = kZones * 4096;
  Rng rng(0x1A7E);
  for (int trial = 0; trial < 20; ++trial) {
    L2PCache walk(SmallCacheCfg(64));
    L2PCache probe(SmallCacheCfg(64));
    // A pool of 256 keys over all three granularities, so ops hit.
    std::vector<L2pKey> pool;
    for (int i = 0; i < 256; ++i) {
      const auto gran = static_cast<MapGranularity>(rng.NextBelow(3));
      pool.push_back(L2pKey{gran, rng.NextBelow(kLpns / walk.UnitLpns(gran))});
    }
    auto expect_same = [&](const std::string& where) {
      ASSERT_EQ(walk.size(), probe.size()) << where;
      ASSERT_EQ(walk.pinned_count(), probe.pinned_count()) << where;
      ASSERT_EQ(walk.stats().evictions, probe.stats().evictions) << where;
      ASSERT_EQ(walk.stats().rejected_insertions, probe.stats().rejected_insertions) << where;
      for (const L2pKey& k : pool) ASSERT_EQ(walk.Peek(k), probe.Peek(k)) << where;
    };
    for (int step = 0; step < 400; ++step) {
      const L2pKey key = pool[rng.NextBelow(pool.size())];
      const std::uint64_t op = rng.NextBelow(10);
      if (op < 5) {
        const Ppn ppn{rng.NextBelow(1u << 20)};
        const bool pinned = rng.NextBelow(8) == 0;
        walk.Insert(key, ppn, pinned);
        probe.Insert(key, ppn, pinned);
      } else if (op < 7) {
        ASSERT_EQ(walk.Lookup(key), probe.Lookup(key));
      } else if (op < 8) {
        walk.Erase(key);
        probe.Erase(key);
      } else {
        // Part of a zone, one zone, or the whole device.
        const std::uint64_t z = rng.NextBelow(kZones);
        std::uint64_t start = z * 4096;
        std::uint64_t count = 4096;
        const std::uint64_t kind = rng.NextBelow(3);
        if (kind == 0) {
          start += rng.NextBelow(4096);
          count = 1 + rng.NextBelow((z + 1) * 4096 - start);
        } else if (kind == 2) {
          start = 0;
          count = kLpns;
        }
        walk.InvalidateLpnRange(Lpn{start}, count);
        EraseOverlappingKeys(probe, start, start + count);
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_same("trial " + std::to_string(trial) + " step " + std::to_string(step)));
    }
    // Eviction order: fresh unpinned inserts must push out the same
    // victims from both caches.
    for (std::uint64_t i = 0; i < 128; ++i) {
      const L2pKey fresh{MapGranularity::kPage, kLpns + i};
      walk.Insert(fresh, Ppn{i});
      probe.Insert(fresh, Ppn{i});
      pool.push_back(fresh);
      ASSERT_NO_FATAL_FAILURE(expect_same("trial " + std::to_string(trial) +
                                          " fresh insert " + std::to_string(i)));
    }
  }
}

TEST(L2PCacheTest, StatsTrackHitRate) {
  L2PCache c(SmallCacheCfg(4));
  c.Insert({MapGranularity::kPage, 1}, Ppn{1});
  (void)c.Lookup({MapGranularity::kPage, 1});
  (void)c.Lookup({MapGranularity::kPage, 2});
  EXPECT_EQ(c.stats().lookups, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(c.stats().HitRate(), 0.5);
}

TEST(L2PCacheTest, KeyForComputesUnitIndex) {
  L2PCache c(SmallCacheCfg(4));
  EXPECT_EQ(c.KeyFor(MapGranularity::kPage, Lpn{4097}).index, 4097u);
  EXPECT_EQ(c.KeyFor(MapGranularity::kChunk, Lpn{4097}).index, 4u);
  EXPECT_EQ(c.KeyFor(MapGranularity::kZone, Lpn{4097}).index, 1u);
}

// --- l2p cache: eviction order & capacity (pins the intrusive-LRU
// rewrite against the seed list+map semantics) ---

TEST(L2PCacheTest, EvictionFollowsExactLruOrder) {
  L2PCache c(SmallCacheCfg(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{i});
  }
  // Recency now (most..least): 3 2 1 0. Touch 0 and 2: 2 0 3 1.
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 0}).has_value());
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 2}).has_value());
  // Each insert at capacity evicts exactly the current LRU entry.
  c.Insert({MapGranularity::kPage, 10}, Ppn{10});  // evicts 1
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 1}).has_value());
  c.Insert({MapGranularity::kPage, 11}, Ppn{11});  // evicts 3
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 3}).has_value());
  c.Insert({MapGranularity::kPage, 12}, Ppn{12});  // evicts 0
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 0}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 2}).has_value());
  EXPECT_EQ(c.stats().evictions, 3u);
  EXPECT_EQ(c.size(), 4u);
}

TEST(L2PCacheTest, RefreshInPlaceUpdatesValueAndRecency) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kPage, 1}, Ppn{10});
  c.Insert({MapGranularity::kPage, 2}, Ppn{20});
  c.Insert({MapGranularity::kPage, 1}, Ppn{11});  // refresh: new ppn, MRU
  EXPECT_EQ(c.Peek({MapGranularity::kPage, 1}).value(), Ppn{11});
  EXPECT_EQ(c.stats().insertions, 2u);  // refresh is not a new insertion
  c.Insert({MapGranularity::kPage, 3}, Ppn{30});  // evicts 2, not 1
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 1}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 2}).has_value());
}

TEST(L2PCacheTest, RefreshCanFlipPinnedState) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  EXPECT_EQ(c.pinned_count(), 1u);
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/false);
  EXPECT_EQ(c.pinned_count(), 0u);
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  EXPECT_EQ(c.pinned_count(), 1u);
}

TEST(L2PCacheTest, CapacityNeverExceededUnderChurn) {
  L2PCache c(SmallCacheCfg(8));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    c.Insert({MapGranularity::kPage, i * 37}, Ppn{i});
    ASSERT_LE(c.size(), 8u);
  }
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.stats().insertions, 1000u);
  EXPECT_EQ(c.stats().evictions, 992u);
  // The survivors are exactly the 8 most recently inserted keys.
  for (std::uint64_t i = 992; i < 1000; ++i) {
    EXPECT_TRUE(c.Peek({MapGranularity::kPage, i * 37}).has_value());
  }
}

TEST(L2PCacheTest, EraseThenReinsertReusesCapacity) {
  L2PCache c(SmallCacheCfg(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{i});
  }
  c.Erase({MapGranularity::kPage, 2});
  EXPECT_EQ(c.size(), 3u);
  c.Insert({MapGranularity::kPage, 99}, Ppn{99});
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.stats().evictions, 0u);  // freed capacity, no eviction needed
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 99}).has_value());
}

TEST(L2PCacheTest, ZeroCapacityCacheAcceptsNothing) {
  L2PCache c(SmallCacheCfg(0));
  c.Insert({MapGranularity::kPage, 1}, Ppn{1});
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.Lookup({MapGranularity::kPage, 1}).has_value());
  EXPECT_EQ(c.stats().lookups, 1u);
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(L2PCacheTest, HeavyChurnKeepsHashIndexConsistent) {
  // Backward-shift deletion stress: interleaved insert/erase with keys
  // that collide across granularities; every surviving entry must stay
  // findable with its exact value.
  L2PCache c(SmallCacheCfg(32));
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      c.Insert({MapGranularity::kPage, round * 32 + i}, Ppn{round * 32 + i});
    }
    for (std::uint64_t i = 0; i < 16; ++i) {
      c.Erase({MapGranularity::kPage, round * 32 + i * 2});
    }
    for (std::uint64_t i = 0; i < 32; ++i) {
      const std::uint64_t k = round * 32 + i;
      auto hit = c.Peek({MapGranularity::kPage, k});
      if (i % 2 == 0 && hit.has_value()) FAIL() << "erased key resurfaced: " << k;
      if (i % 2 == 1) {
        ASSERT_TRUE(hit.has_value()) << "lost key " << k;
        EXPECT_EQ(hit.value(), Ppn{k});
      }
    }
  }
}

// --- translator ---

/// Resolver over a flat imaginary layout: aggregated unit i maps lpn to
/// ppn = 100000*gran + lpn (keeps the math visible in expectations).
class FlatResolver : public PhysicalResolver {
 public:
  std::optional<Ppn> ResolveAggregated(MapGranularity gran, std::uint64_t,
                                       Lpn lpn) const override {
    return Ppn{100000ull * static_cast<std::uint64_t>(gran) + lpn.value()};
  }
};

class TranslatorTest : public ::testing::Test {
 protected:
  TranslatorTest()
      : table_(SmallMapGeo()), cache_(SmallCacheCfg(64)) {}

  Translator Make(L2pSearchStrategy s, bool hybrid = true,
                  std::uint32_t prefetch = 0) {
    return Translator(table_, cache_, resolver_, TranslatorConfig{s, hybrid, prefetch});
  }

  /// Map zone 0 fully, zone-aggregated; zone 1 chunk-aggregated in chunk
  /// 4 only; lpns 8192.. page-mapped.
  void PopulateMixed() {
    for (std::uint64_t i = 0; i < 12288; ++i) table_.Set(Lpn{i}, Ppn{7000000 + i});
    table_.SetAggregated(Lpn{0}, 4096, MapGranularity::kZone);
    table_.SetAggregated(Lpn{4096}, 1024, MapGranularity::kChunk);
  }

  MappingTable table_;
  L2PCache cache_;
  FlatResolver resolver_;
};

TEST_F(TranslatorTest, UnmappedLpnFails) {
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  EXPECT_EQ(tr.Translate(Lpn{99}).status().code(), StatusCode::kOutOfRange);
}

TEST_F(TranslatorTest, BitmapFetchesExactlyOnce) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  auto r = tr.Translate(Lpn{123});  // zone-aggregated
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().cache_hit);
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kZone);
  EXPECT_EQ(r.value().ppn, Ppn{200000 + 123});  // resolver(kZone)
  // Second read of anywhere in zone 0: cache hit through the zone entry.
  auto r2 = tr.Translate(Lpn{4000});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().cache_hit);
  EXPECT_EQ(tr.stats().map_fetches, 1u);
}

TEST_F(TranslatorTest, MultipleWalksDownTheGranularities) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  // Page-mapped lpn far from zone/chunk bases: LZA, LCA, LPA = 3 fetches.
  auto r = tr.Translate(Lpn{8192 + 1500});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 3u);
  EXPECT_EQ(r.value().gran, MapGranularity::kPage);
  EXPECT_EQ(r.value().ppn, Ppn{7000000 + 8192 + 1500});
}

TEST_F(TranslatorTest, MultipleStopsEarlyOnZoneAggregate) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  auto r = tr.Translate(Lpn{2000});  // zone 0, aggregated
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kZone);
}

TEST_F(TranslatorTest, MultipleChunkCostsTwoFetches) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  auto r = tr.Translate(Lpn{4096 + 500});  // chunk-aggregated, chunk base == zone base
  ASSERT_TRUE(r.ok());
  // Zone base IS the chunk base here, so the first fetch answers: 1 fetch.
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kChunk);
}

TEST_F(TranslatorTest, PinnedMissImpliesPage) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kPinned);
  // Zone aggregate generated -> pinned into the cache.
  tr.OnAggregateGenerated(MapGranularity::kZone, 0, Ppn{100});
  auto hit = tr.Translate(Lpn{55});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  // Page-mapped miss: exactly one fetch.
  auto r = tr.Translate(Lpn{9000});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
}

TEST_F(TranslatorTest, PageModeUsesPageEntriesOnly) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false);
  auto r = tr.Translate(Lpn{123});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().gran, MapGranularity::kPage);
  EXPECT_EQ(r.value().ppn, Ppn{7000000 + 123});  // direct table ppn
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
}

TEST_F(TranslatorTest, PrefetchWindowFillsFollowingEntries) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false,
                       /*prefetch=*/16);
  auto r = tr.Translate(Lpn{8192});
  ASSERT_TRUE(r.ok());
  // The next 16 lpns are now cached without extra fetches.
  for (std::uint64_t i = 1; i <= 16; ++i) {
    auto n = tr.Translate(Lpn{8192 + i});
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().cache_hit) << i;
  }
  EXPECT_EQ(tr.stats().map_fetches, 1u);
}

TEST_F(TranslatorTest, PrefetchStopsAtMapPageBoundary) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, false, 1023);
  // Lpn 4095 is the last entry of map page 0: nothing after it can be
  // prefetched from the same page read.
  auto r = tr.Translate(Lpn{4095});
  ASSERT_TRUE(r.ok());
  auto n = tr.Translate(Lpn{4096});
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n.value().cache_hit);
}

TEST_F(TranslatorTest, StatsAccumulate) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  (void)tr.Translate(Lpn{1});
  (void)tr.Translate(Lpn{2});
  EXPECT_EQ(tr.stats().translations, 2u);
  EXPECT_EQ(tr.stats().cache_hits, 1u);  // second resolves via zone entry
  EXPECT_DOUBLE_EQ(tr.stats().MissRate(), 0.5);
}

TEST_F(TranslatorTest, BitmapSramScalesWithCapacity) {
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  // 2 bits x 16384 lpns = 4096 bytes.
  EXPECT_EQ(tr.StrategySramBytes(), 4096u);
  Translator tm = Make(L2pSearchStrategy::kMultiple);
  EXPECT_EQ(tm.StrategySramBytes(), 0u);
}

}  // namespace
}  // namespace conzone
