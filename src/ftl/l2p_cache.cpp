#include "ftl/l2p_cache.hpp"

#include <cassert>

namespace conzone {

namespace {
std::uint64_t NextPow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

L2PCache::L2PCache(const L2pCacheConfig& config)
    : cfg_(config),
      max_entries_(config.MaxEntries()),
      div_lpns_per_chunk_(config.lpns_per_chunk),
      div_lpns_per_zone_(config.lpns_per_zone) {
  assert(cfg_.lpns_per_zone % cfg_.lpns_per_chunk == 0);
  if (max_entries_ > 0) {
    slots_.resize(max_entries_);
    free_slots_.reserve(max_entries_);
    // Free list popped from the back: push in reverse so slot 0 is used
    // first (purely cosmetic; any order works).
    for (std::uint64_t i = max_entries_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
    // Load factor <= 0.5 keeps linear-probe chains short.
    table_.assign(NextPow2(max_entries_ * 2), kNil);
    table_mask_ = table_.size() - 1;
  }
}

std::uint64_t L2PCache::UnitLpns(MapGranularity g) const {
  switch (g) {
    case MapGranularity::kPage: return 1;
    case MapGranularity::kChunk: return cfg_.lpns_per_chunk;
    case MapGranularity::kZone: return cfg_.lpns_per_zone;
  }
  return 1;
}

L2pKey L2PCache::KeyFor(MapGranularity g, Lpn lpn) const {
  switch (g) {
    case MapGranularity::kPage: return L2pKey{g, lpn.value()};
    case MapGranularity::kChunk: return L2pKey{g, div_lpns_per_chunk_.Div(lpn.value())};
    case MapGranularity::kZone: return L2pKey{g, div_lpns_per_zone_.Div(lpn.value())};
  }
  return L2pKey{g, lpn.value()};
}

std::uint64_t L2PCache::HashKey(std::uint64_t key) {
  // SplitMix64 finalizer: cheap, and full avalanche so linear probing
  // sees uniformly spread buckets even for the stride-patterned keys the
  // granularity encoding produces.
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return key;
}

std::size_t L2PCache::FindBucket(std::uint64_t key, bool* found) const {
  std::size_t b = HashKey(key) & table_mask_;
  while (true) {
    const std::uint32_t s = table_[b];
    if (s == kNil) {
      *found = false;
      return b;
    }
    if (slots_[s].key == key) {
      *found = true;
      return b;
    }
    b = (b + 1) & table_mask_;
  }
}

void L2PCache::TableErase(std::size_t bucket) {
  // Backward-shift deletion: close the hole by moving displaced entries
  // whose home bucket lies outside the vacated gap.
  std::size_t hole = bucket;
  table_[hole] = kNil;
  std::size_t i = hole;
  while (true) {
    i = (i + 1) & table_mask_;
    const std::uint32_t s = table_[i];
    if (s == kNil) return;
    const std::size_t home = HashKey(slots_[s].key) & table_mask_;
    // Move s into the hole unless its home bucket sits in (hole, i]
    // (cyclically) — in that case the probe chain is intact without it.
    const bool home_in_gap =
        (hole < i) ? (home > hole && home <= i) : (home > hole || home <= i);
    if (!home_in_gap) {
      table_[hole] = s;
      table_[i] = kNil;
      hole = i;
    }
  }
}

void L2PCache::LruUnlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    lru_head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    lru_tail_ = s.prev;
  }
  s.prev = s.next = kNil;
}

void L2PCache::LruPushFront(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void L2PCache::LruMoveToFront(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  LruUnlink(slot);
  LruPushFront(slot);
}

std::optional<Ppn> L2PCache::Lookup(const L2pKey& key) {
  ++stats_.lookups;
  if (size_ == 0) return std::nullopt;
  bool found = false;
  const std::size_t b = FindBucket(key.Encoded(), &found);
  if (!found) return std::nullopt;
  ++stats_.hits;
  const std::uint32_t slot = table_[b];
  LruMoveToFront(slot);
  return slots_[slot].base_ppn;
}

std::optional<Ppn> L2PCache::Peek(const L2pKey& key) const {
  if (size_ == 0) return std::nullopt;
  bool found = false;
  const std::size_t b = FindBucket(key.Encoded(), &found);
  if (!found) return std::nullopt;
  return slots_[table_[b]].base_ppn;
}

void L2PCache::RemoveSlot(std::uint32_t slot, std::size_t bucket) {
  if (slots_[slot].pinned) --pinned_count_;
  LruUnlink(slot);
  TableErase(bucket);
  free_slots_.push_back(slot);
  --size_;
}

void L2PCache::EvictOne() {
  // Scan from the LRU end, skipping pinned entries (they also live in
  // the chain but are exempt from eviction).
  for (std::uint32_t s = lru_tail_; s != kNil; s = slots_[s].prev) {
    if (slots_[s].pinned) continue;
    bool found = false;
    const std::size_t b = FindBucket(slots_[s].key, &found);
    assert(found);
    RemoveSlot(s, b);
    ++stats_.evictions;
    return;
  }
}

void L2PCache::Insert(const L2pKey& key, Ppn base_ppn, bool pinned) {
  if (max_entries_ == 0) return;
  bool found = false;
  std::size_t b = FindBucket(key.Encoded(), &found);
  if (found) {
    // Refresh in place.
    Slot& s = slots_[table_[b]];
    if (s.pinned && !pinned) --pinned_count_;
    if (!s.pinned && pinned) ++pinned_count_;
    s.base_ppn = base_ppn;
    s.pinned = pinned;
    LruMoveToFront(table_[b]);
    return;
  }
  if (size_ >= max_entries_) {
    if (pinned_count_ >= max_entries_ && !pinned) {
      // Nothing evictable; drop the insertion rather than overflow SRAM.
      ++stats_.rejected_insertions;
      return;
    }
    EvictOne();
    if (size_ >= max_entries_) {
      ++stats_.rejected_insertions;
      return;
    }
    // The eviction may have shifted buckets; re-locate the insert point.
    b = FindBucket(key.Encoded(), &found);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[slot];
  s.key = key.Encoded();
  s.base_ppn = base_ppn;
  s.pinned = pinned;
  table_[b] = slot;
  LruPushFront(slot);
  ++size_;
  if (pinned) ++pinned_count_;
  ++stats_.insertions;
}

void L2PCache::Erase(const L2pKey& key) {
  if (size_ == 0) return;
  bool found = false;
  const std::size_t b = FindBucket(key.Encoded(), &found);
  if (!found) return;
  RemoveSlot(table_[b], b);
}

void L2PCache::EvictCoveredBy(const L2pKey& key) {
  const std::uint64_t unit = UnitLpns(key.gran);
  const std::uint64_t start = key.index * unit;
  if (key.gran == MapGranularity::kPage) return;
  // Chunk entries covered (only when key is a zone).
  if (key.gran == MapGranularity::kZone) {
    const std::uint64_t chunks = unit / cfg_.lpns_per_chunk;
    const std::uint64_t first = start / cfg_.lpns_per_chunk;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      Erase(L2pKey{MapGranularity::kChunk, first + c});
    }
  }
  // Page entries covered. Ranges are at most one zone (4096 keys) — cheap
  // relative to the flash ops that trigger aggregation.
  for (std::uint64_t i = 0; i < unit; ++i) {
    Erase(L2pKey{MapGranularity::kPage, start + i});
  }
}

void L2PCache::InvalidateLpnRange(Lpn start, std::uint64_t count) {
  // Walk the resident entries (at most max_entries_) instead of probing
  // every page, chunk and zone key of the range: callers pass whole
  // zones or the whole device. Backward-shift deletion leaves the same
  // table whatever order keys are erased in, so LRU order is as good as
  // key order.
  const std::uint64_t lo = start.value();
  const std::uint64_t hi = lo + count;  // exclusive
  for (std::uint32_t s = lru_head_; s != kNil;) {
    const Slot& e = slots_[s];
    const std::uint32_t next = e.next;
    const std::uint64_t unit = UnitLpns(static_cast<MapGranularity>(e.key & 3));
    const std::uint64_t first = (e.key >> 2) * unit;
    if (first < hi && first + unit > lo) {
      bool found = false;
      const std::size_t b = FindBucket(e.key, &found);
      assert(found);
      RemoveSlot(s, b);
    }
    s = next;
  }
}

}  // namespace conzone
