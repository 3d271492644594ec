// Read-request page grouping.
//
// Every distinct flash page a read request touches costs one sense plus
// one transfer of the slots it serves there, no matter how the slots are
// interleaved (SLC staging stripes consecutive LPNs across chips). The
// devices' read paths collect those groups here, then call ReadPage
// once per group in order of first appearance: that order is the
// order the pages reach the chip and channel timelines, so it is part of
// the simulated result.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace conzone {

/// One flash page touched by a read request and the slots it serves.
struct PageGroup {
  FlashPageId page;
  std::uint32_t slots = 0;
  SimTime dep;                // latest metadata fetch feeding this page
  std::uint32_t retries = 0;  // max read-retry level across the slots
};

/// Groups one request's slots by flash page in O(1) per call (one slot or
/// a run of one page's slots), keeping first-appearance order. A page ->
/// group index (open addressing, linear probing) finds a page's group. A
/// request builds the index only when it reaches a second distinct page,
/// so a read of one page never hashes; the buckets carry the epoch of the
/// request that filled them, so starting an index bumps the epoch instead
/// of clearing it. Allocation-free once the index has grown to the
/// largest request seen.
class PageGrouper {
 public:
  /// Start a new request: drops the previous request's groups.
  void Clear() { groups_.clear(); }

  /// Count `slots` (> 0) slots on `page`, fed by a metadata fetch ending
  /// at `dep` and read at worst read-retry level `retries`: the same
  /// groups as that many one-slot calls.
  void Add(FlashPageId page, SimTime dep, std::uint32_t retries, std::uint32_t slots = 1) {
    assert(slots > 0);
    if (groups_.empty()) {
      groups_.push_back(PageGroup{page, slots, dep, retries});
      return;
    }
    // Consecutive slots of one page (the common run) skip the index.
    if (groups_.back().page == page) {
      Merge(groups_.back(), dep, retries, slots);
      return;
    }
    if (groups_.size() == 1) {
      BeginIndex();
    } else if (2 * (groups_.size() + 1) > index_.size()) {
      Grow();
    }
    std::size_t b = Home(page);
    for (; index_[b].epoch == epoch_; b = (b + 1) & mask_) {
      if (index_[b].page == page) {
        Merge(groups_[index_[b].group], dep, retries, slots);
        return;
      }
    }
    index_[b] = Bucket{page, epoch_, static_cast<std::uint32_t>(groups_.size())};
    groups_.push_back(PageGroup{page, slots, dep, retries});
  }

  /// The current request's groups, in first-appearance order.
  std::span<const PageGroup> groups() const { return groups_; }

 private:
  struct Bucket {
    FlashPageId page;
    std::uint32_t epoch = 0;  // occupied iff == epoch_
    std::uint32_t group = 0;  // index into groups_
  };

  static void Merge(PageGroup& g, SimTime dep, std::uint32_t retries, std::uint32_t slots) {
    g.slots += slots;
    g.dep = Later(g.dep, dep);
    if (retries > g.retries) g.retries = retries;
  }

  std::size_t Home(FlashPageId page) const {
    // Fibonacci hashing: the top bits of the product spread the strided
    // page numbers of chip-interleaved runs.
    return static_cast<std::size_t>((page.value() * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Index the request's first group under a fresh epoch.
  void BeginIndex();
  /// Double the index (load factor stays <= 1/2) and re-insert the
  /// request's groups.
  void Grow();
  /// Insert group `g`, known to be absent, into the index.
  void Place(std::uint32_t g);

  std::vector<PageGroup> groups_;
  std::vector<Bucket> index_;
  std::size_t mask_ = 0;    // index_.size() - 1 (a power of two)
  unsigned shift_ = 0;      // 64 - log2(index_.size())
  std::uint32_t epoch_ = 1;  // never 0, the stamp of a never-used bucket
};

}  // namespace conzone
