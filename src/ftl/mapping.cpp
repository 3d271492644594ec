#include "ftl/mapping.hpp"

#include <algorithm>
#include <cassert>

#include "common/units.hpp"

namespace conzone {

MappingTable::MappingTable(const MappingGeometry& geometry)
    : geo_(geometry), div_lpns_per_zone_(geometry.lpns_per_zone) {
  assert(geo_.num_lpns > 0);
  assert(geo_.lpns_per_chunk > 0 && geo_.lpns_per_zone > 0);
  assert(geo_.lpns_per_zone % geo_.lpns_per_chunk == 0 &&
         "a zone must be a whole number of chunks");
  // Zero pages: an entry becomes resident host memory once it is written.
  entries_.resize(static_cast<std::size_t>(geo_.num_lpns));
  zone_mapped_.resize(static_cast<std::size_t>(CeilDiv(geo_.num_lpns, geo_.lpns_per_zone)));
  zone_changed_.assign(zone_mapped_.size(), 1);
}

void MappingTable::CountRun(std::uint64_t lpn, std::uint64_t count) {
  mapped_ += count;
  for (const std::uint64_t end = lpn + count; lpn < end;) {
    const std::uint64_t z = div_lpns_per_zone_.Div(lpn);
    const std::uint64_t n = std::min(end, (z + 1) * geo_.lpns_per_zone) - lpn;
    zone_mapped_[static_cast<std::size_t>(z)] += static_cast<std::uint32_t>(n);
    zone_changed_[static_cast<std::size_t>(z)] = 1;
    lpn += n;
  }
}

Ppn MappingTable::Set(Lpn lpn, Ppn ppn) {
  assert(lpn.value() < geo_.num_lpns);
  std::uint64_t& e = entries_[static_cast<std::size_t>(lpn.value())];
  const auto z = static_cast<std::size_t>(div_lpns_per_zone_.Div(lpn.value()));
  const Ppn old((e & kPpnMask) - 1);  // 0 - 1 wraps to Ppn::Invalid()
  if (!old.valid()) {
    ++mapped_;
    ++zone_mapped_[z];
  }
  zone_changed_[z] = 1;
  e = Pack(ppn, MapGranularity::kPage);
  return old;
}

void MappingTable::InstallRunAtMount(Lpn lpn, Ppn ppn, std::uint64_t count,
                                     MapGranularity gran) {
  assert(lpn.value() + count <= geo_.num_lpns);
  assert(count == 0 || ppn.value() + count <= kPpnMask);
  std::uint64_t* e = &entries_[static_cast<std::size_t>(lpn.value())];
  // ppn + 1 + i stays below the map bits (assert above), so each entry
  // is the run's first word plus i: one plain store per entry.
  for (std::uint64_t i = 0; i < count; ++i) e[i] = Pack(ppn, gran) + i;
  CountRun(lpn.value(), count);
}

void MappingTable::ClearForMountExcept(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& keep) {
  // Clear [lo, hi) zone by zone, skipping zones whose count is 0: they
  // hold only default entries already (the counts are reset below, after
  // every gap has been cleared).
  auto clear_gap = [&](std::uint64_t lo, std::uint64_t hi) {
    while (lo < hi) {
      const std::uint64_t z = div_lpns_per_zone_.Div(lo);
      const std::uint64_t zone_end = std::min(hi, (z + 1) * geo_.lpns_per_zone);
      if (zone_mapped_[static_cast<std::size_t>(z)] != 0) {
        std::fill(entries_.begin() + static_cast<std::ptrdiff_t>(lo),
                  entries_.begin() + static_cast<std::ptrdiff_t>(zone_end), std::uint64_t{0});
      }
      lo = zone_end;
    }
  };
  std::uint64_t pos = 0;
  for (const auto& [lpn, count] : keep) {
    assert(lpn >= pos && lpn + count <= geo_.num_lpns &&
           "keep ranges must be sorted, disjoint and in bounds");
    // max(): stay safe on release builds if the caller's list overlaps —
    // the region is still cleared-or-installed, never skipped.
    clear_gap(pos, lpn);
    pos = std::max(pos, lpn + count);
  }
  clear_gap(pos, geo_.num_lpns);
  mapped_ = 0;
  std::fill(zone_mapped_.begin(), zone_mapped_.end(), 0u);
  std::fill(zone_changed_.begin(), zone_changed_.end(), 1);
}

void MappingTable::Unmap(Lpn lpn) {
  assert(lpn.value() < geo_.num_lpns);
  std::uint64_t& e = entries_[static_cast<std::size_t>(lpn.value())];
  if ((e & kPpnMask) != 0) {
    const auto z = static_cast<std::size_t>(div_lpns_per_zone_.Div(lpn.value()));
    --mapped_;
    --zone_mapped_[z];
    zone_changed_[z] = 1;
  }
  e = 0;
}

MapEntry MappingTable::Get(Lpn lpn) const {
  assert(lpn.value() < geo_.num_lpns);
  const std::uint64_t w = entries_[static_cast<std::size_t>(lpn.value())];
  MapEntry e;
  e.ppn = Ppn((w & kPpnMask) - 1);  // 0 - 1 wraps to Ppn::Invalid()
  e.gran = static_cast<MapGranularity>(w >> kGranShift);
  return e;
}

void MappingTable::SetAggregated(Lpn start, std::uint64_t count, MapGranularity gran) {
  assert(start.value() + count <= geo_.num_lpns);
  const std::uint64_t bits = static_cast<std::uint64_t>(gran) << kGranShift;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t& e = entries_[static_cast<std::size_t>(start.value() + i)];
    assert((e & kPpnMask) != 0 && "cannot aggregate unmapped entries");
    e = (e & kPpnMask) | bits;
  }
}

void MappingTable::DowngradeToPage(Lpn start, std::uint64_t count) {
  assert(start.value() + count <= geo_.num_lpns);
  for (std::uint64_t i = 0; i < count; ++i) {
    entries_[static_cast<std::size_t>(start.value() + i)] &= kPpnMask;
  }
}

std::uint64_t MappingTable::NumMapPages() const {
  return CeilDiv(geo_.num_lpns, geo_.entries_per_map_page);
}

void MappingTable::ClearAllForMount() {
  std::fill(entries_.begin(), entries_.end(), std::uint64_t{0});
  mapped_ = 0;
  std::fill(zone_mapped_.begin(), zone_mapped_.end(), 0u);
  std::fill(zone_changed_.begin(), zone_changed_.end(), 1);
}

}  // namespace conzone
