#include "gc/page_log.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace conzone {

SimTime ReadLiveSlots(FlashArray& array, FlashTimingEngine& engine, SuperblockId victim,
                      SimTime issue, std::vector<Ppn>& old_ppns,
                      std::vector<SlotWrite>& live) {
  const FlashGeometry& geo = array.geometry();
  SimTime reads_done = issue;
  for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
    const BlockId b = geo.BlockOfSuperblock(victim, ChipId{c});
    const std::uint32_t used = array.NextProgramSlot(b);
    std::uint32_t page_live = 0;
    std::uint32_t page_retry = 0;
    std::uint32_t current_page = std::numeric_limits<std::uint32_t>::max();
    auto read_page = [&] {
      if (page_live == 0) return;
      array.CountPageRead();
      reads_done = Later(reads_done, engine.ReadPage(ChipId{c}, geo.CellOfBlock(b),
                                                     page_live * geo.slot_size, issue,
                                                     page_retry));
      page_live = 0;
      page_retry = 0;
    };
    for (std::uint32_t s = 0; s < used; ++s) {
      const std::uint32_t page = s / geo.SlotsPerPage();
      const Ppn ppn = geo.SlotAt(geo.PageAt(b, page), s % geo.SlotsPerPage());
      if (array.StateOfSlot(ppn) != SlotState::kValid) continue;
      if (page != current_page) {
        read_page();
        current_page = page;
      }
      ++page_live;
      const SlotRead r = array.ReadSlot(ppn);
      if (r.retry_level > page_retry) page_retry = r.retry_level;
      old_ppns.push_back(ppn);
      live.push_back(SlotWrite{r.lpn, r.token});
    }
    read_page();
  }
  return reads_done;
}

Result<SimTime> EraseOrRetire(FlashArray& array, FlashTimingEngine& engine, BlockId b,
                              SimTime issue) {
  const FlashGeometry& geo = array.geometry();
  Status st = array.EraseBlock(b);
  const SimTime done = engine.Erase(geo.ChipOfBlock(b), geo.CellOfBlock(b), issue);
  if (!st.ok()) {
    if (st.code() != StatusCode::kMediaError) return st;
    array.ScrubBlock(b);
    array.mutable_reliability().recovery_time +=
        engine.timing().For(geo.CellOfBlock(b)).erase_latency;
  }
  return done;
}

Result<EraseResult> EraseVictim(FlashArray& array, FlashTimingEngine& engine,
                                SuperblockPool& pool, SuperblockId victim, SimTime issue) {
  const FlashGeometry& geo = array.geometry();
  const std::uint64_t mark = array.MarkJournal();
  EraseResult out{issue};
  std::uint32_t healthy_erased = 0;
  for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
    const BlockId b = geo.BlockOfSuperblock(victim, ChipId{c});
    if (array.IsRetired(b)) {
      array.ScrubBlock(b);
      continue;
    }
    auto erased = EraseOrRetire(array, engine, b, issue);
    if (!erased.ok()) return erased.status();
    out.done = Later(out.done, erased.value());
    if (!array.IsRetired(b)) ++healthy_erased;
  }
  array.StampJournal(mark, issue, out.done);
  if (healthy_erased > 0) {
    const bool slc = victim.value() < geo.NumSlcSuperblocks();
    if (Status st = slc ? pool.ReleaseSlc(victim) : pool.ReleaseNormal(victim); !st.ok()) {
      return st;
    }
    out.released = true;
  }
  return out;
}

PageLog::PageLog(FlashArray& array, FlashTimingEngine& engine, SuperblockPool& pool,
                 SlcAllocator& slc, WriteBufferPool& buffers,
                 std::vector<SimTime>& buffer_ready, MappingTable& table, L2PCache& cache,
                 Translator& translator, L2pLog* l2p_log, CellType map_media,
                 std::uint64_t token_salt)
    : array_(array),
      engine_(engine),
      pool_(pool),
      slc_(slc),
      buffers_(buffers),
      buffer_ready_(buffer_ready),
      table_(table),
      cache_(cache),
      translator_(translator),
      l2p_log_(l2p_log),
      alloc_(array, pool),
      geo_(array.geometry()),
      map_media_(map_media),
      token_salt_(token_salt),
      unit_slots_(geo_.slot_size ? geo_.program_unit / geo_.slot_size : 0),
      div_slots_per_page_(geo_.slot_size ? geo_.SlotsPerPage() : 0) {}

Status PageLog::SetMapping(Lpn lpn, Ppn ppn, Remap remap) {
  if (remap == Remap::kInPlace) {
    const MapEntry old = table_.Get(lpn);
    if (old.mapped() && array_.StateOfSlot(old.ppn) == SlotState::kValid) {
      if (Status st = array_.InvalidateSlot(old.ppn); !st.ok()) return st;
      ++stats_.overwrites;
    }
  }
  table_.Set(lpn, ppn);
  cache_.Erase(L2pKey{MapGranularity::kPage, lpn.value()});
  if (l2p_log_ != nullptr) l2p_log_->Append(1);
  return Status::Ok();
}

SimTime PageLog::ChargeBurns(SimTime issue) {
  SimTime done = issue;
  const SimDuration pulse = engine_.timing().For(geo_.normal_cell).program_latency;
  for (const ChipId chip : alloc_.last_failed_chips()) {
    done = Later(done,
                 engine_.Program(chip, geo_.normal_cell, geo_.program_unit, issue).data_in);
    array_.mutable_reliability().BookRedrive(pulse, unit_slots_);
  }
  return done;
}

Result<FlushTimes> PageLog::ProgramUnit(std::span<const SlotWrite> data, SimTime issue,
                                        Remap remap, bool after_burns) {
  std::span<const SlotWrite> unit = data;
  if (data.size() < unit_slots_) {
    padded_.assign(data.begin(), data.end());
    padded_.resize(unit_slots_, SlotWrite{Lpn::Invalid(), 0});
    unit = padded_;
  }
  auto res = alloc_.ProgramUnit(unit);
  if (!res.ok()) return res.status();
  SimTime burned = issue;
  if (!alloc_.last_failed_chips().empty()) burned = ChargeBurns(issue);
  const auto prog = engine_.Program(res.value().chip, geo_.normal_cell, geo_.program_unit,
                                    after_burns ? burned : issue);
  const std::span<const Ppn> ppns = res.value().ppns;
  for (std::size_t k = 0; k < data.size(); ++k) {
    if (Status st = SetMapping(data[k].lpn, ppns[k], remap); !st.ok()) return st;
  }
  for (std::size_t k = data.size(); k < ppns.size(); ++k) {
    // Padding carries no data; retire it at once.
    if (Status st = array_.InvalidateSlot(ppns[k]); !st.ok()) return st;
  }
  return FlushTimes{Later(burned, prog.data_in), prog.end};
}

Result<FlushTimes> PageLog::FlushExtent(const BufferedExtent& extent, SimTime now) {
  ++stats_.flushes;
  const std::span<const SlotWrite> slots(extent.slots);
  FlushTimes done{now, now};
  std::size_t i = 0;
  // Whole one-shot units into the log.
  for (; slots.size() - i >= unit_slots_; i += unit_slots_) {
    const std::uint64_t mark = array_.MarkJournal();
    auto unit = ProgramUnit(slots.subspan(i, unit_slots_), now, Remap::kInPlace);
    if (!unit.ok()) return unit.status();
    done.sram_free = Later(done.sram_free, unit.value().sram_free);
    done.media_done = Later(done.media_done, unit.value().media_done);
    // The unit's program and the overwrites it superseded share one
    // durability window.
    array_.StampJournal(mark, now, unit.value().media_done);
  }
  // Sub-unit remainder: through the SLC secondary buffer. Under page
  // mapping it simply lives there until GC migrates it.
  if (i < slots.size()) {
    ++stats_.premature_flushes;
    const std::uint64_t mark = array_.MarkJournal();
    const std::span<const SlotWrite> rest = slots.subspan(i);
    auto prog = slc_.Write(rest, engine_, now, [&](std::size_t k, Ppn ppn) {
      return SetMapping(rest[k].lpn, ppn, Remap::kInPlace);
    });
    if (!prog.ok()) return prog.status();
    done.sram_free = Later(done.sram_free, prog.value().data_in);
    done.media_done = Later(done.media_done, prog.value().end);
    array_.StampJournal(mark, now, prog.value().end);
  }
  return done;
}

Status PageLog::ReadSlot(Lpn lpn, SimTime t0, PageGrouper& groups,
                         std::vector<std::uint64_t>* tokens_out) {
  if (const std::uint64_t* tok = buffers_.BufferedToken(lpn)) {
    if (tokens_out) tokens_out->push_back(*tok);
    ++stats_.buffer_ram_reads;
    return Status::Ok();
  }
  auto tr = translator_.Translate(lpn);
  if (!tr.ok()) return tr.status();
  SimTime dep = t0;
  // L2P miss: dependent metadata fetches, one after another.
  for (std::uint64_t map_page : tr.value().map_pages_fetched) {
    const ChipId chip{map_page % geo_.NumChips()};
    array_.CountPageRead();
    dep = engine_.ReadPage(chip, map_media_, geo_.page_size, dep);
  }
  const Ppn ppn = tr.value().ppn;
  const SlotRead r = array_.ReadSlot(ppn);
  if (r.state != SlotState::kValid || r.lpn != lpn) {
    return Status::Internal("in-place mapping points at stale slot (lpn " +
                            std::to_string(lpn.value()) + ")");
  }
  if (tokens_out) tokens_out->push_back(r.token);
  groups.Add(FlashPageId(div_slots_per_page_.Div(ppn.value())), dep, r.retry_level);
  return Status::Ok();
}

SuperblockId PageLog::SelectVictim(Region region) const {
  const bool slc = region == Region::kSlc;
  const std::uint32_t begin = slc ? 0 : geo_.NumSlcSuperblocks();
  const std::uint32_t end = slc ? begin + geo_.NumSlcSuperblocks()
                                : begin + pool_.NormalPoolCount();
  const SuperblockId open = slc ? slc_.current_superblock() : alloc_.current_superblock();
  SuperblockId best;
  std::uint64_t best_valid = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t s = begin; s < end; ++s) {
    const SuperblockId sb{s};
    if (sb == open) continue;
    std::uint64_t valid = 0, used = 0;
    std::uint32_t healthy = 0;
    for (std::uint32_t c = 0; c < geo_.NumChips(); ++c) {
      const BlockId b = geo_.BlockOfSuperblock(sb, ChipId{c});
      valid += array_.ValidSlots(b);
      used += array_.NextProgramSlot(b);
      if (!array_.IsRetired(b)) ++healthy;
    }
    if (used == 0) continue;     // never written
    if (healthy == 0) continue;  // fully retired: nothing reclaimable
    // A free superblock can keep a stale cursor in a retired block, so
    // free-list members are skipped explicitly.
    if (valid < best_valid && !(slc ? pool_.IsFreeSlc(sb) : pool_.IsFreeNormal(sb))) {
      best_valid = valid;
      best = sb;
    }
  }
  return best;
}

Result<SimTime> PageLog::Collect(Region region, SimTime now) {
  const bool slc = region == Region::kSlc;
  auto free_count = [&] { return slc ? pool_.FreeSlcCount() : pool_.FreeNormalCount(); };
  ++stats_.gc_runs;
  SimTime t = now;
  std::size_t last_free = free_count();
  int stalled = 0;
  while (free_count() < kGcReclaimTarget) {
    const SuperblockId victim = SelectVictim(region);
    if (!victim.valid()) {
      if (free_count() == 0) {
        return Status::ResourceExhausted("page log GC: region exhausted, no victim");
      }
      break;
    }
    // Migrating SLC victims into the log always frees SLC, but a log full
    // of valid data can only churn: stop when a second round frees
    // nothing.
    if (!slc && free_count() <= last_free && ++stalled > 1) break;
    last_free = free_count();

    const std::uint64_t migrate_mark = array_.MarkJournal();
    const SimTime migrate_start = t;
    old_ppns_.clear();
    live_.clear();
    const SimTime reads_done = ReadLiveSlots(array_, engine_, victim, t, old_ppns_, live_);
    for (std::size_t i = 0; i < live_.size(); i += unit_slots_) {
      const std::size_t n = std::min<std::size_t>(unit_slots_, live_.size() - i);
      auto unit = ProgramUnit(std::span<const SlotWrite>(live_).subspan(i, n), reads_done,
                              Remap::kRepoint);
      if (!unit.ok()) return unit.status();
      // A unit's source copies die only once it is programmed, so a
      // failed program leaves them valid and mapped.
      for (std::size_t k = i; k < i + n; ++k) {
        if (Status st = array_.InvalidateSlot(old_ppns_[k]); !st.ok()) return st;
      }
      t = Later(t, Later(unit.value().sram_free, unit.value().media_done));
      stats_.gc_slots_migrated += n;
    }
    // Two-phase stamping (GC is not atomic under power loss): the
    // migration — source invalidates plus re-log programs — closes when
    // the last program pulse ends; the erases get their own window with
    // their true issue time, or a mid-GC cut would mislabel never-issued
    // erases as torn and destroy restorable source data.
    array_.StampJournal(migrate_mark, migrate_start, t);
    auto erased = EraseVictim(array_, engine_, pool_, victim, t);
    if (!erased.ok()) return erased.status();
    t = erased.value().done;
  }
  return t;
}

}  // namespace conzone
