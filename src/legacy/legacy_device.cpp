#include "legacy/legacy_device.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <unordered_map>

namespace conzone {

namespace {
std::uint64_t DefaultToken(Lpn lpn) { return 0x1E6AC700ull ^ lpn.value(); }
}  // namespace

Status LegacyConfig::Validate() const {
  if (Status st = geometry.Validate(); !st.ok()) return st;
  if (Status st = buffers.Validate(); !st.ok()) return st;
  if (over_provision < 0.0 || over_provision >= 0.5) {
    return Status::InvalidArgument("legacy: over-provision must be in [0, 0.5)");
  }
  if (gc_low_watermark == 0 || gc_reclaim_target < gc_low_watermark) {
    return Status::InvalidArgument("legacy: bad GC watermarks");
  }
  if (host_link_bandwidth_bps == 0) {
    return Status::InvalidArgument("legacy: host link bandwidth must be > 0");
  }
  return Status::Ok();
}

Result<std::unique_ptr<LegacyDevice>> LegacyDevice::Create(const LegacyConfig& config) {
  if (Status st = config.Validate(); !st.ok()) return st;
  return std::unique_ptr<LegacyDevice>(new LegacyDevice(config));
}

LegacyDevice::LegacyDevice(const LegacyConfig& config)
    : cfg_([&] {
        LegacyConfig c = config;
        c.buffers.slot_bytes = c.geometry.slot_size;
        return c;
      }()),
      usable_bytes_(RoundDown(
          static_cast<std::uint64_t>(
              static_cast<double>(cfg_.geometry.NormalRegionBytes()) *
              (1.0 - cfg_.over_provision)),
          cfg_.geometry.program_unit)),
      array_(cfg_.geometry),
      engine_(cfg_.geometry, cfg_.timing),
      pool_(cfg_.geometry),
      slc_alloc_(array_, pool_),
      normal_alloc_(array_, pool_),
      buffers_(cfg_.buffers),
      table_(MappingGeometry{
          usable_bytes_ / cfg_.geometry.slot_size, cfg_.l2p.lpns_per_chunk,
          cfg_.l2p.lpns_per_zone,
          static_cast<std::uint32_t>(cfg_.geometry.page_size / 4)}),
      cache_(cfg_.l2p),
      translator_(table_, cache_, resolver_,
                  TranslatorConfig{L2pSearchStrategy::kBitmap, /*hybrid=*/false,
                                   cfg_.prefetch_window}) {
  buffer_ready_.resize(cfg_.buffers.num_buffers, SimTime::Zero());
}

DeviceInfo LegacyDevice::info() const {
  DeviceInfo di;
  di.name = "Legacy";
  di.capacity_bytes = usable_bytes_;
  di.zone_size_bytes = 0;
  di.num_zones = 0;
  di.slc_bytes = cfg_.geometry.SlcUsableBytesPerSuperblock() *
                 cfg_.geometry.NumSlcSuperblocks();
  di.io_alignment = cfg_.geometry.slot_size;
  return di;
}

Result<IoResult> LegacyDevice::Write(const IoRequest& req) {
  auto done = WriteImpl(req.offset, req.len, req.now, req.tokens);
  if (!done.ok()) return done.status();
  ++class_writes_[static_cast<std::size_t>(req.io_class)];
  return IoResult{done.value(), {}};
}

Result<IoResult> LegacyDevice::Read(const IoRequest& req) {
  IoResult res;
  auto done =
      ReadImpl(req.offset, req.len, req.now, req.want_tokens ? &res.tokens : nullptr);
  if (!done.ok()) return done.status();
  ++class_reads_[static_cast<std::size_t>(req.io_class)];
  res.done = done.value();
  return res;
}

StatsSnapshot LegacyDevice::Stats() const {
  StatsSnapshot s;
  s.host_bytes_written = stats_.host_bytes_written;
  s.host_bytes_read = stats_.host_bytes_read;
  s.flash_bytes_written =
      array_.counters().TotalSlotsProgrammed() * cfg_.geometry.slot_size;
  s.writes = stats_.writes;
  s.reads = stats_.reads;
  s.buffer_flushes = stats_.flushes;
  s.premature_flushes = stats_.premature_flushes;
  s.overwrites = stats_.overwrites;
  s.gc_runs = stats_.gc_runs;
  s.gc_slots_migrated = stats_.gc_slots_migrated;
  s.class_reads = class_reads_;
  s.class_writes = class_writes_;
  return s;
}

void LegacyDevice::ResetStats() {
  stats_ = LegacyStats{};
  class_reads_ = {};
  class_writes_ = {};
  translator_.ResetStats();
  cache_.ResetStats();
  array_.ResetCounters();
}

Status LegacyDevice::SetMapping(Lpn lpn, Ppn ppn) {
  const MapEntry old = table_.Get(lpn);
  if (old.mapped() && array_.StateOfSlot(old.ppn) == SlotState::kValid) {
    if (Status st = array_.InvalidateSlot(old.ppn); !st.ok()) return st;
    ++stats_.overwrites;
  }
  table_.Set(lpn, ppn);
  cache_.Erase(L2pKey{MapGranularity::kPage, lpn.value()});
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Result<SimTime> LegacyDevice::WriteImpl(std::uint64_t offset, std::uint64_t len,
                                        SimTime now,
                                    std::span<const std::uint64_t> tokens) {
  const std::uint64_t slot = cfg_.geometry.slot_size;
  if (offset % slot != 0 || len % slot != 0 || len == 0) {
    return Status::InvalidArgument("write must be 4 KiB aligned and non-empty");
  }
  if (len > usable_bytes_ || offset > usable_bytes_ - len) {
    return Status::OutOfRange("write beyond device capacity");
  }
  if (!tokens.empty() && tokens.size() != len / slot) {
    return Status::InvalidArgument("token count != written 4 KiB pages");
  }
  ++stats_.writes;
  stats_.host_bytes_written += len;

  SimTime t = now + cfg_.request_overhead;
  const unsigned __int128 xfer_ns = static_cast<unsigned __int128>(len) * 1000000000ull /
                                    cfg_.host_link_bandwidth_bps;
  t = host_link_.Reserve(t, SimDuration::Nanos(static_cast<std::uint64_t>(xfer_ns))).end;

  const std::uint64_t nslots = len / slot;
  const Lpn first_lpn = Lpn(offset / slot);
  // Streams have no zone identity; extents are keyed by contiguity only.
  const ZoneId stream{0};

  std::uint64_t i = 0;
  while (i < nslots) {
    const Lpn next = Lpn(first_lpn.value() + i);
    // The controller detects write streams: continue a matching extent,
    // otherwise take an empty buffer, otherwise evict the coldest one.
    const WriteBufferId buf = buffers_.PickBufferForStream(next);
    t = Later(t, buffer_ready_[static_cast<std::size_t>(buf.value())]);

    const BufferedExtent& cur = buffers_.Contents(buf);
    const bool contiguous =
        cur.empty() || Lpn(cur.first_lpn.value() + cur.slot_count()) == next;
    const bool overlaps =
        !cur.empty() && next.value() < cur.first_lpn.value() + cur.slot_count() &&
        next.value() + (nslots - i) > cur.first_lpn.value();
    if (!contiguous || overlaps) {
      // Stream break (random write, rewrite of buffered data, or buffer
      // steal): flush and start a fresh extent.
      auto done = FlushExtent(buffers_.Take(buf, /*conflict=*/true), t);
      if (!done.ok()) return done.status();
      buffer_ready_[static_cast<std::size_t>(buf.value())] = done.value().sram_free;
      t = done.value().sram_free;
    }

    const std::uint64_t free = buffers_.FreeSlots(buf);
    const std::uint64_t n = std::min(free, nslots - i);
    // An older copy of these slots waiting in another buffer goes to
    // media first: otherwise reads would find it before this one, and a
    // later flush of it would supersede this write.
    for (WriteBufferId o = buffers_.OverlappingBuffer(next, n, buf); o.valid();
         o = buffers_.OverlappingBuffer(next, n, buf)) {
      t = Later(t, buffer_ready_[static_cast<std::size_t>(o.value())]);
      auto done = FlushExtent(buffers_.Take(o, /*conflict=*/true), t);
      if (!done.ok()) return done.status();
      buffer_ready_[static_cast<std::size_t>(o.value())] = done.value().sram_free;
      t = done.value().sram_free;
    }
    std::vector<SlotWrite> chunk;
    chunk.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      const Lpn lpn = Lpn(first_lpn.value() + i + k);
      chunk.push_back(
          SlotWrite{lpn, tokens.empty() ? DefaultToken(lpn) : tokens[i + k]});
    }
    if (Status st = buffers_.AppendTo(buf, stream, next, chunk); !st.ok()) return st;
    i += n;

    if (buffers_.FreeSlots(buf) == 0) {
      auto done = FlushExtent(buffers_.Take(buf, /*conflict=*/false), t);
      if (!done.ok()) return done.status();
      buffer_ready_[static_cast<std::size_t>(buf.value())] = done.value().sram_free;
    }
  }
  return t;
}

Result<LegacyDevice::FlushResult> LegacyDevice::FlushExtent(BufferedExtent extent,
                                                            SimTime now) {
  if (extent.empty()) return FlushResult{now, now};
  ++stats_.flushes;
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t unit_slots = geo.program_unit / geo.slot_size;
  SimTime done = now;
  SimTime sram_free = now;

  std::size_t i = 0;
  // Whole one-shot units to the normal log.
  while (extent.slot_count() - i >= unit_slots) {
    auto unit = normal_alloc_.ProgramUnit(
        std::span<const SlotWrite>(extent.slots).subspan(i, unit_slots));
    if (!unit.ok()) return unit.status();
    const auto prog =
        engine_.Program(unit.value().chip, geo.normal_cell, geo.program_unit, now);
    sram_free = Later(sram_free, prog.data_in);
    done = Later(done, prog.end);
    for (std::size_t k = 0; k < unit_slots; ++k) {
      if (Status st = SetMapping(extent.slots[i + k].lpn, unit.value().ppns[k]);
          !st.ok()) {
        return st;
      }
    }
    i += unit_slots;
  }
  // Sub-unit remainder: partial-program into SLC (same secondary-buffer
  // role as in ConZone; under page mapping the data can simply stay there
  // until GC migrates it).
  if (i < extent.slot_count()) {
    ++stats_.premature_flushes;
    std::vector<SlotWrite> rest(extent.slots.begin() + static_cast<std::ptrdiff_t>(i),
                                extent.slots.end());
    auto ppns = slc_alloc_.Program(rest);
    if (!ppns.ok()) return ppns.status();
    const auto prog = ProgramSlcSlots(engine_, geo, ppns.value(), now);
    sram_free = Later(sram_free, prog.data_in);
    done = Later(done, prog.end);
    for (std::size_t k = 0; k < rest.size(); ++k) {
      if (Status st = SetMapping(rest[k].lpn, ppns.value()[k]); !st.ok()) return st;
    }
  }

  auto gc_done = MaybeRunGc(done);
  if (!gc_done.ok()) return gc_done.status();
  done = Later(done, gc_done.value());
  sram_free = Later(sram_free, gc_done.value());
  return FlushResult{sram_free, done};
}

// ---------------------------------------------------------------------------
// Garbage collection (full GC over both regions, Fig. 1 E.1/E.2)
// ---------------------------------------------------------------------------

SuperblockId LegacyDevice::SelectVictim(bool slc_region) const {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint32_t begin = slc_region ? 0 : geo.NumSlcSuperblocks();
  const std::uint32_t end =
      slc_region ? geo.NumSlcSuperblocks() : geo.NumSuperblocks();
  SuperblockId best;
  std::uint64_t best_valid = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t s = begin; s < end; ++s) {
    const SuperblockId sb{s};
    if (sb == slc_alloc_.current_superblock() ||
        sb == normal_alloc_.current_superblock()) {
      continue;
    }
    std::uint64_t valid = 0, used = 0;
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      const BlockId b = geo.BlockOfSuperblock(sb, ChipId{c});
      valid += array_.ValidSlots(b);
      used += array_.NextProgramSlot(b);
    }
    if (used == 0) continue;
    if (valid < best_valid) {
      best_valid = valid;
      best = sb;
    }
  }
  return best;
}

Result<SimTime> LegacyDevice::MigrateToNormal(std::vector<SlotWrite> live,
                                              SimTime reads_done) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t unit_slots = geo.program_unit / geo.slot_size;
  SimTime done = reads_done;
  std::size_t i = 0;
  while (i < live.size()) {
    std::vector<SlotWrite> unit(live.begin() + static_cast<std::ptrdiff_t>(i),
                                live.begin() + static_cast<std::ptrdiff_t>(std::min(
                                                   i + unit_slots, live.size())));
    const std::size_t data_count = unit.size();
    unit.resize(unit_slots, SlotWrite{Lpn::Invalid(), 0});  // tail padding
    auto res = normal_alloc_.ProgramUnit(unit);
    if (!res.ok()) return res.status();
    done = Later(done, engine_.Program(res.value().chip, geo.normal_cell,
                                       geo.program_unit, reads_done)
                           .end);
    for (std::size_t k = 0; k < unit_slots; ++k) {
      const Ppn ppn = res.value().ppns[k];
      if (k < data_count) {
        if (Status st = SetMapping(unit[k].lpn, ppn); !st.ok()) return st;
      } else {
        // Padding carries no data; retire it instantly.
        if (Status st = array_.InvalidateSlot(ppn); !st.ok()) return st;
      }
    }
    i += data_count;
    stats_.gc_slots_migrated += data_count;
  }
  return done;
}

Result<SimTime> LegacyDevice::CollectRegion(bool slc_region, SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  ++stats_.gc_runs;
  SimTime t = now;
  auto free_count = [&] {
    return slc_region ? pool_.FreeSlcCount() : pool_.FreeNormalCount();
  };
  std::size_t last_free = free_count();
  int stalled_rounds = 0;
  while (free_count() < cfg_.gc_reclaim_target) {
    const SuperblockId victim = SelectVictim(slc_region);
    if (!victim.valid()) {
      if (free_count() == 0) {
        return Status::ResourceExhausted("legacy GC: region exhausted, no victim");
      }
      break;
    }
    // Migrating SLC victims into the normal log always makes SLC
    // progress, but an all-valid normal region can only churn; bail out
    // when a pass reclaims nothing.
    if (!slc_region && free_count() <= last_free && ++stalled_rounds > 1) break;
    last_free = free_count();
    // Read the live slots (grouped per flash page).
    std::vector<SlotWrite> live;
    SimTime reads_done = t;
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      const BlockId b = geo.BlockOfSuperblock(victim, ChipId{c});
      const std::uint32_t used = array_.NextProgramSlot(b);
      std::uint32_t page_live = 0;
      std::uint32_t current_page = std::numeric_limits<std::uint32_t>::max();
      auto flush_page = [&] {
        if (page_live == 0) return;
        array_.CountPageRead();
        reads_done = Later(reads_done,
                           engine_.ReadPage(ChipId{c}, geo.CellOfBlock(b),
                                            page_live * geo.slot_size, t));
        page_live = 0;
      };
      for (std::uint32_t s = 0; s < used; ++s) {
        const std::uint32_t page = s / geo.SlotsPerPage();
        const Ppn ppn = geo.SlotAt(geo.PageAt(b, page), s % geo.SlotsPerPage());
        if (array_.StateOfSlot(ppn) != SlotState::kValid) continue;
        if (page != current_page) {
          flush_page();
          current_page = page;
        }
        ++page_live;
        const SlotRead r = array_.ReadSlot(ppn);
        live.push_back(SlotWrite{r.lpn, r.token});
        if (Status st = array_.InvalidateSlot(ppn); !st.ok()) return st;
      }
      flush_page();
    }
    // Migrate into the normal log, erase, release.
    auto mig = MigrateToNormal(std::move(live), reads_done);
    if (!mig.ok()) return mig.status();
    t = mig.value();
    SimTime erases = t;
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      const BlockId b = geo.BlockOfSuperblock(victim, ChipId{c});
      if (Status st = array_.EraseBlock(b); !st.ok()) return st;
      erases = Later(erases, engine_.Erase(ChipId{c}, geo.CellOfBlock(b), t));
    }
    t = erases;
    Status rel = slc_region ? pool_.ReleaseSlc(victim) : pool_.ReleaseNormal(victim);
    if (!rel.ok()) return rel;
  }
  return t;
}

Result<SimTime> LegacyDevice::MaybeRunGc(SimTime now) {
  SimTime t = now;
  if (pool_.FreeNormalCount() < cfg_.gc_low_watermark) {
    auto r = CollectRegion(/*slc_region=*/false, t);
    if (!r.ok()) return r.status();
    t = r.value();
  }
  if (pool_.FreeSlcCount() < cfg_.gc_low_watermark) {
    auto r = CollectRegion(/*slc_region=*/true, t);
    if (!r.ok()) return r.status();
    t = r.value();
  }
  return t;
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Result<SimTime> LegacyDevice::ReadImpl(std::uint64_t offset, std::uint64_t len,
                                       SimTime now,
                                   std::vector<std::uint64_t>* tokens_out) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t slot = geo.slot_size;
  if (offset % slot != 0 || len % slot != 0 || len == 0) {
    return Status::InvalidArgument("read must be 4 KiB aligned and non-empty");
  }
  if (len > usable_bytes_ || offset > usable_bytes_ - len) {
    return Status::OutOfRange("read beyond device capacity");
  }
  ++stats_.reads;
  stats_.host_bytes_read += len;
  const SimTime t0 = now + cfg_.request_overhead;
  SimTime data_done = t0;

  read_groups_.Clear();
  auto buffered_token = [&](Lpn lpn) -> const std::uint64_t* {
    for (std::uint32_t b = 0; b < cfg_.buffers.num_buffers; ++b) {
      const BufferedExtent& e = buffers_.Contents(WriteBufferId{b});
      if (!e.empty() && lpn >= e.first_lpn &&
          lpn.value() < e.first_lpn.value() + e.slot_count()) {
        return &e.slots[static_cast<std::size_t>(lpn.value() - e.first_lpn.value())]
                    .token;
      }
    }
    return nullptr;
  };
  for (std::uint64_t off = offset; off < offset + len; off += slot) {
    const Lpn lpn = Lpn(off / slot);
    if (const std::uint64_t* tok = buffered_token(lpn)) {
      if (tokens_out) tokens_out->push_back(*tok);
      ++stats_.buffer_ram_reads;
      continue;
    }
    auto tr = translator_.Translate(lpn);
    if (!tr.ok()) return tr.status();
    SimTime dep = t0;
    for (std::uint64_t map_page : tr.value().map_pages_fetched) {
      const ChipId chip{map_page % geo.NumChips()};
      array_.CountPageRead();
      dep = engine_.ReadPage(chip, cfg_.map_media, geo.page_size, dep);
    }
    const Ppn ppn = tr.value().ppn;
    const SlotRead r = array_.ReadSlot(ppn);
    if (r.state != SlotState::kValid || r.lpn != lpn) {
      return Status::Internal("legacy mapping points at stale slot (lpn " +
                              std::to_string(lpn.value()) + ")");
    }
    if (tokens_out) tokens_out->push_back(r.token);
    read_groups_.Add(geo.PageOfSlot(ppn), dep, /*retries=*/0);
  }
  for (const PageGroup& g : read_groups_.groups()) {
    const BlockId b = geo.BlockOfPage(g.page);
    array_.CountPageRead();
    data_done = Later(data_done, engine_.ReadPage(geo.ChipOfBlock(b), geo.CellOfBlock(b),
                                                  g.slots * slot, g.dep));
  }

  const unsigned __int128 xfer_ns = static_cast<unsigned __int128>(len) * 1000000000ull /
                                    cfg_.host_link_bandwidth_bps;
  return host_link_
      .Reserve(data_done, SimDuration::Nanos(static_cast<std::uint64_t>(xfer_ns)))
      .end;
}

Result<SimTime> LegacyDevice::Flush(SimTime now) {
  SimTime done = now;
  for (std::uint32_t b = 0; b < cfg_.buffers.num_buffers; ++b) {
    const WriteBufferId id{b};
    if (buffers_.Contents(id).empty()) continue;
    const SimTime start = Later(now, buffer_ready_[b]);
    auto res = FlushExtent(buffers_.Take(id, /*conflict=*/false), start);
    if (!res.ok()) return res.status();
    buffer_ready_[b] = res.value().sram_free;
    done = Later(done, res.value().media_done);
  }
  return done;
}

}  // namespace conzone
