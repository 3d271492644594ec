#include "core/device.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <unordered_map>

namespace conzone {

namespace {
/// Default integrity token when the host does not supply payloads.
constexpr std::uint64_t kTokenSalt = 0xC0DE0000u;
std::uint64_t DefaultToken(Lpn lpn) { return kTokenSalt ^ lpn.value(); }

Status PoweredOff() {
  return Status::FailedPrecondition("device is powered off: call Recover() first");
}

Status StaleSlot(Lpn lpn, Ppn ppn) {
  return Status::Internal("mapping points at stale slot (lpn " +
                          std::to_string(lpn.value()) + " ppn " +
                          std::to_string(ppn.value()) + ")");
}
}  // namespace

Result<std::unique_ptr<ConZoneDevice>> ConZoneDevice::Create(const ConZoneConfig& config) {
  if (Status st = config.Validate(); !st.ok()) return st;
  return std::unique_ptr<ConZoneDevice>(new ConZoneDevice(config));
}

ConZoneDevice::ConZoneDevice(const ConZoneConfig& config)
    : cfg_([&] {
        // Derive the FTL sub-configs from the top-level knobs so callers
        // only state them once.
        ConZoneConfig c = config;
        c.l2p.lpns_per_chunk = c.lpns_per_chunk;
        c.l2p.lpns_per_zone =
            static_cast<std::uint32_t>(c.zone_size_bytes / c.geometry.slot_size);
        return c;
      }()),
      layout_(cfg_.geometry, cfg_.zone_size_bytes,
              static_cast<std::uint32_t>(cfg_.ConventionalSuperblocks())),
      fault_(cfg_.fault),
      array_(cfg_.geometry),
      engine_(cfg_.geometry, cfg_.timing),
      pool_(cfg_.geometry, static_cast<std::uint32_t>(cfg_.ConventionalSuperblocks())),
      slc_alloc_(array_, pool_),
      buffers_(cfg_.buffers, cfg_.geometry.slot_size),
      zones_(ZoneLimitsConfig{cfg_.zone_size_bytes, cfg_.zone_size_bytes, NumZones(),
                              cfg_.max_open_zones, cfg_.max_active_zones}),
      table_(MappingGeometry{
          NumZones() * (cfg_.zone_size_bytes / cfg_.geometry.slot_size),
          cfg_.lpns_per_chunk,
          static_cast<std::uint32_t>(cfg_.zone_size_bytes / cfg_.geometry.slot_size),
          static_cast<std::uint32_t>(cfg_.geometry.page_size / 4)}),
      cache_(cfg_.l2p),
      translator_(table_, cache_, *this, cfg_.translator),
      gc_(array_, engine_, pool_, slc_alloc_),
      l2p_log_(cfg_.l2p_log),
      conv_log_(array_, engine_, pool_, slc_alloc_, buffers_, buffer_ready_, table_, cache_,
                translator_, &l2p_log_, cfg_.map_media, kTokenSalt),
      div_slot_(cfg_.geometry.slot_size),
      div_zone_(cfg_.zone_size_bytes),
      div_slots_per_page_(cfg_.geometry.slot_size ? cfg_.geometry.SlotsPerPage() : 0),
      div_lpns_per_zone_(cfg_.geometry.slot_size
                             ? cfg_.zone_size_bytes / cfg_.geometry.slot_size
                             : 0),
      lpns_per_zone_(cfg_.geometry.slot_size
                         ? cfg_.zone_size_bytes / cfg_.geometry.slot_size
                         : 0) {
  runtime_.resize(NumZones());
  zone_images_.resize(runtime_.size());
  buffer_ready_.resize(cfg_.buffers.num_buffers, SimTime::Zero());
  // Erase-count-aware allocation (ROADMAP wear leveling): steer SLC and
  // conventional-pool allocation toward the least-worn superblocks.
  pool_.AttachWearSource(&array_);
  if (fault_.enabled()) {
    array_.AttachFaultModel(&fault_);
    engine_.AttachReliability(&array_.mutable_reliability());
  }
  if (cfg_.fault.PowerLossEnabled()) array_.EnableJournal(true);
  gc_.set_remap_hook(
      [this](Lpn lpn, Ppn old_ppn, Ppn new_ppn) { OnGcRemap(lpn, old_ppn, new_ppn); });
  if (cfg_.num_conventional_zones > 0) {
    gc_.set_evict_hook(
        [this](Lpn lpn) { return IsConventional(ZoneId{lpn.value() / LpnsPerZone()}); },
        [this](std::vector<SlotWrite> slots, SimTime reads_done) {
          return EvictConventionalFromSlc(std::move(slots), reads_done);
        });
  }
}

DeviceInfo ConZoneDevice::info() const {
  DeviceInfo di;
  di.name = "ConZone";
  di.num_zones = NumZones();
  di.capacity_bytes = static_cast<std::uint64_t>(di.num_zones) * cfg_.zone_size_bytes;
  di.zone_size_bytes = cfg_.zone_size_bytes;
  di.num_conventional_zones = cfg_.num_conventional_zones;
  di.max_open_zones = cfg_.max_open_zones;
  di.max_active_zones = cfg_.max_active_zones;
  di.slc_bytes = cfg_.geometry.SlcUsableBytesPerSuperblock() *
                 cfg_.geometry.NumSlcSuperblocks();
  di.io_alignment = cfg_.geometry.slot_size;
  di.health = powered_off_ ? DeviceHealth::kOffline
              : read_only_ ? DeviceHealth::kReadOnly
                           : DeviceHealth::kHealthy;
  return di;
}

Result<IoResult> ConZoneDevice::Write(const IoRequest& req) {
  auto done = WriteImpl(req.offset, req.len, req.now, req.tokens);
  if (!done.ok()) return done.status();
  ++class_writes_[static_cast<std::size_t>(req.io_class)];
  return IoResult{done.value(), {}};
}

Result<IoResult> ConZoneDevice::Read(const IoRequest& req) {
  IoResult res;
  auto done =
      ReadImpl(req.offset, req.len, req.now, req.want_tokens ? &res.tokens : nullptr);
  if (!done.ok()) return done.status();
  ++class_reads_[static_cast<std::size_t>(req.io_class)];
  res.done = done.value();
  return res;
}

StatsSnapshot ConZoneDevice::Stats() const {
  StatsSnapshot s;
  s.host_bytes_written = stats_.host_bytes_written;
  s.host_bytes_read = stats_.host_bytes_read;
  s.flash_bytes_written =
      array_.counters().TotalSlotsProgrammed() * cfg_.geometry.slot_size;
  s.writes = stats_.writes;
  s.reads = stats_.reads;
  s.zone_resets = stats_.zone_resets;
  s.host_flushes = stats_.host_flushes;
  const PageLogStats& conv = conv_log_.stats();
  s.buffer_flushes = stats_.flushes + conv.flushes;
  s.premature_flushes = stats_.premature_flushes + conv.premature_flushes;
  s.overwrites = conv.overwrites;
  s.gc_runs = gc_.stats().runs + conv.gc_runs;
  s.gc_slots_migrated = gc_.stats().slots_migrated + conv.gc_slots_migrated;
  s.class_reads = class_reads_;
  s.class_writes = class_writes_;
  return s;
}

ConZoneStats ConZoneDevice::stats() const {
  ConZoneStats s = stats_;
  const PageLogStats& conv = conv_log_.stats();
  s.flushes += conv.flushes;
  s.premature_flushes += conv.premature_flushes;
  s.buffer_ram_reads += conv.buffer_ram_reads;
  s.conventional_overwrites = conv.overwrites;
  s.conventional_gc_runs = conv.gc_runs;
  s.conventional_gc_migrated = conv.gc_slots_migrated;
  return s;
}

Lpn ConZoneDevice::ZoneBaseLpn(ZoneId zone) const {
  return Lpn(zone.value() * LpnsPerZone());
}

void ConZoneDevice::ResetStats() {
  stats_ = ConZoneStats{};
  conv_log_.ResetStats();
  class_reads_ = {};
  class_writes_ = {};
  translator_.ResetStats();
  cache_.ResetStats();
  array_.ResetCounters();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status ConZoneDevice::BeginHostOp(SimTime now) {
  if (powered_off_) return PoweredOff();
  if (last_submit_ < now) last_submit_ = now;
  if (array_.JournalEnabled()) {
    // A future cut can never precede this submission, so journal entries
    // and log commits whose media window closed by `now` are permanently
    // durable — forget them to keep both structures O(in-flight).
    array_.PruneJournal(now);
    l2p_log_.PruneCommits(now);
  }
  return Status::Ok();
}

Result<SimTime> ConZoneDevice::WriteImpl(std::uint64_t offset, std::uint64_t len,
                                         SimTime now,
                                         std::span<const std::uint64_t> tokens) {
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  if (div_slot_.Mod(offset) != 0 || div_slot_.Mod(len) != 0 || len == 0) {
    return Status::InvalidArgument("write must be 4 KiB aligned and non-empty");
  }
  const std::uint64_t nslots = div_slot_.Div(len);
  const ZoneId zone{div_zone_.Div(offset)};
  const std::uint64_t off_in_zone = offset - zone.value() * cfg_.zone_size_bytes;
  if (zone.value() >= NumZones()) {
    return Status::OutOfRange("write beyond device capacity");
  }
  if (len > cfg_.zone_size_bytes || off_in_zone > cfg_.zone_size_bytes - len) {
    return Status::InvalidArgument("write crosses a zone boundary");
  }
  if (!tokens.empty() && tokens.size() != nslots) {
    return Status::InvalidArgument("token count != written 4 KiB pages");
  }
  if (fault_.enabled() && InReadOnly()) {
    // Graceful degradation: writes are refused with a distinct sub-reason,
    // reads (and resets) keep working on the surviving media.
    return Status::ResourceExhausted(
        "device is read-only: healthy SLC spare below floor after media faults");
  }
  const bool conventional = IsConventional(zone);
  if (!conventional) {
    if (Status st = zones_.BeginWrite(zone, off_in_zone, len); !st.ok()) return st;
  }

  ++stats_.writes;
  stats_.host_bytes_written += len;

  // Host DMA into device SRAM.
  SimTime t = now + kRequestOverhead;
  t = host_link_.Reserve(t, HostTransferTime(len)).end;

  const Lpn first_lpn = Lpn(div_slot_.Div(offset));
  if (conventional) return WriteInPlace(zone, first_lpn, nslots, tokens, t);
  const WriteBufferId buf = buffers_.BufferForZone(zone);

  std::uint64_t i = 0;
  while (i < nslots) {
    // The buffer SRAM may still be streaming out a previous flush.
    t = Later(t, buffer_ready_[static_cast<std::size_t>(buf.value())]);

    if (buffers_.HasConflict(zone)) {
      // §III-B conflicting zone-buffer mapping: evict the other zone's
      // data first. The arriving write stalls until the SRAM drains into
      // the dies (the program pulses continue in the background).
      ++stats_.conflict_flushes;
      BufferedExtent ext = buffers_.Take(buf, /*conflict=*/true);
      auto done = FlushAny(std::move(ext), t);
      if (!done.ok()) return done.status();
      buffer_ready_[static_cast<std::size_t>(buf.value())] = done.value().sram_free;
      t = done.value().sram_free;
    }

    const std::uint64_t free = buffers_.FreeSlots(buf);
    const std::uint64_t n = std::min(free, nslots - i);
    std::vector<SlotWrite>& chunk = chunk_scratch_;
    chunk.clear();
    for (std::uint64_t k = 0; k < n; ++k) {
      const Lpn lpn = Lpn(first_lpn.value() + i + k);
      const std::uint64_t token = tokens.empty() ? DefaultToken(lpn) : tokens[i + k];
      chunk.push_back(SlotWrite{lpn, token});
    }
    if (Status st = buffers_.Append(zone, Lpn(first_lpn.value() + i), chunk); !st.ok()) {
      return st;
    }
    i += n;

    const bool zone_complete = i == nslots && off_in_zone + len == cfg_.zone_size_bytes;
    if (buffers_.FreeSlots(buf) == 0 || zone_complete) {
      // Flush when the superpage completes — and when the zone itself
      // completes, so the §III-E alignment patch is programmed and the
      // zone can aggregate. The host write does not wait for media; only
      // later appends to this buffer do.
      BufferedExtent ext = buffers_.Take(buf, /*conflict=*/false);
      auto done = FlushAny(std::move(ext), t);
      if (!done.ok()) return done.status();
      buffer_ready_[static_cast<std::size_t>(buf.value())] = done.value().sram_free;
    }
  }
  return t;
}

bool ConZoneDevice::InReadOnly() {
  if (read_only_) return true;
  if (array_.HealthySlcBlocks() < cfg_.fault.read_only_spare_floor_blocks) {
    read_only_ = true;
    array_.mutable_reliability().read_only_trips++;
    return true;
  }
  return false;
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::FlushAny(BufferedExtent extent,
                                                           SimTime now) {
  if (extent.empty()) return FlushResult{now, now};
  return IsConventional(extent.owner) ? FlushConventional(extent, now)
                                      : FlushExtent(std::move(extent), now);
}

Result<SimTime> ConZoneDevice::WriteInPlace(ZoneId zone, Lpn first, std::uint64_t nslots,
                                            std::span<const std::uint64_t> tokens,
                                            SimTime t) {
  ++stats_.conventional_writes;
  // In-place streams share the write buffers with the sequential zones,
  // so an evicted buffer may hold a sequential zone's data: FlushAny
  // dispatches on the owner.
  return conv_log_.Write(zone, first, nslots, tokens, t,
                         [this](BufferedExtent&& extent, SimTime at, bool conflict) {
                           if (conflict) ++stats_.conflict_flushes;
                           return FlushAny(std::move(extent), at);
                         });
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::FlushConventional(
    const BufferedExtent& extent, SimTime now) {
  auto placed = conv_log_.FlushExtent(extent, now);
  if (!placed.ok()) return placed.status();
  FlushResult done = placed.value();
  if (pool_.FreeNormalCount() < kGcLowWatermark) {
    auto gc_done = conv_log_.Collect(PageLog::Region::kLog, done.media_done);
    if (!gc_done.ok()) return gc_done.status();
    done.media_done = Later(done.media_done, gc_done.value());
    done.sram_free = Later(done.sram_free, gc_done.value());
  }
  return FinishFlush(done);
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::FinishFlush(FlushResult done) {
  if (gc_.NeedsGc()) {
    auto gc_done = gc_.Run(done.media_done);
    if (!gc_done.ok()) return gc_done.status();
    done.media_done = Later(done.media_done, gc_done.value());
    done.sram_free = Later(done.sram_free, gc_done.value());
  }
  // §III-E extension: a full L2P log blocks the flush until persisted.
  const SimTime logged = MaybeFlushL2pLog(done.sram_free);
  done.sram_free = Later(done.sram_free, logged);
  done.media_done = Later(done.media_done, logged);
  media_horizon_ = Later(media_horizon_, done.media_done);
  return done;
}

Result<SimTime> ConZoneDevice::ReadBackStaged(ZoneId zone, std::uint64_t begin,
                                              std::uint64_t end,
                                              std::vector<SlotWrite>& out, SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  const Lpn zbase = ZoneBaseLpn(zone);
  // One sense+transfer per distinct flash page holding staged slots; the
  // page's sense repeats at the worst retry level among its slots.
  struct PageLoad {
    std::uint32_t count = 0;
    std::uint32_t retries = 0;
  };
  std::unordered_map<std::uint64_t, PageLoad> pages;
  SimTime done = now;
  for (std::uint64_t off = begin; off < end; off += geo.slot_size) {
    const Lpn lpn = Lpn(zbase.value() + off / geo.slot_size);
    const MapEntry e = table_.Get(lpn);
    if (!e.mapped()) {
      return Status::Internal("staged range has unmapped lpn " +
                              std::to_string(lpn.value()));
    }
    const SlotRead r = array_.ReadSlot(e.ppn);
    if (r.state != SlotState::kValid || r.lpn != lpn) {
      return Status::Internal("staged slot mismatch for lpn " +
                              std::to_string(lpn.value()));
    }
    out.push_back(SlotWrite{lpn, r.token});
    PageLoad& load = pages[geo.PageOfSlot(e.ppn).value()];
    load.count++;
    if (r.retry_level > load.retries) load.retries = r.retry_level;
    ++stats_.fold_slots_read;
  }
  for (const auto& [page, load] : pages) {
    const ChipId chip = geo.ChipOfBlock(geo.BlockOfPage(FlashPageId(page)));
    array_.CountPageRead();
    done = Later(done, engine_.ReadPage(chip, CellType::kSlc,
                                        load.count * geo.slot_size, now, load.retries));
  }
  return done;
}

Status ConZoneDevice::Supersede(Lpn lpn, Ppn ppn) {
  const Ppn old = RemapPage(lpn, ppn);
  if (!old.valid() || array_.StateOfSlot(old) != SlotState::kValid) return Status::Ok();
  return array_.InvalidateSlot(old);
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::ProgramPatchRun(
    ZoneId zone, ZoneRuntime& zr, const BufferedExtent& extent, SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t begin = layout_.normal_bytes();
  const std::uint64_t end = cfg_.zone_size_bytes;
  const Lpn zbase = ZoneBaseLpn(zone);
  const std::uint64_t ext_start =
      (extent.first_lpn.value() - zbase.value()) * geo.slot_size;

  // Assemble the full patch: staged pieces are read back (they will be
  // re-programmed contiguously), the rest comes from the flushed buffer
  // extent.
  std::vector<SlotWrite> data;
  data.reserve((end - begin) / geo.slot_size);
  const std::uint64_t mark = array_.MarkJournal();
  SimTime reads_done = now;
  if (zr.staged_end > begin) {
    auto rd = ReadBackStaged(zone, begin, zr.staged_end, data, now);
    if (!rd.ok()) return rd.status();
    reads_done = rd.value();
  }
  for (std::uint64_t off = std::max(begin, ext_start); off < end; off += geo.slot_size) {
    const std::uint64_t idx = (off - ext_start) / geo.slot_size;
    data.push_back(extent.slots[static_cast<std::size_t>(idx)]);
  }
  if (data.size() != (end - begin) / geo.slot_size) {
    return Status::Internal("patch assembly incomplete for zone " +
                            std::to_string(zone.value()));
  }

  // Issued once the staged pieces are read back; the window opens at the
  // flush and covers the staged copies the run supersedes.
  Ppn start;
  bool contiguous = true;
  auto prog = slc_alloc_.Write(data, engine_, reads_done, [&](std::size_t k, Ppn ppn) {
    if (k == 0) {
      start = ppn;
    } else if (contiguous) {
      auto expect = layout_.StripeAdvance(start, k);
      contiguous = expect && *expect == ppn;
    }
    return Supersede(data[k].lpn, ppn);
  });
  if (!prog.ok()) return prog.status();
  array_.StampJournal(mark, now, prog.value().end);
  zr.patch_start = start;
  zr.patch_contiguous = contiguous;
  zr.durable_normal_end = begin;
  zr.staged_end = end;
  ++stats_.patch_runs;
  return FlushResult{prog.value().data_in, prog.value().end};
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::FlushExtent(BufferedExtent extent,
                                                              SimTime now) {
  if (extent.empty()) return FlushResult{now, now};
  ++stats_.flushes;
  const FlashGeometry& geo = cfg_.geometry;
  const ZoneId zone = extent.owner;
  ZoneRuntime& zr = runtime_[static_cast<std::size_t>(zone.value())];
  const Lpn zbase = ZoneBaseLpn(zone);
  const std::uint64_t ext_start =
      (extent.first_lpn.value() - zbase.value()) * geo.slot_size;
  const std::uint64_t ext_end = ext_start + extent.slot_count() * geo.slot_size;
  if (ext_start != zr.staged_end) {
    return Status::Internal("flush extent does not continue zone " +
                            std::to_string(zone.value()));
  }

  const std::uint64_t unit = geo.program_unit;
  FlushResult done{now, now};
  std::uint64_t cur = zr.durable_normal_end;
  bool staged_anything = false;

  // (1)/(3): fold whole program units into the reserved normal blocks.
  std::vector<SlotWrite> data;
  data.reserve(unit / geo.slot_size);
  while (cur < layout_.normal_bytes() && cur + unit <= ext_end) {
    // Reclaim SLC headroom for a possible re-drive before the read-back,
    // so no GC runs between the read-back and the program that
    // supersedes the copies it read.
    if (gc_.NeedsGc()) {
      auto gc_done = gc_.Run(now);
      if (!gc_done.ok()) return gc_done.status();
      now = Later(now, gc_done.value());
      done.sram_free = Later(done.sram_free, now);
      done.media_done = Later(done.media_done, now);
    }
    const std::uint64_t mark = array_.MarkJournal();
    data.clear();
    SimTime reads_done = now;
    std::uint64_t staged_bytes = 0;
    if (cur < zr.staged_end) {
      // Fold: staged SLC data is read out (§III-B ③); the unit's program
      // supersedes it.
      const std::uint64_t staged_upto = std::min(zr.staged_end, cur + unit);
      staged_bytes = staged_upto - cur;
      auto rd = ReadBackStaged(zone, cur, staged_upto, data, now);
      if (!rd.ok()) return rd.status();
      reads_done = rd.value();
      ++stats_.folds;
    }
    for (std::uint64_t off = std::max(cur, zr.staged_end); off < cur + unit;
         off += geo.slot_size) {
      data.push_back(extent.slots[static_cast<std::size_t>((off - ext_start) /
                                                           geo.slot_size)]);
    }

    const ZoneLayout::UnitLoc loc = layout_.UnitAt(SeqZone(zone), cur / unit);
    bool redrive = false;
    if (array_.IsRetired(loc.block)) {
      // The reserved block grew bad earlier (previous program or a failed
      // reset erase): nothing can program there, go straight to SLC.
      redrive = true;
    } else if (array_.NextProgramSlot(loc.block) !=
               loc.first_page_in_block * geo.SlotsPerPage()) {
      // The block's cursor does not sit at this unit's layout position —
      // a power cut tore a program here (the cursor is past its point of
      // no return even though the slots came back invalid). The layout is
      // fixed, so the unit re-drives into SLC; a zone reset erases the
      // block and clears the skew.
      redrive = true;
    } else {
      Status st = array_.ProgramSlots(loc.block, data);
      if (!st.ok() && st.code() != StatusCode::kMediaError) return st;
      // A failed program still ran (and burned) the one-shot pulse.
      const auto prog = engine_.ProgramFold(loc.chip, geo.normal_cell, unit,
                                            unit - staged_bytes, now, reads_done);
      done.sram_free = Later(done.sram_free, prog.data_in);
      if (st.ok()) {
        done.media_done = Later(done.media_done, prog.end);
        // The unit's slots are consecutive ppns of one block.
        const Ppn first = layout_.NormalSlot(SeqZone(zone), cur);
        for (std::size_t k = 0; k < data.size(); ++k) {
          if (Status sup = Supersede(data[k].lpn, Ppn(first.value() + k)); !sup.ok()) {
            return sup;
          }
        }
        // One window for the fold's program and the staged copies it
        // supersedes: both become durable when the one-shot pulse ends.
        array_.StampJournal(mark, now, prog.end);
      } else {
        // The layout is fixed, so the unit cannot relocate within the
        // zone's reserved blocks: re-drive it into SLC.
        array_.mutable_reliability().BookRedrive(
            engine_.timing().For(geo.normal_cell).program_latency, data.size());
        redrive = true;
      }
    }
    if (redrive) {
      // Re-drive the unit into SLC under page mapping. No GC here (GC ran
      // before the read-back instead). The window reaches back to the
      // fold's mark, so it covers the staged copies the re-drive
      // supersedes (a burned one-shot pulse leaves no journal entry of
      // its own).
      auto rd = slc_alloc_.Write(data, engine_, reads_done, [&](std::size_t k, Ppn ppn) {
        return Supersede(data[k].lpn, ppn);
      });
      if (!rd.ok()) return rd.status();
      array_.StampJournal(mark, reads_done, rd.value().end);
      done.sram_free = Later(done.sram_free, rd.value().data_in);
      done.media_done = Later(done.media_done, rd.value().end);
      // Part of the zone's nominally-normal range now lives in SLC: freeze
      // aggregation from here on (already-stamped chunks predate the
      // failure and are fully layout-resident, so they stay correct).
      zr.degraded = true;
      staged_anything = true;
    }
    // The zone-relative range is durable either way; degraded zones simply
    // keep part of it in SLC, invisible to the fold/stage logic.
    cur += unit;
    zr.durable_normal_end = cur;
    zr.staged_end = std::max(zr.staged_end, cur);
  }

  if (cur >= layout_.normal_bytes() && layout_.patch_bytes() > 0 &&
      ext_end == cfg_.zone_size_bytes) {
    // Zone completes: write the §III-E alignment patch as one contiguous
    // SLC run so the zone's mapping can still aggregate.
    auto pr = ProgramPatchRun(zone, zr, extent, now);
    if (!pr.ok()) return pr.status();
    done.sram_free = Later(done.sram_free, pr.value().sram_free);
    done.media_done = Later(done.media_done, pr.value().media_done);
    staged_anything = true;  // the patch is SLC-resident by design
  } else if (ext_end > std::max(cur, zr.staged_end)) {
    // (2): sub-unit remainder — partial-program into the SLC secondary
    // write buffer (premature flush).
    const std::span<const SlotWrite> rest =
        std::span<const SlotWrite>(extent.slots)
            .subspan((std::max(cur, zr.staged_end) - ext_start) / geo.slot_size);
    const std::uint64_t mark = array_.MarkJournal();
    auto st = slc_alloc_.Write(rest, engine_, now, [&](std::size_t k, Ppn ppn) {
      return Supersede(rest[k].lpn, ppn);
    });
    if (!st.ok()) return st.status();
    array_.StampJournal(mark, now, st.value().end);
    done.sram_free = Later(done.sram_free, st.value().data_in);
    done.media_done = Later(done.media_done, st.value().end);
    zr.staged_end = ext_end;
    staged_anything = true;
  }
  if (staged_anything) ++stats_.premature_flushes;

  UpdateAggregation(zone, zr);
  return FinishFlush(done);
}

SimTime ConZoneDevice::MaybeFlushL2pLog(SimTime now, bool force) {
  SimTime t = now;
  while (l2p_log_.NeedsFlush() || (force && l2p_log_.pending_bytes() > 0)) {
    const std::uint64_t bytes = l2p_log_.BeginFlush();
    // Program the accumulated records to metadata flash, one page-sized
    // chunk at a time, round-robin over the chips.
    std::uint64_t left = bytes;
    while (left > 0) {
      const std::uint64_t chunk = std::min<std::uint64_t>(left, cfg_.geometry.page_size);
      const ChipId chip{l2p_log_chip_};
      l2p_log_chip_ = (l2p_log_chip_ + 1) % cfg_.geometry.NumChips();
      t = engine_.Program(chip, cfg_.map_media, chunk, t).end;
      left -= chunk;
    }
    // Commit only now that the program's media window is known: a cut
    // racing the flush rolls the commit back instead of double-counting.
    l2p_log_.CommitFlush(bytes, t);
    flushed_entries_since_ckpt_ += bytes / cfg_.l2p_log.entry_bytes;
  }
  // Interval policy (§12): every K flushed log entries, fold the whole
  // mapping into a durable image so the mount scan stays O(tail).
  if (cfg_.checkpoint.enabled &&
      flushed_entries_since_ckpt_ >= cfg_.checkpoint.interval_entries) {
    t = WriteCheckpoint(t);
  }
  media_horizon_ = Later(media_horizon_, t);
  return t;
}

// ---------------------------------------------------------------------------
// Aggregation maintenance
// ---------------------------------------------------------------------------

Aggregation ConZoneDevice::AggregationOf(const ZoneFacts& facts) const {
  // Degraded zones keep part of their "normal" range in SLC under page
  // mapping — aggregated entries would resolve those LPNs to the layout
  // and read stale media.
  if (facts.degraded) return Aggregation{};
  const bool complete = facts.staged_end == cfg_.zone_size_bytes &&
                        facts.durable_normal_end == layout_.normal_bytes();
  const bool patch_ok = layout_.patch_bytes() == 0 || facts.patch_contiguous;
  if (complete && patch_ok) {
    return Aggregation{LpnsPerZone(), cfg_.max_aggregation == MapGranularity::kZone
                                          ? MapGranularity::kZone
                                          : MapGranularity::kChunk};
  }
  // Chunks wholly inside the durable normal prefix (§III-C ②: compare the
  // physical address against the chunk boundary — with the reserved
  // layout that is exactly the durable prefix test).
  const std::uint64_t chunk_bytes =
      static_cast<std::uint64_t>(cfg_.lpns_per_chunk) * cfg_.geometry.slot_size;
  return Aggregation{facts.durable_normal_end / chunk_bytes * cfg_.lpns_per_chunk,
                     MapGranularity::kChunk};
}

void ConZoneDevice::PinChunks(ZoneId zone, std::uint32_t from, std::uint32_t to) {
  const std::uint64_t first_chunk = ZoneBaseLpn(zone).value() / cfg_.lpns_per_chunk;
  for (std::uint64_t c = first_chunk + from; c < first_chunk + to; ++c) {
    const Lpn cbase = Lpn(c * cfg_.lpns_per_chunk);
    if (auto base_ppn = ResolveAggregated(MapGranularity::kChunk, c, cbase)) {
      translator_.OnAggregateGenerated(MapGranularity::kChunk, c, *base_ppn);
    }
  }
}

void ConZoneDevice::UpdateAggregation(ZoneId zone, ZoneRuntime& zr,
                                      bool table_prestamped) {
  // Stamping only moves forward: chunks stamped before a zone degraded
  // stay valid.
  const Aggregation agg = AggregationOf(zr);
  const Lpn zbase = ZoneBaseLpn(zone);
  const std::uint64_t lpc = cfg_.lpns_per_chunk;
  const std::uint32_t from = zr.chunks_aggregated;
  const auto to = static_cast<std::uint32_t>(agg.lpns / lpc);
  if (to > from) {
    if (!table_prestamped) {
      table_.SetAggregated(Lpn(zbase.value() + from * lpc), (to - from) * lpc,
                           MapGranularity::kChunk);
    }
    PinChunks(zone, from, to);
    stats_.aggregates_chunk += to - from;
    zr.chunks_aggregated = to;
  }
  if (agg.gran == MapGranularity::kZone && !zr.zone_aggregated) {
    if (!table_prestamped) {
      table_.SetAggregated(zbase, LpnsPerZone(), MapGranularity::kZone);
    }
    auto base_ppn = ResolveAggregated(MapGranularity::kZone, zone.value(), zbase);
    if (base_ppn) {
      translator_.OnAggregateGenerated(MapGranularity::kZone, zone.value(), *base_ppn);
    }
    zr.zone_aggregated = true;
    ++stats_.aggregates_zone;
  }
}

std::optional<Ppn> ConZoneDevice::ResolveAggregated(MapGranularity gran,
                                                    std::uint64_t unit_index,
                                                    Lpn lpn) const {
  (void)gran;
  (void)unit_index;
  const ZoneId zone{div_lpns_per_zone_.Div(lpn.value())};
  if (IsConventional(zone)) return std::nullopt;  // never aggregated
  if (zone.value() >= NumZones()) return std::nullopt;
  const std::uint64_t off =
      (lpn.value() - zone.value() * LpnsPerZone()) * cfg_.geometry.slot_size;
  if (off < layout_.normal_bytes()) return layout_.NormalSlot(SeqZone(zone), off);
  const ZoneRuntime& zr = runtime_[static_cast<std::size_t>(zone.value())];
  if (!zr.patch_contiguous || !zr.patch_start.valid()) return std::nullopt;
  const std::uint64_t steps = (off - layout_.normal_bytes()) / cfg_.geometry.slot_size;
  return layout_.StripeAdvance(zr.patch_start, steps);
}

void ConZoneDevice::OnGcRemap(Lpn lpn, Ppn old_ppn, Ppn new_ppn) {
  (void)old_ppn;
  if (table_.Get(lpn).gran != MapGranularity::kPage) {
    // Only patch slots can be both SLC-resident and aggregated; moving
    // one breaks the patch run, and with it the zone (and patch-chunk)
    // aggregation. The zone re-aggregates as a complete zone whose patch
    // is no longer contiguous; the restamp is not a new aggregate.
    const ZoneId zone{lpn.value() / LpnsPerZone()};
    ZoneRuntime& zr = runtime_[static_cast<std::size_t>(zone.value())];
    const Lpn zbase = ZoneBaseLpn(zone);
    table_.DowngradeToPage(zbase, LpnsPerZone());
    cache_.Erase(L2pKey{MapGranularity::kZone, zone.value()});
    const std::uint64_t first_chunk = zbase.value() / cfg_.lpns_per_chunk;
    for (std::uint64_t c = 0; c < LpnsPerZone() / cfg_.lpns_per_chunk; ++c) {
      cache_.Erase(L2pKey{MapGranularity::kChunk, first_chunk + c});
    }
    zr.patch_contiguous = false;
    const Aggregation agg = AggregationOf(zr);
    const auto chunks = static_cast<std::uint32_t>(agg.lpns / cfg_.lpns_per_chunk);
    table_.SetAggregated(zbase, agg.lpns, MapGranularity::kChunk);
    PinChunks(zone, 0, chunks);
    zr.zone_aggregated = false;
    zr.chunks_aggregated = chunks;
    ++stats_.aggregation_breaks;
  }
  RemapPage(lpn, new_ppn);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Result<SimTime> ConZoneDevice::ReadImpl(std::uint64_t offset, std::uint64_t len,
                                        SimTime now,
                                        std::vector<std::uint64_t>* tokens_out) {
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t slot = geo.slot_size;
  if (div_slot_.Mod(offset) != 0 || div_slot_.Mod(len) != 0 || len == 0) {
    return Status::InvalidArgument("read must be 4 KiB aligned and non-empty");
  }
  // Full logical capacity: the conventional pool precedes the
  // sequential zones, so the bound must include both (the write path's
  // zone-count check already does).
  const std::uint64_t capacity =
      layout_.device_capacity() +
      static_cast<std::uint64_t>(cfg_.num_conventional_zones) * cfg_.zone_size_bytes;
  if (len > capacity || offset > capacity - len) {
    return Status::OutOfRange("read beyond device capacity");
  }

  ++stats_.reads;
  stats_.host_bytes_read += len;
  const SimTime t0 = now + kRequestOverhead;
  SimTime data_done = t0;
  if (tokens_out) tokens_out->reserve(tokens_out->size() + div_slot_.Div(len));

  // Per-request page groups: one sense + transfer per distinct flash page.
  read_groups_.Clear();
  const std::uint64_t end = offset + len;
  for (std::uint64_t off = offset; off < end; off += slot) {
    const Lpn lpn = Lpn(div_slot_.Div(off));
    const ZoneId zone{div_zone_.Div(off)};
    const std::uint64_t off_in_zone = off - zone.value() * cfg_.zone_size_bytes;
    if (IsConventional(zone)) {
      // In-place region: no write pointer; validity comes from the
      // mapping itself.
      if (Status st = conv_log_.ReadSlot(lpn, t0, read_groups_, tokens_out); !st.ok()) {
        return st;
      }
      continue;
    }
    if (Status st = zones_.CheckRead(zone, off_in_zone, slot); !st.ok()) return st;
    const ZoneRuntime& zr = runtime_[static_cast<std::size_t>(zone.value())];

    if (off_in_zone >= zr.staged_end) {
      // Still in the volatile write buffer: served from RAM.
      const BufferedExtent& b = buffers_.Contents(buffers_.BufferForZone(zone));
      if (b.empty() || b.owner != zone || lpn < b.first_lpn ||
          lpn.value() >= b.first_lpn.value() + b.slot_count()) {
        // FINISH moves the write pointer to capacity but flushes the
        // zone's buffered tail first, so past that tail a full zone has no
        // data; in an open zone the buffer must hold it.
        if (zones_.Info(zone).state == ZoneState::kFull) {
          return Status::OutOfRange("read beyond the data end of finished zone " +
                                    std::to_string(zone.value()));
        }
        return Status::Internal("unflushed data missing from write buffer (lpn " +
                                std::to_string(lpn.value()) + ")");
      }
      if (tokens_out) {
        tokens_out->push_back(
            b.slots[static_cast<std::size_t>(lpn.value() - b.first_lpn.value())].token);
      }
      ++stats_.buffer_ram_reads;
      continue;
    }

    auto tr = translator_.Translate(lpn);
    if (!tr.ok()) return tr.status();
    SimTime dep = t0;
    // L2P miss: dependent metadata fetches, sequential (§III-C R.2 —
    // multiple fetches make read performance unstable under MULTIPLE).
    for (std::uint64_t map_page : tr.value().map_pages_fetched) {
      const ChipId chip{map_page % geo.NumChips()};
      array_.CountPageRead();
      dep = engine_.ReadPage(chip, cfg_.map_media, geo.page_size, dep);
    }

    const Ppn ppn = tr.value().ppn;
    const SlotRead r = array_.ReadSlot(ppn);
    if (r.state != SlotState::kValid || r.lpn != lpn) return StaleSlot(lpn, ppn);
    if (tokens_out) tokens_out->push_back(r.token);
    read_groups_.Add(FlashPageId(div_slots_per_page_.Div(ppn.value())), dep, r.retry_level);
    // An aggregated hit also covers the slots after it in its unit.
    if (off + slot < end && tr.value().cache_hit &&
        tr.value().gran != MapGranularity::kPage) {
      auto run = ReadAggregatedRun(zone, off_in_zone, off_in_zone + (end - off), lpn, ppn,
                                   tr.value().gran, t0, tokens_out);
      if (!run.ok()) return run.status();
      off += run.value() * slot;
    }
  }

  for (const PageGroup& g : read_groups_.groups()) {
    const FlashArray::SlotPlace at = array_.PlaceOf(geo.SlotAt(g.page, 0));
    array_.CountPageRead();
    const CellType cell = at.slc ? CellType::kSlc : geo.normal_cell;
    data_done =
        Later(data_done, engine_.ReadPage(at.chip, cell, g.slots * slot, g.dep, g.retries));
  }

  // Stream the payload back to the host.
  return host_link_.Reserve(data_done, HostTransferTime(len)).end;
}

Result<std::uint64_t> ConZoneDevice::ReadAggregatedRun(
    ZoneId zone, std::uint64_t off_in_zone, std::uint64_t req_end, Lpn lpn, Ppn ppn,
    MapGranularity gran, SimTime t0, std::vector<std::uint64_t>* tokens_out) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t slot = geo.slot_size;
  // Translate would hit the same entry, unchanged, for every later slot
  // of the unit that is still durable (not in the write buffer), below
  // the write pointer and in the normal region (patch slots resolve
  // through the SLC stripe instead of the layout).
  const std::uint64_t durable_end =
      std::min({runtime_[static_cast<std::size_t>(zone.value())].staged_end,
                zones_.Info(zone).write_pointer, layout_.normal_bytes(), req_end});
  if (durable_end <= off_in_zone + slot) return 0;
  const std::uint64_t unit_bytes =
      gran == MapGranularity::kZone
          ? cfg_.zone_size_bytes
          : static_cast<std::uint64_t>(cfg_.lpns_per_chunk) * slot;
  const std::uint64_t run_end =
      std::min((off_in_zone / unit_bytes + 1) * unit_bytes, durable_end);

  // Zone-relative slots [s, s_end) follow the one just read. A program
  // unit's slots are consecutive ppns in one block, so its pages are
  // consecutive too: consult the layout once per program unit and read
  // the unit page by page.
  const std::uint64_t slots_per_page = div_slots_per_page_.value();
  const std::uint64_t slots_per_unit = geo.program_unit / slot;
  std::uint64_t s = div_slot_.Div(off_in_zone) + 1;
  const std::uint64_t s_end = div_slot_.Div(run_end);
  std::uint64_t unit = (s - 1) / slots_per_unit;  // holds the slot just read
  std::uint64_t next_unit = (unit + 1) * slots_per_unit;
  lpn = Lpn(lpn.value() + 1);
  ppn = Ppn(ppn.value() + 1);
  FlashPageId page{div_slots_per_page_.Div(ppn.value())};
  std::uint64_t in_page = (page.value() + 1) * slots_per_page - ppn.value();
  std::uint64_t n = 0;
  while (s < s_end) {
    if (s == next_unit) {
      const ZoneLayout::UnitLoc loc = layout_.UnitAt(SeqZone(zone), ++unit);
      page = geo.PageAt(loc.block, loc.first_page_in_block);
      ppn = geo.SlotAt(page, 0);
      in_page = slots_per_page;
      next_unit += slots_per_unit;
    }
    const auto count = static_cast<std::uint32_t>(std::min(in_page, s_end - s));
    // Read-retry levels are drawn one slot at a time, in slot order,
    // exactly as the per-slot path draws them.
    const FlashArray::PageRun got = array_.ReadPageRun(ppn, count, lpn, tokens_out);
    if (got.good < count) {
      translator_.BookRepeatedHits(gran, n + got.good + 1);
      return StaleSlot(Lpn(lpn.value() + got.good), Ppn(ppn.value() + got.good));
    }
    read_groups_.Add(page, t0, got.retries, count);
    n += count;
    s += count;
    lpn = Lpn(lpn.value() + count);
    ppn = Ppn(ppn.value() + count);
    page = FlashPageId(page.value() + 1);
    in_page = slots_per_page;
  }
  translator_.BookRepeatedHits(gran, n);
  return n;
}

// ---------------------------------------------------------------------------
// Erase path
// ---------------------------------------------------------------------------

Result<SimTime> ConZoneDevice::ResetZone(ZoneId zone, SimTime now) {
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  if (!zone.valid() || zone.value() >= NumZones()) {
    return Status::OutOfRange("reset of invalid zone");
  }
  if (IsConventional(zone)) return ResetConventionalZone(zone, now);
  if (Status st = zones_.Reset(zone); !st.ok()) return st;
  ++stats_.zone_resets;

  const FlashGeometry& geo = cfg_.geometry;
  buffers_.Discard(zone);

  // Drop all mappings and invalidate the SLC-resident slots (staged data
  // and the patch, E.2: "if the zone has some data in SLC, ConZone
  // invalidates it also"); erased normal blocks reset their own slot
  // state below.
  const std::uint64_t mark = array_.MarkJournal();
  table_.UnmapZone(zone, [this](Lpn, Ppn ppn) {
    if (array_.PlaceOf(ppn).slc) (void)array_.InvalidateSlot(ppn);
  });
  cache_.InvalidateLpnRange(ZoneBaseLpn(zone), LpnsPerZone());

  // Directly erase the reserved normal blocks that hold data.
  const SimTime t0 = now + kRequestOverhead;
  SimTime done = t0;
  for (std::uint64_t k = 0; k < layout_.superblocks_per_zone(); ++k) {
    const SuperblockId sb = layout_.SuperblockOfZone(SeqZone(zone), k);
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      const BlockId b = geo.BlockOfSuperblock(sb, ChipId{c});
      if (array_.IsRetired(b)) {
        // Grown-bad reserved block: scrub leftovers; future writes to its
        // units re-drive into SLC (the zone comes back degraded).
        array_.ScrubBlock(b);
        continue;
      }
      if (array_.NextProgramSlot(b) == 0) continue;
      auto erased = EraseOrRetire(array_, engine_, b, t0);
      if (!erased.ok()) return erased.status();
      done = Later(done, erased.value());
    }
  }
  runtime_[static_cast<std::size_t>(zone.value())] = ZoneRuntime{};
  // One window for the reset's SLC invalidates and block erases: the
  // erases were issued at t0 and the reset is durable once they finish.
  array_.StampJournal(mark, t0, done);
  media_horizon_ = Later(media_horizon_, done);
  return done;
}

Result<SimTime> ConZoneDevice::Flush(SimTime now) {
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  ++stats_.host_flushes;
  SimTime done = now;
  for (std::uint32_t b = 0; b < cfg_.buffers.num_buffers; ++b) {
    const WriteBufferId id{b};
    if (buffers_.Contents(id).empty()) continue;
    const SimTime start = Later(now, buffer_ready_[b]);
    auto res = FlushAny(buffers_.Take(id, /*conflict=*/false), start);
    if (!res.ok()) return res.status();
    buffer_ready_[b] = res.value().sram_free;
    done = Later(done, res.value().media_done);
  }
  // Durability contract (FUA semantics): the acknowledgment may not race
  // any program pulse still in flight — a buffer can be empty while its
  // last background flush's pulse is still on the die, and that gap is
  // exactly what a power cut between the two would expose. Then persist
  // the sub-threshold L2P log tail so the mapping of everything acked
  // here survives a cut too.
  done = Later(done, media_horizon_);
  done = MaybeFlushL2pLog(done, /*force=*/true);
  // Clean-flush policy (§12): the device is quiescent and the log tail
  // just persisted — a cheap moment to fold the mapping into an image.
  // Gated on a minimum of flushed entries so a flush-heavy host does not
  // pay a full image per Flush.
  if (cfg_.checkpoint.enabled &&
      flushed_entries_since_ckpt_ >= cfg_.checkpoint.min_flush_entries &&
      flushed_entries_since_ckpt_ > 0) {
    done = WriteCheckpoint(done);
  }
  return done;
}


// ---------------------------------------------------------------------------
// Conventional zones (SIII-E extension): in-place updates for the host's
// metadata region. Their FTL is conv_log_, the page log over a dynamic
// pool of normal superblocks (gc/page_log.hpp).
// ---------------------------------------------------------------------------

Result<SimTime> ConZoneDevice::EvictConventionalFromSlc(std::vector<SlotWrite> slots,
                                                        SimTime reads_done) {
  // Make room in the pool first if needed; this never re-enters SLC GC.
  SimTime t = reads_done;
  if (pool_.FreeNormalCount() == 0) {
    auto gc_done = conv_log_.Collect(PageLog::Region::kLog, t);
    if (!gc_done.ok()) return gc_done.status();
    t = gc_done.value();
  }
  // Each unit issues when the previous one ends, after any pulses it
  // burned, and is its own journal window. The SLC GC invalidates the
  // old copies afterwards, so the log only repoints.
  const std::span<const SlotWrite> all(slots);
  for (std::size_t i = 0; i < all.size(); i += conv_log_.unit_slots()) {
    const std::uint64_t mark = array_.MarkJournal();
    const SimTime issue = t;
    auto unit = conv_log_.ProgramUnit(
        all.subspan(i, std::min<std::size_t>(conv_log_.unit_slots(), all.size() - i)), t,
        PageLog::Remap::kRepoint, /*after_burns=*/true);
    if (!unit.ok()) return unit.status();
    t = Later(t, Later(unit.value().sram_free, unit.value().media_done));
    array_.StampJournal(mark, issue, t);
  }
  return t;
}

Result<SimTime> ConZoneDevice::ResetConventionalZone(ZoneId zone, SimTime now) {
  ++stats_.zone_resets;
  buffers_.Discard(zone);
  const std::uint64_t mark = array_.MarkJournal();
  table_.UnmapZone(zone, [this](Lpn, Ppn ppn) {
    if (array_.StateOfSlot(ppn) == SlotState::kValid) (void)array_.InvalidateSlot(ppn);
  });
  cache_.InvalidateLpnRange(ZoneBaseLpn(zone), LpnsPerZone());
  // No erase here: the pool's blocks are shared; GC reclaims them. The
  // invalidates are controller metadata; they become cut-proof once the
  // reset is acknowledged.
  array_.StampJournal(mark, now, now + kRequestOverhead);
  return now + kRequestOverhead;
}

Status ConZoneDevice::CheckSequentialZone(ZoneId zone, const char* op) const {
  if (!zone.valid() || zone.value() >= NumZones()) {
    return Status::OutOfRange(std::string(op) + " of invalid zone");
  }
  if (IsConventional(zone)) {
    return Status::FailedPrecondition(std::string("conventional zones have no ") + op);
  }
  return Status::Ok();
}

Status ConZoneDevice::OpenZone(ZoneId zone) {
  if (powered_off_) return PoweredOff();
  if (Status st = CheckSequentialZone(zone, "open"); !st.ok()) return st;
  return zones_.ExplicitOpen(zone);
}

Status ConZoneDevice::CloseZone(ZoneId zone) {
  if (powered_off_) return PoweredOff();
  if (Status st = CheckSequentialZone(zone, "close"); !st.ok()) return st;
  return zones_.Close(zone);
}

Result<SimTime> ConZoneDevice::FinishZone(ZoneId zone, SimTime now) {
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  if (Status st = CheckSequentialZone(zone, "finish"); !st.ok()) return st;
  // Flush the zone's buffered tail so written data stays readable.
  SimTime done = now;
  const WriteBufferId buf = buffers_.BufferForZone(zone);
  const BufferedExtent& b = buffers_.Contents(buf);
  if (!b.empty() && b.owner == zone) {
    const SimTime start = Later(now, buffer_ready_[static_cast<std::size_t>(buf.value())]);
    auto res = FlushExtent(buffers_.Take(buf, /*conflict=*/false), start);
    if (!res.ok()) return res.status();
    buffer_ready_[static_cast<std::size_t>(buf.value())] = res.value().sram_free;
    done = res.value().media_done;
  }
  if (Status st = zones_.Finish(zone); !st.ok()) return st;
  return done;
}

}  // namespace conzone
