#include "core/device.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <unordered_map>

namespace conzone {

namespace {
/// Default integrity token when the host does not supply payloads.
std::uint64_t DefaultToken(Lpn lpn) { return 0xC0DE0000u ^ lpn.value(); }

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
        c.buffers.slot_bytes = c.geometry.slot_size;
        return c;
      }()),
      layout_(cfg_.geometry, cfg_.zone_size_bytes, cfg_.superblocks_per_zone,
              cfg_.EffectiveConventionalSuperblocks()),
      fault_(cfg_.fault),
      array_(cfg_.geometry),
      engine_(cfg_.geometry, cfg_.timing),
      pool_(cfg_.geometry, cfg_.EffectiveConventionalSuperblocks()),
      slc_alloc_(array_, pool_),
      buffers_(cfg_.buffers),
      zones_(ZoneLimitsConfig{cfg_.zone_size_bytes, cfg_.zone_size_bytes,
                              cfg_.num_conventional_zones + layout_.num_zones(),
                              cfg_.max_open_zones, cfg_.max_active_zones}),
      table_(MappingGeometry{
          (cfg_.num_conventional_zones + layout_.num_zones()) *
              (cfg_.zone_size_bytes / cfg_.geometry.slot_size),
          cfg_.lpns_per_chunk,
          static_cast<std::uint32_t>(cfg_.zone_size_bytes / cfg_.geometry.slot_size),
          static_cast<std::uint32_t>(cfg_.geometry.page_size / 4)}),
      cache_(cfg_.l2p),
      translator_(table_, cache_, *this, cfg_.translator),
      gc_(array_, engine_, pool_, slc_alloc_, cfg_.gc),
      l2p_log_(cfg_.l2p_log),
      conv_alloc_(array_, pool_),
      div_slot_(cfg_.geometry.slot_size),
      div_zone_(cfg_.zone_size_bytes),
      div_slots_per_page_(cfg_.geometry.slot_size ? cfg_.geometry.SlotsPerPage() : 0),
      div_lpns_per_zone_(cfg_.geometry.slot_size
                             ? cfg_.zone_size_bytes / cfg_.geometry.slot_size
                             : 0),
      div_host_bw_(cfg_.host_link_bandwidth_bps),
      lpns_per_zone_(cfg_.geometry.slot_size
                         ? cfg_.zone_size_bytes / cfg_.geometry.slot_size
                         : 0) {
  runtime_.resize(cfg_.num_conventional_zones + layout_.num_zones());
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
  di.num_zones = cfg_.num_conventional_zones + layout_.num_zones();
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
  s.buffer_flushes = stats_.flushes;
  s.premature_flushes = stats_.premature_flushes;
  s.overwrites = stats_.conventional_overwrites;
  s.gc_runs = gc_.stats().runs + stats_.conventional_gc_runs;
  s.gc_slots_migrated = gc_.stats().slots_migrated + stats_.conventional_gc_migrated;
  s.class_reads = class_reads_;
  s.class_writes = class_writes_;
  return s;
}

SimDuration ConZoneDevice::HostTransferTime(std::uint64_t bytes) const {
  // Same 64-bit fast path as TimingConfig::TransferTime: request sizes
  // keep bytes * 1e9 well inside 64 bits, and the link bandwidth is
  // fixed, so the reciprocal answers exactly.
  if (bytes <= UINT64_MAX / 1000000000ull) {
    return SimDuration::Nanos(div_host_bw_.Div(bytes * 1000000000ull));
  }
  const unsigned __int128 ns = static_cast<unsigned __int128>(bytes) * 1000000000ull /
                               cfg_.host_link_bandwidth_bps;
  return SimDuration::Nanos(static_cast<std::uint64_t>(ns));
}

Lpn ConZoneDevice::ZoneBaseLpn(ZoneId zone) const {
  return Lpn(zone.value() * LpnsPerZone());
}

void ConZoneDevice::ResetStats() {
  stats_ = ConZoneStats{};
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
  if (powered_off_) {
    return Status::FailedPrecondition("device is powered off: call Recover() first");
  }
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
  if (zone.value() >= cfg_.num_conventional_zones + layout_.num_zones()) {
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
  if (IsConventional(zone)) {
    return WriteConventional(zone, offset, len, now, tokens);
  }
  if (Status st = zones_.BeginWrite(zone, off_in_zone, len); !st.ok()) return st;

  ++stats_.writes;
  stats_.host_bytes_written += len;

  // Host DMA into device SRAM.
  SimTime t = now + cfg_.request_overhead;
  t = host_link_.Reserve(t, HostTransferTime(len)).end;

  const Lpn first_lpn = Lpn(div_slot_.Div(offset));
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
  return IsConventional(extent.owner) ? FlushConventionalExtent(std::move(extent), now)
                                      : FlushExtent(std::move(extent), now);
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
    if (Status st = array_.InvalidateSlot(e.ppn); !st.ok()) return st;
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

Result<ConZoneDevice::FlushResult> ConZoneDevice::StageSlots(
    ZoneId zone, ZoneRuntime& zr, const BufferedExtent& extent, std::uint64_t from_byte,
    SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t ext_start =
      (extent.first_lpn.value() - ZoneBaseLpn(zone).value()) * geo.slot_size;
  const std::uint64_t ext_end = ext_start + extent.slot_count() * geo.slot_size;
  if (from_byte >= ext_end) return FlushResult{now, now};
  const std::uint64_t first = (std::max(from_byte, ext_start) - ext_start) / geo.slot_size;

  std::vector<SlotWrite> writes(extent.slots.begin() +
                                    static_cast<std::ptrdiff_t>(first),
                                extent.slots.end());
  const std::uint64_t mark = array_.MarkJournal();
  auto ppns = slc_alloc_.Program(writes);
  if (!ppns.ok()) return ppns.status();
  if (!slc_alloc_.last_failed().empty()) {
    ChargeSlcRewrites(engine_, geo, slc_alloc_.last_failed(), now,
                      &array_.mutable_reliability());
  }
  const auto prog = ProgramSlcSlots(engine_, geo, ppns.value(), now);
  FlushResult done{prog.data_in, prog.end};
  for (std::size_t k = 0; k < writes.size(); ++k) {
    table_.Set(writes[k].lpn, ppns.value()[k]);
    cache_.Erase(L2pKey{MapGranularity::kPage, writes[k].lpn.value()});
  }
  l2p_log_.Append(writes.size());
  array_.StampJournal(mark, now, prog.end);
  zr.staged_end = ext_end;
  return done;
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::RedriveUnitToSlc(
    ZoneRuntime& zr, std::uint64_t mark, std::span<const SlotWrite> data,
    SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  // No GC here: the fold already invalidated the unit's staged source
  // copies, so reclaiming now could durably erase the only surviving
  // copies before the re-drive program completes. The caller reclaims
  // headroom before the unit's read-back instead.
  std::vector<SlotWrite> writes(data.begin(), data.end());
  auto ppns = slc_alloc_.Program(writes);
  if (!ppns.ok()) return ppns.status();
  if (!slc_alloc_.last_failed().empty()) {
    ChargeSlcRewrites(engine_, geo, slc_alloc_.last_failed(), now,
                      &array_.mutable_reliability());
  }
  const auto prog = ProgramSlcSlots(engine_, geo, ppns.value(), now);
  for (std::size_t k = 0; k < writes.size(); ++k) {
    table_.Set(writes[k].lpn, ppns.value()[k]);
    cache_.Erase(L2pKey{MapGranularity::kPage, writes[k].lpn.value()});
  }
  l2p_log_.Append(writes.size());
  // Covers the re-driven SLC program plus the invalidates from the fold
  // read-back that fed it — the caller's mark reaches back to them (a
  // burned one-shot pulse leaves no journal entry of its own).
  array_.StampJournal(mark, now, prog.end);
  // Part of the zone's nominally-normal range now lives in SLC: freeze
  // aggregation from here on (already-stamped chunks predate the failure
  // and are fully layout-resident, so they stay correct).
  zr.degraded = true;
  return FlushResult{prog.data_in, prog.end};
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::ProgramPatchRun(
    ZoneId zone, ZoneRuntime& zr, const BufferedExtent& extent, SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t begin = layout_.normal_bytes();
  const std::uint64_t end = cfg_.zone_size_bytes;
  const Lpn zbase = ZoneBaseLpn(zone);
  const std::uint64_t ext_start =
      (extent.first_lpn.value() - zbase.value()) * geo.slot_size;

  // Assemble the full patch: staged pieces are read back and invalidated
  // (they will be re-programmed contiguously), the rest comes from the
  // flushed buffer extent.
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

  auto ppns = slc_alloc_.Program(data);
  if (!ppns.ok()) return ppns.status();
  if (!slc_alloc_.last_failed().empty()) {
    ChargeSlcRewrites(engine_, geo, slc_alloc_.last_failed(), reads_done,
                      &array_.mutable_reliability());
  }
  const auto prog = ProgramSlcSlots(engine_, geo, ppns.value(), reads_done);
  FlushResult done{prog.data_in, prog.end};
  bool contiguous = true;
  for (std::size_t k = 0; k < data.size(); ++k) {
    const Ppn ppn = ppns.value()[k];
    table_.Set(data[k].lpn, ppn);
    cache_.Erase(L2pKey{MapGranularity::kPage, data[k].lpn.value()});
    if (k > 0) {
      auto expect = layout_.StripeAdvance(ppns.value()[0], k);
      if (!expect || *expect != ppn) contiguous = false;
    }
  }
  l2p_log_.Append(data.size());
  array_.StampJournal(mark, now, prog.end);
  zr.patch_start = ppns.value()[0];
  zr.patch_contiguous = contiguous;
  zr.durable_normal_end = begin;
  zr.staged_end = end;
  ++stats_.patch_runs;
  return done;
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
    // Reclaim SLC headroom for a possible re-drive BEFORE the fold
    // invalidates its staged source copies: GC running after that point
    // could durably erase the only surviving copies of data whose
    // superseding program a cut may still tear.
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
      // Fold: staged SLC data is read out and invalidated (§III-B ③).
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
      if (st.ok()) {
        const auto prog = engine_.ProgramFold(loc.chip, geo.normal_cell, unit,
                                              unit - staged_bytes, now, reads_done);
        done.sram_free = Later(done.sram_free, prog.data_in);
        done.media_done = Later(done.media_done, prog.end);
        for (std::size_t k = 0; k < data.size(); ++k) {
          const Ppn ppn = layout_.NormalSlot(SeqZone(zone), cur + k * geo.slot_size);
          table_.Set(data[k].lpn, ppn);
          cache_.Erase(L2pKey{MapGranularity::kPage, data[k].lpn.value()});
        }
        l2p_log_.Append(data.size());
        // One window for the fold's read-back invalidates and its
        // program: both become durable when the one-shot pulse ends.
        array_.StampJournal(mark, now, prog.end);
      } else if (st.code() == StatusCode::kMediaError) {
        // The die still ran (and burned) the one-shot pulse; the layout is
        // fixed, so the unit cannot relocate within the zone's reserved
        // blocks — re-drive it into SLC under page mapping.
        const auto burned = engine_.ProgramFold(loc.chip, geo.normal_cell, unit,
                                                unit - staged_bytes, now, reads_done);
        done.sram_free = Later(done.sram_free, burned.data_in);
        ReliabilityStats& rel = array_.mutable_reliability();
        rel.recovery_time += engine_.timing().For(geo.normal_cell).program_latency;
        rel.redrive_hist.Record(engine_.timing().For(geo.normal_cell).program_latency);
        rel.rewrite_slots += data.size();
        redrive = true;
      } else {
        return st;
      }
    }
    if (redrive) {
      auto rd = RedriveUnitToSlc(zr, mark, data, reads_done);
      if (!rd.ok()) return rd.status();
      done.sram_free = Later(done.sram_free, rd.value().sram_free);
      done.media_done = Later(done.media_done, rd.value().media_done);
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
    auto st = StageSlots(zone, zr, extent, std::max(cur, zr.staged_end), now);
    if (!st.ok()) return st.status();
    done.sram_free = Later(done.sram_free, st.value().sram_free);
    done.media_done = Later(done.media_done, st.value().media_done);
    staged_anything = true;
  }
  if (staged_anything) ++stats_.premature_flushes;

  UpdateAggregation(zone, zr);

  // Keep the SLC region ahead of demand. GC is foreground: while it
  // runs, host requests (including further appends) are held.
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

SimTime ConZoneDevice::WriteCheckpoint(SimTime now) {
  CheckpointImage img;
  img.seq = ckpt_.NextSeq();
  img.program_seq = array_.program_seq();
  // Extent-coded: zoned fills are contiguous in both lpn and ppn space,
  // so AddMapping collapses the table to O(extents) runs.
  table_.ForEachMapped([&](Lpn lpn, Ppn ppn) {
    img.AddMapping(lpn.value(), ppn.value());
  });
  // Zone snapshots: the pure reconciliation of the mapping we just
  // serialized. A zone whose reconcile has no orphans and whose staged
  // extent reaches the host-visible write pointer (nothing buffered or
  // in flight) is stamped restorable — an untouched zone restores its
  // runtime from these fields at mount without re-walking its lpns.
  {
    const auto& zinfos = zones_.zones();
    for (std::uint32_t z = 0; z < zinfos.size(); ++z) {
      ZoneSnap snap;
      snap.write_pointer = zinfos[z].write_pointer;
      if (!IsConventional(ZoneId{z})) {
        const ZoneReconcile rec = ReconcileZoneMapping(ZoneId{z});
        snap.durable_normal_end = rec.durable_normal_end;
        snap.patch_start = rec.patch_start.value();
        if (rec.degraded) snap.flags |= ZoneSnap::kFlagDegraded;
        if (rec.patch_contiguous) snap.flags |= ZoneSnap::kFlagPatchContiguous;
        if (!rec.has_orphans && rec.staged_end == zinfos[z].write_pointer) {
          snap.flags |= ZoneSnap::kFlagRestorable;
        }
      }
      img.zones.push_back(snap);
    }
  }
  for (SuperblockId sb : pool_.FreeSlcList()) img.free_slc.push_back(sb.value());
  for (SuperblockId sb : pool_.FreeNormalList()) {
    img.free_normal.push_back(sb.value());
  }
  std::vector<std::uint8_t> blob = img.Encode();

  // Honest media cost on the shared chip timelines: reclaim the target
  // slot's block, then program the image page-sized chunks striped across
  // the chips. Chunks on the same chip chain sequentially; chips run in
  // parallel, so the image lands in max-over-chips time, not the sum.
  const int slot = ckpt_.NextSlot();
  SimTime t = engine_.Erase(ChipId{ckpt_chip_}, cfg_.map_media, now);
  const std::uint32_t num_chips = cfg_.geometry.NumChips();
  std::vector<SimTime> chip_done(num_chips, t);
  std::uint64_t left = blob.size();
  while (left > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(left, cfg_.geometry.page_size);
    const std::uint32_t chip = ckpt_chip_;
    ckpt_chip_ = (ckpt_chip_ + 1) % num_chips;
    chip_done[chip] =
        engine_.Program(ChipId{chip}, cfg_.map_media, chunk, chip_done[chip]).end;
    left -= chunk;
  }
  for (SimTime done : chip_done) t = Later(t, done);
  ++recovery_.checkpoints_written;
  recovery_.checkpoint_bytes += blob.size();
  // Commit carries the media window's end: a cut before `t` tears this
  // slot and mount falls back to the other image (or the full scan).
  ckpt_.Commit(slot, std::move(blob), img.seq, t);
  flushed_entries_since_ckpt_ = 0;
  media_horizon_ = Later(media_horizon_, t);
  return t;
}

Result<SimTime> ConZoneDevice::CheckpointNow(SimTime now) {
  if (!cfg_.checkpoint.enabled) {
    return Status::FailedPrecondition("checkpointing is not enabled");
  }
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  const SimTime logged = MaybeFlushL2pLog(now, /*force=*/true);
  return WriteCheckpoint(logged);
}

// ---------------------------------------------------------------------------
// Aggregation maintenance
// ---------------------------------------------------------------------------

void ConZoneDevice::UpdateAggregation(ZoneId zone, ZoneRuntime& zr,
                                      bool table_prestamped) {
  // Degraded zones keep part of their "normal" range in SLC under page
  // mapping — aggregated entries would resolve those LPNs to the layout
  // and read stale media. Stamp nothing further.
  if (zr.degraded) return;
  const std::uint64_t chunk_bytes =
      static_cast<std::uint64_t>(cfg_.lpns_per_chunk) * cfg_.geometry.slot_size;
  const Lpn zbase = ZoneBaseLpn(zone);
  const std::uint64_t total_chunks = cfg_.zone_size_bytes / chunk_bytes;

  auto stamp_chunk = [&](std::uint32_t idx) {
    const Lpn cbase = Lpn(zbase.value() + static_cast<std::uint64_t>(idx) *
                                              cfg_.lpns_per_chunk);
    if (!table_prestamped) {
      table_.SetAggregated(cbase, cfg_.lpns_per_chunk, MapGranularity::kChunk);
    }
    auto base_ppn = ResolveAggregated(MapGranularity::kChunk,
                                      cbase.value() / cfg_.lpns_per_chunk, cbase);
    if (base_ppn) {
      translator_.OnAggregateGenerated(MapGranularity::kChunk,
                                       cbase.value() / cfg_.lpns_per_chunk, *base_ppn);
    }
    ++stats_.aggregates_chunk;
  };

  // Chunks wholly inside the durable normal prefix (§III-C ②: compare the
  // physical address against the chunk boundary — with the reserved
  // layout that is exactly the durable prefix test).
  while (static_cast<std::uint64_t>(zr.chunks_aggregated + 1) * chunk_bytes <=
         zr.durable_normal_end) {
    stamp_chunk(zr.chunks_aggregated);
    ++zr.chunks_aggregated;
  }

  // Zone completion: the patch (if any) must have landed contiguously.
  const bool complete = zr.staged_end == cfg_.zone_size_bytes &&
                        zr.durable_normal_end == layout_.normal_bytes();
  const bool patch_ok = layout_.patch_bytes() == 0 || zr.patch_contiguous;
  if (complete && patch_ok && !zr.zone_aggregated) {
    while (zr.chunks_aggregated < total_chunks) {
      stamp_chunk(zr.chunks_aggregated);
      ++zr.chunks_aggregated;
    }
    if (cfg_.max_aggregation == MapGranularity::kZone) {
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
}

std::optional<Ppn> ConZoneDevice::ResolveAggregated(MapGranularity gran,
                                                    std::uint64_t unit_index,
                                                    Lpn lpn) const {
  (void)gran;
  (void)unit_index;
  const ZoneId zone{div_lpns_per_zone_.Div(lpn.value())};
  if (IsConventional(zone)) return std::nullopt;  // never aggregated
  if (zone.value() >= cfg_.num_conventional_zones + layout_.num_zones()) {
    return std::nullopt;
  }
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
  const MapEntry e = table_.Get(lpn);
  if (e.gran != MapGranularity::kPage) {
    // Only patch slots can be both SLC-resident and aggregated; moving
    // one breaks the zone (and patch-chunk) aggregation.
    const ZoneId zone{lpn.value() / LpnsPerZone()};
    ZoneRuntime& zr = runtime_[static_cast<std::size_t>(zone.value())];
    const Lpn zbase = ZoneBaseLpn(zone);
    const std::uint64_t chunk_bytes =
        static_cast<std::uint64_t>(cfg_.lpns_per_chunk) * cfg_.geometry.slot_size;
    const std::uint32_t full_chunks =
        static_cast<std::uint32_t>(layout_.normal_bytes() / chunk_bytes);

    table_.DowngradeToPage(zbase, LpnsPerZone());
    cache_.Erase(L2pKey{MapGranularity::kZone, zone.value()});
    const std::uint64_t first_chunk = zbase.value() / cfg_.lpns_per_chunk;
    const std::uint64_t total_chunks = cfg_.zone_size_bytes / chunk_bytes;
    for (std::uint64_t c = 0; c < total_chunks; ++c) {
      cache_.Erase(L2pKey{MapGranularity::kChunk, first_chunk + c});
    }
    // Chunks wholly in the normal region stay aggregatable at chunk level.
    for (std::uint32_t c = 0; c < full_chunks; ++c) {
      const Lpn cbase = Lpn(zbase.value() + static_cast<std::uint64_t>(c) *
                                                cfg_.lpns_per_chunk);
      table_.SetAggregated(cbase, cfg_.lpns_per_chunk, MapGranularity::kChunk);
      auto base_ppn = ResolveAggregated(MapGranularity::kChunk,
                                        cbase.value() / cfg_.lpns_per_chunk, cbase);
      if (base_ppn) {
        translator_.OnAggregateGenerated(MapGranularity::kChunk,
                                         cbase.value() / cfg_.lpns_per_chunk, *base_ppn);
      }
    }
    zr.zone_aggregated = false;
    zr.patch_contiguous = false;
    zr.chunks_aggregated = full_chunks;
    ++stats_.aggregation_breaks;
  }
  table_.Set(lpn, new_ppn);
  cache_.Erase(L2pKey{MapGranularity::kPage, lpn.value()});
  l2p_log_.Append(1);
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
  const SimTime t0 = now + cfg_.request_overhead;
  SimTime data_done = t0;

  // Per-request page groups: one sense + transfer per distinct flash page.
  read_groups_.Clear();
  const std::uint64_t end = offset + len;
  for (std::uint64_t off = offset; off < end; off += slot) {
    const Lpn lpn = Lpn(div_slot_.Div(off));
    const ZoneId zone{div_zone_.Div(off)};
    const std::uint64_t off_in_zone = off - zone.value() * cfg_.zone_size_bytes;
    if (IsConventional(zone)) {
      // In-place region: no write pointer; validity comes from the
      // mapping itself. Buffered updates are served from RAM.
      if (const std::uint64_t* tok = buffers_.BufferedToken(lpn)) {
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
      const SlotRead r = array_.ReadSlot(tr.value().ppn);
      if (r.state != SlotState::kValid || r.lpn != lpn) {
        return Status::Internal("conventional mapping stale (lpn " +
                                std::to_string(lpn.value()) + ")");
      }
      if (tokens_out) tokens_out->push_back(r.token);
      read_groups_.Add(FlashPageId(div_slots_per_page_.Div(tr.value().ppn.value())), dep,
                       r.retry_level);
      continue;
    }
    if (Status st = zones_.CheckRead(zone, off_in_zone, slot); !st.ok()) return st;
    const ZoneRuntime& zr = runtime_[static_cast<std::size_t>(zone.value())];

    if (off_in_zone >= zr.staged_end) {
      // Still in the volatile write buffer: served from RAM.
      const BufferedExtent& b = buffers_.Contents(buffers_.BufferForZone(zone));
      if (b.empty() || b.owner != zone || lpn < b.first_lpn ||
          lpn.value() >= b.first_lpn.value() + b.slot_count()) {
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
    const BlockId block = geo.BlockOfPage(g.page);
    array_.CountPageRead();
    data_done = Later(data_done, engine_.ReadPage(geo.ChipOfBlock(block),
                                                  geo.CellOfBlock(block),
                                                  g.slots * slot, g.dep, g.retries));
  }

  // Stream the payload back to the host.
  return host_link_.Reserve(data_done, HostTransferTime(len)).end;
}

Result<std::uint64_t> ConZoneDevice::ReadAggregatedRun(
    ZoneId zone, std::uint64_t off_in_zone, std::uint64_t req_end, Lpn lpn, Ppn ppn,
    MapGranularity gran, SimTime t0, std::vector<std::uint64_t>* tokens_out) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t slot = geo.slot_size;
  const std::uint64_t unit_bytes =
      gran == MapGranularity::kZone
          ? cfg_.zone_size_bytes
          : static_cast<std::uint64_t>(cfg_.lpns_per_chunk) * slot;
  // Translate would hit the same entry, unchanged, for every later slot
  // of the unit that is still durable (not in the write buffer), below
  // the write pointer and in the normal region (patch slots resolve
  // through the SLC stripe instead of the layout).
  const std::uint64_t run_end =
      std::min({(off_in_zone / unit_bytes + 1) * unit_bytes,
                runtime_[static_cast<std::size_t>(zone.value())].staged_end,
                zones_.Info(zone).write_pointer, layout_.normal_bytes(), req_end});
  // A program unit's slots are consecutive ppns in one block: consult
  // the layout once per program unit and step inside it.
  std::uint64_t next_unit = (off_in_zone / geo.program_unit + 1) * geo.program_unit;
  std::uint64_t n = 0;
  for (std::uint64_t off = off_in_zone + slot; off < run_end; off += slot) {
    ++n;
    lpn = Lpn(lpn.value() + 1);
    if (off == next_unit) {
      ppn = layout_.NormalSlot(SeqZone(zone), off);
      next_unit += geo.program_unit;
    } else {
      ppn = Ppn(ppn.value() + 1);
    }
    // ReadSlot draws read-retry levels from the fault RNG: one call per
    // slot, in slot order, exactly as the per-slot path makes them.
    const SlotRead r = array_.ReadSlot(ppn);
    if (r.state != SlotState::kValid || r.lpn != lpn) {
      translator_.BookRepeatedHits(gran, n);
      return StaleSlot(lpn, ppn);
    }
    if (tokens_out) tokens_out->push_back(r.token);
    read_groups_.Add(FlashPageId(div_slots_per_page_.Div(ppn.value())), t0, r.retry_level);
  }
  translator_.BookRepeatedHits(gran, n);
  return n;
}

// ---------------------------------------------------------------------------
// Erase path
// ---------------------------------------------------------------------------

Result<SimTime> ConZoneDevice::ResetZone(ZoneId zone, SimTime now) {
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  if (!zone.valid() ||
      zone.value() >= cfg_.num_conventional_zones + layout_.num_zones()) {
    return Status::OutOfRange("reset of invalid zone");
  }
  if (IsConventional(zone)) return ResetConventionalZone(zone, now);
  if (Status st = zones_.Reset(zone); !st.ok()) return st;
  ++stats_.zone_resets;

  const FlashGeometry& geo = cfg_.geometry;
  buffers_.Discard(zone);

  // Invalidate SLC-resident slots (staged data and the patch, E.2: "if
  // the zone has some data in SLC, ConZone invalidates it also") and drop
  // all mappings. The walk stops at the zone's last mapped lpn.
  const std::uint64_t mark = array_.MarkJournal();
  const Lpn zbase = ZoneBaseLpn(zone);
  for (std::uint64_t i = 0; i < LpnsPerZone() && table_.zone_mapped_count(zone) > 0;
       ++i) {
    const Lpn lpn = Lpn(zbase.value() + i);
    const MapEntry e = table_.Get(lpn);
    if (!e.mapped()) continue;
    if (geo.IsSlcBlock(geo.BlockOfSlot(e.ppn))) {
      // Erased normal blocks reset their own slot state below.
      (void)array_.InvalidateSlot(e.ppn);
    }
    table_.Unmap(lpn);
  }
  cache_.InvalidateLpnRange(zbase, LpnsPerZone());

  // Directly erase the reserved normal blocks that hold data.
  const SimTime t0 = now + cfg_.request_overhead;
  SimTime done = t0;
  for (std::uint32_t k = 0; k < cfg_.superblocks_per_zone; ++k) {
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
      Status st = array_.EraseBlock(b);
      done = Later(done, engine_.Erase(ChipId{c}, geo.normal_cell, t0));
      if (!st.ok()) {
        if (st.code() != StatusCode::kMediaError) return st;
        array_.ScrubBlock(b);
        array_.mutable_reliability().recovery_time +=
            engine_.timing().For(geo.normal_cell).erase_latency;
      }
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
  if (cfg_.checkpoint.enabled && cfg_.checkpoint.on_host_flush &&
      flushed_entries_since_ckpt_ >= cfg_.checkpoint.min_flush_entries &&
      flushed_entries_since_ckpt_ > 0) {
    done = WriteCheckpoint(done);
  }
  return done;
}


// ---------------------------------------------------------------------------
// Conventional zones (SIII-E extension): in-place updates for the host's
// metadata region, backed by a page-mapped dynamic pool with its own GC.
// ---------------------------------------------------------------------------

SimTime ConZoneDevice::ChargeNormalBurns(SimTime issue) {
  SimTime done = issue;
  const FlashGeometry& geo = cfg_.geometry;
  ReliabilityStats& rel = array_.mutable_reliability();
  for (const ChipId chip : conv_alloc_.last_failed_chips()) {
    done = Later(done,
                 engine_.Program(chip, geo.normal_cell, geo.program_unit, issue).data_in);
    rel.recovery_time += engine_.timing().For(geo.normal_cell).program_latency;
    rel.redrive_hist.Record(engine_.timing().For(geo.normal_cell).program_latency);
    rel.rewrite_slots += geo.program_unit / geo.slot_size;
  }
  return done;
}

Status ConZoneDevice::SetMappingInPlace(Lpn lpn, Ppn ppn) {
  const MapEntry old = table_.Get(lpn);
  if (old.mapped() && array_.StateOfSlot(old.ppn) == SlotState::kValid) {
    if (Status st = array_.InvalidateSlot(old.ppn); !st.ok()) return st;
    ++stats_.conventional_overwrites;
  }
  table_.Set(lpn, ppn);
  cache_.Erase(L2pKey{MapGranularity::kPage, lpn.value()});
  l2p_log_.Append(1);
  return Status::Ok();
}

Result<SimTime> ConZoneDevice::WriteConventional(ZoneId zone, std::uint64_t offset,
                                                 std::uint64_t len, SimTime now,
                                                 std::span<const std::uint64_t> tokens) {
  ++stats_.writes;
  ++stats_.conventional_writes;
  stats_.host_bytes_written += len;

  SimTime t = now + cfg_.request_overhead;
  t = host_link_.Reserve(t, HostTransferTime(len)).end;

  const std::uint64_t nslots = div_slot_.Div(len);
  const Lpn first_lpn = Lpn(div_slot_.Div(offset));

  std::uint64_t i = 0;
  while (i < nslots) {
    const Lpn next = Lpn(first_lpn.value() + i);
    // The controller tracks in-place streams the way Legacy does:
    // continue a matching extent, else take an empty buffer, else evict
    // the coldest one (which may belong to a sequential zone - FlushAny
    // dispatches correctly).
    const WriteBufferId buf = buffers_.PickBufferForStream(next);
    t = Later(t, buffer_ready_[static_cast<std::size_t>(buf.value())]);

    const BufferedExtent& cur = buffers_.Contents(buf);
    const bool contiguous =
        cur.empty() || (cur.owner == zone &&
                        Lpn(cur.first_lpn.value() + cur.slot_count()) == next);
    const bool overlaps =
        !cur.empty() && next.value() < cur.first_lpn.value() + cur.slot_count() &&
        next.value() + (nslots - i) > cur.first_lpn.value();
    if (!contiguous || overlaps) {
      ++stats_.conflict_flushes;
      auto done = FlushAny(buffers_.Take(buf, /*conflict=*/true), t);
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
      ++stats_.conflict_flushes;
      t = Later(t, buffer_ready_[static_cast<std::size_t>(o.value())]);
      auto done = FlushAny(buffers_.Take(o, /*conflict=*/true), t);
      if (!done.ok()) return done.status();
      buffer_ready_[static_cast<std::size_t>(o.value())] = done.value().sram_free;
      t = done.value().sram_free;
    }
    std::vector<SlotWrite>& chunk = chunk_scratch_;
    chunk.clear();
    for (std::uint64_t k = 0; k < n; ++k) {
      const Lpn lpn = Lpn(first_lpn.value() + i + k);
      chunk.push_back(
          SlotWrite{lpn, tokens.empty() ? DefaultToken(lpn) : tokens[i + k]});
    }
    if (Status st = buffers_.AppendTo(buf, zone, next, chunk); !st.ok()) return st;
    i += n;

    if (buffers_.FreeSlots(buf) == 0) {
      auto done = FlushAny(buffers_.Take(buf, /*conflict=*/false), t);
      if (!done.ok()) return done.status();
      buffer_ready_[static_cast<std::size_t>(buf.value())] = done.value().sram_free;
    }
  }
  return t;
}

Result<ConZoneDevice::FlushResult> ConZoneDevice::FlushConventionalExtent(
    BufferedExtent extent, SimTime now) {
  if (extent.empty()) return FlushResult{now, now};
  ++stats_.flushes;
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t unit_slots = geo.program_unit / geo.slot_size;
  FlushResult done{now, now};

  std::size_t i = 0;
  // Whole one-shot units into the conventional pool's log.
  while (extent.slot_count() - i >= unit_slots) {
    const std::uint64_t mark = array_.MarkJournal();
    auto unit = conv_alloc_.ProgramUnit(
        std::span<const SlotWrite>(extent.slots).subspan(i, unit_slots));
    if (!unit.ok()) return unit.status();
    if (!conv_alloc_.last_failed_chips().empty()) {
      done.sram_free = Later(done.sram_free, ChargeNormalBurns(now));
    }
    const auto prog =
        engine_.Program(unit.value().chip, geo.normal_cell, geo.program_unit, now);
    done.sram_free = Later(done.sram_free, prog.data_in);
    done.media_done = Later(done.media_done, prog.end);
    for (std::size_t k = 0; k < unit_slots; ++k) {
      if (Status st = SetMappingInPlace(extent.slots[i + k].lpn, unit.value().ppns[k]);
          !st.ok()) {
        return st;
      }
    }
    // The unit's program and the overwrites it superseded share one
    // durability window.
    array_.StampJournal(mark, now, prog.end);
    i += unit_slots;
  }
  // Sub-unit remainder: through the shared SLC secondary buffer. Under
  // page mapping it simply lives there until GC migrates it.
  if (i < extent.slot_count()) {
    ++stats_.premature_flushes;
    const std::uint64_t mark = array_.MarkJournal();
    std::vector<SlotWrite> rest(extent.slots.begin() + static_cast<std::ptrdiff_t>(i),
                                extent.slots.end());
    auto ppns = slc_alloc_.Program(rest);
    if (!ppns.ok()) return ppns.status();
    if (!slc_alloc_.last_failed().empty()) {
      ChargeSlcRewrites(engine_, geo, slc_alloc_.last_failed(), now,
                        &array_.mutable_reliability());
    }
    const auto prog = ProgramSlcSlots(engine_, geo, ppns.value(), now);
    done.sram_free = Later(done.sram_free, prog.data_in);
    done.media_done = Later(done.media_done, prog.end);
    for (std::size_t k = 0; k < rest.size(); ++k) {
      if (Status st = SetMappingInPlace(rest[k].lpn, ppns.value()[k]); !st.ok()) {
        return st;
      }
    }
    array_.StampJournal(mark, now, prog.end);
  }

  if (pool_.FreeNormalCount() < cfg_.gc.low_watermark) {
    auto gc_done = CollectConventional(done.media_done);
    if (!gc_done.ok()) return gc_done.status();
    done.media_done = Later(done.media_done, gc_done.value());
    done.sram_free = Later(done.sram_free, gc_done.value());
  }
  if (gc_.NeedsGc()) {
    auto gc_done = gc_.Run(done.media_done);
    if (!gc_done.ok()) return gc_done.status();
    done.media_done = Later(done.media_done, gc_done.value());
    done.sram_free = Later(done.sram_free, gc_done.value());
  }
  const SimTime logged = MaybeFlushL2pLog(done.sram_free);
  done.sram_free = Later(done.sram_free, logged);
  done.media_done = Later(done.media_done, logged);
  media_horizon_ = Later(media_horizon_, done.media_done);
  return done;
}

Result<SimTime> ConZoneDevice::CollectConventional(SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  ++stats_.conventional_gc_runs;
  SimTime t = now;
  const std::uint32_t pool_begin = geo.NumSlcSuperblocks();
  const std::uint32_t pool_end =
      pool_begin + cfg_.EffectiveConventionalSuperblocks();
  std::size_t last_free = pool_.FreeNormalCount();
  int stalled = 0;
  while (pool_.FreeNormalCount() < cfg_.gc.reclaim_target) {
    // Greedy victim within the conventional pool.
    SuperblockId victim;
    std::uint64_t best_valid = ~0ull;
    for (std::uint32_t sb = pool_begin; sb < pool_end; ++sb) {
      const SuperblockId cand{sb};
      if (cand == conv_alloc_.current_superblock()) continue;
      if (pool_.IsFreeNormal(cand)) continue;
      std::uint64_t valid = 0, used = 0;
      std::uint32_t healthy = 0;
      for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
        const BlockId b = geo.BlockOfSuperblock(cand, ChipId{c});
        valid += array_.ValidSlots(b);
        used += array_.NextProgramSlot(b);
        if (!array_.IsRetired(b)) ++healthy;
      }
      if (used == 0) continue;
      if (healthy == 0) continue;  // fully retired: nothing reclaimable
      if (valid < best_valid) {
        best_valid = valid;
        victim = cand;
      }
    }
    if (!victim.valid()) {
      if (pool_.FreeNormalCount() == 0) {
        return Status::ResourceExhausted("conventional pool exhausted, no victim");
      }
      break;
    }
    if (pool_.FreeNormalCount() <= last_free && ++stalled > 1) break;
    last_free = pool_.FreeNormalCount();

    // Read live slots (grouped per page), re-log them, erase, release.
    const std::uint64_t migrate_mark = array_.MarkJournal();
    const SimTime migrate_start = t;
    std::vector<SlotWrite> live;
    std::vector<Ppn> old_ppns;
    SimTime reads_done = t;
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      const BlockId b = geo.BlockOfSuperblock(victim, ChipId{c});
      const std::uint32_t used = array_.NextProgramSlot(b);
      std::uint32_t page_live = 0;
      std::uint32_t page_retry = 0;
      std::uint32_t current_page = ~0u;
      auto flush_page = [&] {
        if (page_live == 0) return;
        array_.CountPageRead();
        reads_done = Later(reads_done,
                           engine_.ReadPage(ChipId{c}, geo.normal_cell,
                                            page_live * geo.slot_size, t, page_retry));
        page_live = 0;
        page_retry = 0;
      };
      for (std::uint32_t sidx = 0; sidx < used; ++sidx) {
        const std::uint32_t page = sidx / geo.SlotsPerPage();
        const Ppn ppn = geo.SlotAt(geo.PageAt(b, page), sidx % geo.SlotsPerPage());
        if (array_.StateOfSlot(ppn) != SlotState::kValid) continue;
        if (page != current_page) {
          flush_page();
          current_page = page;
        }
        ++page_live;
        const SlotRead r = array_.ReadSlot(ppn);
        if (r.retry_level > page_retry) page_retry = r.retry_level;
        live.push_back(SlotWrite{r.lpn, r.token});
        old_ppns.push_back(ppn);
      }
      flush_page();
    }
    // Invalidate the old copies first so SetMappingInPlace's invariant
    // (mapping points at a valid slot) holds while re-logging.
    for (const Ppn old : old_ppns) {
      if (Status st = array_.InvalidateSlot(old); !st.ok()) return st;
    }
    std::size_t i = 0;
    while (i < live.size()) {
      std::vector<SlotWrite> unit(
          live.begin() + static_cast<std::ptrdiff_t>(i),
          live.begin() + static_cast<std::ptrdiff_t>(
                             std::min(i + geo.program_unit / geo.slot_size, live.size())));
      const std::size_t data_count = unit.size();
      unit.resize(geo.program_unit / geo.slot_size, SlotWrite{Lpn::Invalid(), 0});
      auto res = conv_alloc_.ProgramUnit(unit);
      if (!res.ok()) return res.status();
      if (!conv_alloc_.last_failed_chips().empty()) {
        t = Later(t, ChargeNormalBurns(reads_done));
      }
      t = Later(t, engine_.Program(res.value().chip, geo.normal_cell, geo.program_unit,
                                   reads_done)
                       .end);
      for (std::size_t k = 0; k < unit.size(); ++k) {
        const Ppn ppn = res.value().ppns[k];
        if (k < data_count) {
          table_.Set(unit[k].lpn, ppn);
          cache_.Erase(L2pKey{MapGranularity::kPage, unit[k].lpn.value()});
          l2p_log_.Append(1);
        } else {
          if (Status st = array_.InvalidateSlot(ppn); !st.ok()) return st;
        }
      }
      i += data_count;
      stats_.conventional_gc_migrated += data_count;
    }
    // Two-phase stamping (GC is not atomic under power loss): the
    // migration — source invalidates plus re-log programs — closes when
    // the last program pulse ends; the erases are stamped separately
    // below with their true issue time, or a mid-GC cut would mislabel
    // never-issued erases as torn and destroy restorable source data.
    array_.StampJournal(migrate_mark, migrate_start, t);
    const std::uint64_t erase_mark = array_.MarkJournal();
    SimTime erases = t;
    std::uint32_t healthy_erased = 0;
    for (std::uint32_t c = 0; c < geo.NumChips(); ++c) {
      const BlockId b = geo.BlockOfSuperblock(victim, ChipId{c});
      if (array_.IsRetired(b)) {
        array_.ScrubBlock(b);
        continue;
      }
      Status st = array_.EraseBlock(b);
      erases = Later(erases, engine_.Erase(ChipId{c}, geo.normal_cell, t));
      if (st.ok()) {
        ++healthy_erased;
        continue;
      }
      if (st.code() != StatusCode::kMediaError) return st;
      array_.ScrubBlock(b);
      array_.mutable_reliability().recovery_time +=
          engine_.timing().For(geo.normal_cell).erase_latency;
    }
    array_.StampJournal(erase_mark, t, erases);
    t = erases;
    if (healthy_erased > 0) {
      if (Status st = pool_.ReleaseNormal(victim); !st.ok()) return st;
    }
  }
  return t;
}

Result<SimTime> ConZoneDevice::EvictConventionalFromSlc(std::vector<SlotWrite> slots,
                                                        SimTime reads_done) {
  const FlashGeometry& geo = cfg_.geometry;
  // Make room in the pool first if needed; this never re-enters SLC GC.
  SimTime t = reads_done;
  if (pool_.FreeNormalCount() == 0) {
    auto gc_done = CollectConventional(t);
    if (!gc_done.ok()) return gc_done.status();
    t = gc_done.value();
  }
  const std::uint64_t unit_slots = geo.program_unit / geo.slot_size;
  std::size_t i = 0;
  while (i < slots.size()) {
    std::vector<SlotWrite> unit(
        slots.begin() + static_cast<std::ptrdiff_t>(i),
        slots.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + unit_slots, slots.size())));
    const std::size_t data_count = unit.size();
    unit.resize(unit_slots, SlotWrite{Lpn::Invalid(), 0});
    const std::uint64_t mark = array_.MarkJournal();
    const SimTime issue = t;
    auto res = conv_alloc_.ProgramUnit(unit);
    if (!res.ok()) return res.status();
    if (!conv_alloc_.last_failed_chips().empty()) {
      t = Later(t, ChargeNormalBurns(t));
    }
    t = Later(t, engine_.Program(res.value().chip, geo.normal_cell, geo.program_unit, t)
                     .end);
    for (std::size_t k = 0; k < unit.size(); ++k) {
      const Ppn ppn = res.value().ppns[k];
      if (k < data_count) {
        // The caller (SLC GC) invalidates the old copies; just repoint.
        table_.Set(unit[k].lpn, ppn);
        cache_.Erase(L2pKey{MapGranularity::kPage, unit[k].lpn.value()});
        l2p_log_.Append(1);
      } else {
        if (Status st = array_.InvalidateSlot(ppn); !st.ok()) return st;
      }
    }
    array_.StampJournal(mark, issue, t);
    i += data_count;
  }
  return t;
}

Result<SimTime> ConZoneDevice::ResetConventionalZone(ZoneId zone, SimTime now) {
  ++stats_.zone_resets;
  buffers_.Discard(zone);
  const std::uint64_t mark = array_.MarkJournal();
  const Lpn zbase = ZoneBaseLpn(zone);
  for (std::uint64_t i = 0; i < LpnsPerZone(); ++i) {
    const Lpn lpn = Lpn(zbase.value() + i);
    const MapEntry e = table_.Get(lpn);
    if (!e.mapped()) continue;
    if (array_.StateOfSlot(e.ppn) == SlotState::kValid) {
      if (Status st = array_.InvalidateSlot(e.ppn); !st.ok()) return st;
    }
    table_.Unmap(lpn);
  }
  cache_.InvalidateLpnRange(zbase, LpnsPerZone());
  // No erase here: the pool's blocks are shared; GC reclaims them. The
  // invalidates are controller metadata; they become cut-proof once the
  // reset is acknowledged.
  array_.StampJournal(mark, now, now + cfg_.request_overhead);
  return now + cfg_.request_overhead;
}

Result<SimTime> ConZoneDevice::FinishZone(ZoneId zone, SimTime now) {
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  if (!zone.valid() ||
      zone.value() >= cfg_.num_conventional_zones + layout_.num_zones()) {
    return Status::OutOfRange("finish of invalid zone");
  }
  if (IsConventional(zone)) {
    return Status::FailedPrecondition("conventional zones have no FINISH");
  }
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

// ---------------------------------------------------------------------------
// Power loss and crash-consistent recovery
// ---------------------------------------------------------------------------

Status ConZoneDevice::PowerCut(SimTime cut_time) {
  if (!array_.JournalEnabled()) {
    return Status::FailedPrecondition(
        "power loss not enabled (set fault.power_loss before Create)");
  }
  if (powered_off_) {
    return Status::FailedPrecondition("device is already powered off");
  }
  if (cut_time < last_submit_) {
    return Status::InvalidArgument("power cut precedes the last host submission");
  }
  ++recovery_.power_cuts;
  // Media first: every batch whose program window had not closed at the
  // cut rolls back per the journal's point-of-no-return rule.
  FlashArray::PowerCutReport rep = array_.ApplyPowerCut(cut_time);
  recovery_.torn_program_slots += rep.torn_program_slots;
  recovery_.unissued_program_slots += rep.unissued_program_slots;
  recovery_.resurrected_slots += rep.resurrected_slots;
  reerase_pending_ = std::move(rep.reerase);
  rescan_pending_ = std::move(rep.rescan);
  last_cut_time_ = cut_time;
  // A checkpoint image whose programs had not finished at the cut is
  // torn; the store invalidates it so mount elects the previous image.
  recovery_.checkpoints_torn += ckpt_.ApplyPowerCut(cut_time);
  // Volatile controller state dies with the SRAM: buffered host data and
  // the unflushed (or in-flight) L2P log tail.
  recovery_.buffered_slots_lost += buffers_.DiscardAll();
  recovery_.l2p_log_bytes_lost += l2p_log_.DropVolatile(cut_time);
  powered_off_ = true;
  return Status::Ok();
}

Result<SimTime> ConZoneDevice::RecoverReeraseTorn(std::span<const BlockId> blocks,
                                                  SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  SimTime done = now;
  for (const BlockId b : blocks) {
    if (array_.IsRetired(b)) continue;
    const CellType cell = geo.CellOfBlock(b);
    Status st = array_.EraseBlock(b);
    done = Later(done, engine_.Erase(geo.ChipOfBlock(b), cell, now));
    if (!st.ok()) {
      if (st.code() != StatusCode::kMediaError) return st;
      array_.ScrubBlock(b);
      array_.mutable_reliability().recovery_time +=
          engine_.timing().For(cell).erase_latency;
    }
    ++recovery_.reerased_blocks;
  }
  return done;
}

Result<SimTime> ConZoneDevice::RecoverScanMedia(SimTime now) {
  const FlashGeometry& geo = cfg_.geometry;
  std::uint64_t mapped = 0;
  SimTime done = now;
  const std::uint32_t num_zones = cfg_.num_conventional_zones + layout_.num_zones();
  zone_dirty_.assign(num_zones, 0);
  mount_have_snaps_ = false;
  const std::uint64_t lpns_per_zone = LpnsPerZone();
  auto dirty_lpn = [&](std::uint64_t lpn_v) {
    const std::uint64_t z = lpn_v / lpns_per_zone;
    if (z < num_zones) zone_dirty_[static_cast<std::size_t>(z)] = 1;
  };

  // Checkpoint fast path (§12): replay the newest valid image, then
  // bound the OOB scan to blocks programmed after its watermark. The
  // image is a RAM snapshot, so every entry is re-checked against the
  // media it points at — a slot torn or superseded after the snapshot
  // rejects here and the tail scan (or a forced rescan) supplies the
  // truth instead.
  bool have_ckpt = false;
  std::uint64_t watermark = 0;
  std::optional<CheckpointImage> img;  // lives past the tail scan (pass B)
  std::vector<std::uint8_t> run_clean;
  if (cfg_.checkpoint.enabled && cfg_.checkpoint.load_at_mount) {
    const CheckpointStore::Slot* slot = ckpt_.NewestValid();
    // NewestValid only elects decodable slots, so Decode cannot fail
    // here; the has_value() check keeps the fallback honest anyway.
    if (slot != nullptr) img = CheckpointImage::Decode(slot->blob);
      if (img.has_value()) {
      // Charge the image load like the write: page-sized chunk reads
      // striped over the chips. Same-chip chunks chain sequentially,
      // chips overlap, so the load costs max-over-chips time.
      std::vector<SimTime> chip_done(geo.NumChips(), done);
      std::uint64_t left = slot->blob.size();
      std::uint32_t chip = 0;
      while (left > 0) {
        const std::uint64_t chunk = std::min<std::uint64_t>(left, geo.page_size);
        array_.CountPageRead();
        chip_done[chip] =
            engine_.ReadPage(ChipId{chip}, cfg_.map_media, chunk, chip_done[chip]);
        chip = (chip + 1) % geo.NumChips();
        left -= chunk;
      }
      for (SimTime cd : chip_done) done = Later(done, cd);
      watermark = img->program_seq;
      have_ckpt = true;
      ++recovery_.checkpoint_loaded;
      recovery_.checkpoint_age_hist.Record(last_cut_time_ - slot->media_end);
      if (img->zones.size() == num_zones) {
        mount_zone_snaps_ = std::move(img->zones);
        mount_have_snaps_ = true;
      }
      // Force-rescan flags: blocks the cut's undo pass put *older* state
      // back into (resurrected slots, restored erase pre-images) must be
      // rescanned even below the watermark — and their image runs
      // re-checked per-slot — because the image may map their lpns
      // elsewhere or not at all.
      rescan_flags_.assign(static_cast<std::size_t>(geo.TotalBlocks()), 0);
      for (const BlockId b : rescan_pending_) {
        rescan_flags_[static_cast<std::size_t>(b.value())] = 1;
      }
      // Pass A — cleanliness only, no installs yet: a run is clean when
      // every block its ppn span touches is unchanged since the snapshot
      // (change-seq at or below the watermark, no forced rescan), so the
      // media still holds exactly what the image recorded. Unclean runs
      // dirty every zone they span: those zones' restore must fall back
      // to media reconciliation. Installation waits for the tail scan
      // below so the final per-zone restore decision (and with it each
      // entry's aggregation map bits) is known before the table pass.
      const std::uint64_t num_lpns = table_.geometry().num_lpns;
      const std::uint64_t run_spb =
          static_cast<std::uint64_t>(geo.pages_per_block) * geo.SlotsPerPage();
      const std::uint64_t total_slots = geo.TotalBlocks() * run_spb;
      run_clean.assign(img->mappings.size(), 0);
      for (std::size_t ri = 0; ri < img->mappings.size(); ++ri) {
        const MapRun& run = img->mappings[ri];
        bool clean = run.lpn + run.count <= num_lpns &&
                     run.ppn + run.count <= total_slots;
        if (clean) {
          const std::uint64_t b_first = run.ppn / run_spb;
          const std::uint64_t b_last = (run.ppn + run.count - 1) / run_spb;
          for (std::uint64_t b = b_first; clean && b <= b_last; ++b) {
            clean = array_.LastChangeSeq(BlockId{b}) <= watermark &&
                    rescan_flags_[static_cast<std::size_t>(b)] == 0;
          }
        }
        run_clean[ri] = clean ? 1 : 0;
        if (!clean) {
          const std::uint64_t z0 = run.lpn / lpns_per_zone;
          const std::uint64_t z1 = (run.lpn + run.count - 1) / lpns_per_zone;
          for (std::uint64_t z = z0; z <= z1 && z < num_zones; ++z) {
            zone_dirty_[static_cast<std::size_t>(z)] = 1;
          }
        }
      }
    }
  }
  rescan_pending_.clear();

  // Reset the table, skipping the ranges clean image runs will stream
  // over in pass B: at high fullness nearly every entry is about to be
  // re-installed, and rewriting the table twice is the dominant mount
  // cost. Unclean runs and the tail scan need genuinely cleared entries
  // (they probe `prev.mapped()`), and their lpns are never inside a
  // clean run: a post-snapshot copy of a clean run's lpn would have
  // invalidated the run's slot (change-seq bump) or sits in a cut-undo
  // block (forced rescan) — either way pass A already marked the run
  // unclean. A stale entry slipping through anyway trips the two-copies
  // check or the Σvalid == mapped gate; nothing fails silently.
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keep;
    if (img.has_value()) {
      keep.reserve(img->mappings.size());
      for (std::size_t ri = 0; ri < img->mappings.size(); ++ri) {
        if (run_clean[ri] != 0) {
          keep.emplace_back(img->mappings[ri].lpn, img->mappings[ri].count);
        }
      }
    }
    table_.ClearForMountExcept(keep);
  }

  const std::uint32_t slots_per_page = geo.SlotsPerPage();
  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo.pages_per_block) * slots_per_page;
  // Hot loop (the tail path): the flat ppn of a block's slot s is
  // base + s, so the per-slot PageAt/SlotAt arithmetic is hoisted into
  // one running base per block.
  std::uint64_t base = 0;
  for (std::uint64_t bi = 0; bi < geo.TotalBlocks(); ++bi, base += slots_per_block) {
    const BlockId b{bi};
    const std::uint32_t used = array_.NextProgramSlot(b);
    if (used == 0) continue;
    const std::uint32_t used_pages = (used + slots_per_page - 1) / slots_per_page;
    if (have_ckpt && array_.LastProgramSeq(b) <= watermark &&
        rescan_flags_[static_cast<std::size_t>(bi)] == 0) {
      // Untouched since the snapshot: the image already mapped every
      // valid slot here identically. Skip the senses entirely.
      recovery_.pages_skipped += used_pages;
      continue;
    }
    const ChipId chip = geo.ChipOfBlock(b);
    const CellType cell = geo.CellOfBlock(b);
    // One OOB sense per used page; pages of one block are sequential on
    // the chip, blocks on different chips overlap via the timelines.
    SimTime block_done = now;
    for (std::uint32_t p = 0; p < used_pages; ++p) {
      array_.CountPageRead();
      block_done = engine_.ReadPage(chip, cell, geo.page_size, block_done);
      ++recovery_.pages_scanned;
    }
    done = Later(done, block_done);
    for (std::uint32_t s = 0; s < used; ++s) {
      const Ppn ppn{base + s};
      // PeekSlot: the mount scan charges timing above but never draws
      // from the fault RNG — a cut/recover cycle must not perturb the
      // fault sequence of later host IO.
      const SlotRead r = array_.PeekSlot(ppn);
      if (r.state != SlotState::kValid) continue;
      if (!r.lpn.valid()) continue;  // alignment padding never maps
      // A scanned-in slot means this zone changed after the snapshot
      // (or there is no snapshot); its restore must re-reconcile.
      dirty_lpn(r.lpn.value());
      const MapEntry prev = table_.Get(r.lpn);
      if (prev.mapped()) {
        // Image entries install after this loop, so a prior mapping here
        // is another scanned block's copy — a genuine double, same as
        // the full scan. (Same-ppn is unreachable; kept for symmetry
        // with the image path.)
        if (prev.ppn == ppn) continue;
        // ClearForMountExcept trusts that a zone with no mapped entry
        // holds only default ones; the skipped keep ranges still hold
        // stale bytes, so a failed mount leaves a wholly cleared table.
        table_.ClearAllForMount();
        return Status::Internal("mount scan found two valid copies of lpn " +
                                std::to_string(r.lpn.value()));
      }
      table_.Set(r.lpn, ppn);
      ++mapped;
    }
  }

  // Pass B — install the image runs. zone_dirty_ is final now, so each
  // restorable-and-clean zone's aggregation boundary is known up front
  // and a clean run installs with its final map bits in one streaming
  // store pass (no second SetAggregated sweep at restore time).
  if (img.has_value()) {
    std::vector<std::uint64_t> agg_end(num_zones, 0);
    std::vector<MapGranularity> agg_gran(num_zones, MapGranularity::kPage);
    if (mount_have_snaps_) {
      const std::uint64_t chunk_bytes =
          static_cast<std::uint64_t>(cfg_.lpns_per_chunk) * geo.slot_size;
      for (std::uint32_t z = cfg_.num_conventional_zones; z < num_zones; ++z) {
        if (zone_dirty_[z] != 0) continue;
        const ZoneSnap& snap = mount_zone_snaps_[z];
        if ((snap.flags & ZoneSnap::kFlagRestorable) == 0) continue;
        if ((snap.flags & ZoneSnap::kFlagDegraded) != 0) continue;
        // Mirror of UpdateAggregation over the snapshot's runtime: whole
        // chunks inside the durable normal prefix aggregate at chunk
        // granularity; a complete zone with a contiguous patch lifts to
        // the configured maximum.
        const std::uint64_t zbase = static_cast<std::uint64_t>(z) * lpns_per_zone;
        const bool complete = snap.write_pointer == cfg_.zone_size_bytes &&
                              snap.durable_normal_end == layout_.normal_bytes();
        const bool patch_ok = layout_.patch_bytes() == 0 ||
                              (snap.flags & ZoneSnap::kFlagPatchContiguous) != 0;
        if (complete && patch_ok) {
          agg_end[z] = zbase + lpns_per_zone;
          agg_gran[z] = cfg_.max_aggregation == MapGranularity::kZone
                            ? MapGranularity::kZone
                            : MapGranularity::kChunk;
        } else {
          agg_end[z] = zbase + (snap.durable_normal_end / chunk_bytes) *
                                   cfg_.lpns_per_chunk;
          agg_gran[z] = MapGranularity::kChunk;
        }
      }
    }
    std::uint64_t accepted = 0;
    const std::uint64_t num_lpns = table_.geometry().num_lpns;
    for (std::size_t ri = 0; ri < img->mappings.size(); ++ri) {
      const MapRun& run = img->mappings[ri];
      if (run_clean[ri] != 0) {
        // Clean runs install blind (image lpns are unique, and a clean
        // run cannot collide with a scanned-in entry: any supersede of
        // its data would have changed one of its blocks). Segment by
        // zone and aggregation boundary for the final map bits.
        std::uint64_t lpn = run.lpn;
        std::uint64_t ppn = run.ppn;
        std::uint64_t left = run.count;
        while (left > 0) {
          const std::uint64_t z = lpn / lpns_per_zone;
          std::uint64_t seg_end = (z + 1) * lpns_per_zone;
          MapGranularity gran = MapGranularity::kPage;
          if (z < num_zones && lpn < agg_end[z]) {
            seg_end = agg_end[z];
            gran = agg_gran[z];
          }
          const std::uint64_t n = std::min(left, seg_end - lpn);
          table_.InstallRunAtMount(Lpn{lpn}, Ppn{ppn}, n, gran);
          lpn += n;
          ppn += n;
          left -= n;
        }
        accepted += run.count;
        continue;
      }
      // Per-entry path: something under the run moved after the
      // snapshot (pass A already dirtied the spanned zones). Each entry
      // is re-checked against the media it points at — a slot torn or
      // superseded after the snapshot rejects here, and the tail scan
      // already supplied the truth.
      for (std::uint64_t i = 0; i < run.count; ++i) {
        const std::uint64_t lpn_v = run.lpn + i;
        if (lpn_v >= num_lpns) {
          ++recovery_.checkpoint_stale_dropped;
          continue;
        }
        const Ppn ppn{run.ppn + i};
        // PeekSlot: no fault RNG draws, same as the scan above.
        const SlotRead r = array_.PeekSlot(ppn);
        if (r.state != SlotState::kValid || !r.lpn.valid() ||
            r.lpn.value() != lpn_v) {
          ++recovery_.checkpoint_stale_dropped;
          continue;
        }
        const MapEntry prev = table_.Get(Lpn{lpn_v});
        if (prev.mapped()) {
          // The tail scan installed this exact mapping already; anything
          // else is a genuine double copy, same as the full scan.
          if (prev.ppn == ppn) continue;
          table_.ClearAllForMount();  // as for the tail scan's double above
          return Status::Internal("mount scan found two valid copies of lpn " +
                                  std::to_string(lpn_v));
        }
        table_.Set(Lpn{lpn_v}, ppn);
        ++accepted;
      }
    }
    mapped += accepted;
    recovery_.checkpoint_mappings += accepted;
  }
  recovery_.replayed_mappings += mapped;
  return done;
}

ConZoneDevice::ZoneReconcile ConZoneDevice::ReconcileZoneMapping(
    ZoneId zone) const {
  const FlashGeometry& geo = cfg_.geometry;
  ZoneReconcile rec;
  const Lpn zbase = ZoneBaseLpn(zone);
  const std::uint64_t slot = geo.slot_size;
  const std::uint64_t unit_lpns = geo.program_unit / slot;
  const std::uint64_t normal_lpns = layout_.normal_bytes() / slot;
  const std::uint64_t zone_lpns = LpnsPerZone();

  // 1. Durable normal prefix: whole one-shot units fully mapped from unit
  //    0 upward. A unit counts even when its slots were re-driven into
  //    SLC — the zone simply comes back degraded, like after a live
  //    program failure. A one-shot unit never spans blocks and its slots
  //    are ppn-consecutive, so one NormalSlot call per unit anchors the
  //    layout compare for all of its lpns.
  std::uint64_t u = 0;
  bool degraded = false;
  for (; u < normal_lpns / unit_lpns; ++u) {
    const Ppn unit_base =
        layout_.NormalSlot(SeqZone(zone), u * geo.program_unit);
    bool full = true;
    bool off_layout = false;
    for (std::uint64_t k = 0; k < unit_lpns; ++k) {
      const std::uint64_t rel = u * unit_lpns + k;
      const MapEntry e = table_.Get(Lpn(zbase.value() + rel));
      if (!e.mapped()) {
        full = false;
        break;
      }
      if (e.ppn.value() != unit_base.value() + k) off_layout = true;
    }
    if (!full) break;
    degraded |= off_layout;
  }
  rec.durable_normal_end = u * geo.program_unit;
  rec.degraded = degraded;

  // 2. Contiguous staged run beyond the durable prefix (SLC staging and,
  //    on a complete zone, the patch).
  std::uint64_t s = u * unit_lpns;
  while (s < zone_lpns && table_.Get(Lpn(zbase.value() + s)).mapped()) ++s;
  rec.staged_end = s * slot;

  // 3. Mapped islands beyond the staged extent: the s lpns below it are
  //    all mapped, so any further mapped entry shows in the zone's count.
  rec.has_orphans = table_.zone_mapped_count(zone) > s;

  // 4. §III-E patch contiguity, rechecked against the stripe layout so
  //    aggregated reads stay sound after the remount.
  if (rec.staged_end == cfg_.zone_size_bytes && layout_.patch_bytes() > 0) {
    const MapEntry first = table_.Get(Lpn(zbase.value() + normal_lpns));
    bool contiguous = first.mapped();
    for (std::uint64_t k = 1; contiguous && k < zone_lpns - normal_lpns; ++k) {
      const MapEntry e = table_.Get(Lpn(zbase.value() + normal_lpns + k));
      auto expect = layout_.StripeAdvance(first.ppn, k);
      if (!expect || !e.mapped() || e.ppn != *expect) contiguous = false;
    }
    rec.patch_start = first.ppn;
    rec.patch_contiguous = contiguous;
  }
  return rec;
}

Status ConZoneDevice::RecoverZone(ZoneId zone) {
  const FlashGeometry& geo = cfg_.geometry;
  ZoneRuntime& zr = runtime_[static_cast<std::size_t>(zone.value())];
  zr = ZoneRuntime{};
  const ZoneReconcile rec = ReconcileZoneMapping(zone);
  zr.durable_normal_end = rec.durable_normal_end;
  zr.staged_end = rec.staged_end;
  zr.degraded = rec.degraded;
  zr.patch_start = rec.patch_start;
  zr.patch_contiguous = rec.patch_contiguous;

  // Orphans: mapped islands beyond the reconciled write pointer are
  // unreachable under zone semantics. They are always unacknowledged
  // data — a host Flush waits for every outstanding pulse, so durable
  // content can never strand behind a hole. Drop them.
  if (rec.has_orphans) {
    const Lpn zbase = ZoneBaseLpn(zone);
    const std::uint64_t zone_lpns = LpnsPerZone();
    for (std::uint64_t k = rec.staged_end / geo.slot_size; k < zone_lpns; ++k) {
      const Lpn lpn = Lpn(zbase.value() + k);
      const MapEntry e = table_.Get(lpn);
      if (!e.mapped()) continue;
      if (array_.StateOfSlot(e.ppn) == SlotState::kValid) {
        if (Status st = array_.InvalidateSlot(e.ppn); !st.ok()) return st;
      }
      table_.Unmap(lpn);
      ++recovery_.orphaned_slots;
    }
  }

  // Re-stamp aggregation from scratch over the recovered durable state,
  // then restore host-visible zone state from the reconciled write
  // pointer (ZNS after unexpected power off: EMPTY, CLOSED or FULL only).
  UpdateAggregation(zone, zr);
  zones_.RestoreAtMount(zone, zr.staged_end);
  return Status::Ok();
}

Result<SimTime> ConZoneDevice::Recover(SimTime now) {
  if (!powered_off_) {
    return Status::FailedPrecondition("device is not powered off");
  }
  // Recovery's own media mutations are the new durable baseline, not
  // undoable state (a second cut during the remount is not modeled).
  array_.PauseJournal(true);
  auto fail = [&](Status st) -> Result<SimTime> {
    array_.PauseJournal(false);
    return st;
  };

  // 1. Torn erases left untrusted cells: run a real erase (wear and
  //    possible faults included) before anything can program there.
  auto re = RecoverReeraseTorn(reerase_pending_, now);
  if (!re.ok()) return fail(re.status());
  reerase_pending_.clear();
  SimTime t = re.value();

  // 2. OOB scan: rebuild the page-granularity L2P table from media,
  //    replaying what the lost log tail described.
  auto sc = RecoverScanMedia(t);
  if (!sc.ok()) return fail(sc.status());
  t = sc.value();

  // 3. The L2P cache died with the SRAM. Clear it before reconciliation
  //    re-pins aggregated entries.
  const std::uint32_t num_zones = cfg_.num_conventional_zones + layout_.num_zones();
  cache_.InvalidateLpnRange(Lpn(0),
                            static_cast<std::uint64_t>(num_zones) * LpnsPerZone());

  // 4. Per-zone reconciliation: write pointers, staging extents,
  //    aggregation, orphan slots. A zone whose snapshot is restorable
  //    and that stayed clean through the scan (no entry dropped, no slot
  //    sensed, no forced per-entry check) is byte-identical to the image
  //    — restore its runtime from the snapshot instead of re-walking its
  //    lpn range.
  for (std::uint32_t z = 0; z < num_zones; ++z) {
    const ZoneId zone{z};
    if (IsConventional(zone)) {
      // In-place region: no write pointer to reconcile; validity comes
      // from the rebuilt mapping alone.
      runtime_[z] = ZoneRuntime{};
      zones_.RestoreAtMount(zone, 0);
      continue;
    }
    if (mount_have_snaps_ && zone_dirty_[z] == 0 &&
        (mount_zone_snaps_[z].flags & ZoneSnap::kFlagRestorable) != 0) {
      const ZoneSnap& snap = mount_zone_snaps_[z];
      ZoneRuntime& zr = runtime_[z];
      zr = ZoneRuntime{};
      zr.durable_normal_end = snap.durable_normal_end;
      zr.staged_end = snap.write_pointer;  // restorable ⇒ wp == staged end
      zr.degraded = (snap.flags & ZoneSnap::kFlagDegraded) != 0;
      zr.patch_start = Ppn{snap.patch_start};
      zr.patch_contiguous = (snap.flags & ZoneSnap::kFlagPatchContiguous) != 0;
      // Map bits were already written by the scan's bulk install;
      // regenerate only counters and resolver pins.
      UpdateAggregation(zone, zr, /*table_prestamped=*/true);
      zones_.RestoreAtMount(zone, zr.staged_end);
      ++recovery_.zones_restored;
      continue;
    }
    if (Status st = RecoverZone(zone); !st.ok()) return fail(st);
  }
  zones_.RecountAfterMount();

  // 5. Allocators and free lists from the surviving media state.
  pool_.RebuildFreeLists(array_);
  slc_alloc_.Remount();
  conv_alloc_.Remount();
  read_only_ = array_.HealthySlcBlocks() < cfg_.fault.read_only_spare_floor_blocks;

  // 6. Counters must reconcile: every mapped LPN points at exactly one
  //    valid slot and every valid slot is mapped.
  std::uint64_t valid = 0;
  for (std::uint64_t b = 0; b < cfg_.geometry.TotalBlocks(); ++b) {
    valid += array_.ValidSlots(BlockId{b});
  }
  if (valid != table_.mapped_count()) {
    return fail(Status::Internal(
        "recovery reconcile failed: " + std::to_string(valid) +
        " valid slots vs " + std::to_string(table_.mapped_count()) +
        " mapped lpns"));
  }
  // The per-zone counts that checkpoint serialisation and reconciliation
  // trust must add up to the same total.
  std::uint64_t zone_mapped = 0;
  for (std::uint64_t z = 0; z < table_.num_zones(); ++z) {
    zone_mapped += table_.zone_mapped_count(ZoneId{z});
  }
  if (zone_mapped != table_.mapped_count()) {
    return fail(Status::Internal(
        "recovery reconcile failed: per-zone mapped counts sum to " +
        std::to_string(zone_mapped) + ", not " + std::to_string(table_.mapped_count())));
  }

  for (SimTime& br : buffer_ready_) br = t;
  media_horizon_ = t;
  last_submit_ = t;
  powered_off_ = false;
  ++recovery_.recoveries;
  recovery_.remount_time += t - now;
  recovery_.remount_hist.Record(t - now);
  array_.PauseJournal(false);
  return t;
}

}  // namespace conzone
