#include "legacy/legacy_device.hpp"

namespace conzone {

namespace {
/// Default integrity token (salt ^ lpn) when the host supplies none.
constexpr std::uint64_t kTokenSalt = 0x1E6AC700ull;
}  // namespace

Status LegacyConfig::Validate() const {
  if (Status st = geometry.Validate(); !st.ok()) return st;
  if (Status st = buffers.Validate(geometry.slot_size); !st.ok()) return st;
  if (over_provision < 0.0 || over_provision >= 0.5) {
    return Status::InvalidArgument("legacy: over-provision must be in [0, 0.5)");
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
    : cfg_(config),
      usable_bytes_(RoundDown(
          static_cast<std::uint64_t>(
              static_cast<double>(cfg_.geometry.NormalRegionBytes()) *
              (1.0 - cfg_.over_provision)),
          cfg_.geometry.program_unit)),
      array_(cfg_.geometry),
      engine_(cfg_.geometry, cfg_.timing),
      pool_(cfg_.geometry),
      slc_alloc_(array_, pool_),
      buffers_(cfg_.buffers, cfg_.geometry.slot_size),
      table_(MappingGeometry{
          usable_bytes_ / cfg_.geometry.slot_size, cfg_.l2p.lpns_per_chunk,
          cfg_.l2p.lpns_per_zone,
          static_cast<std::uint32_t>(cfg_.geometry.page_size / 4)}),
      cache_(cfg_.l2p),
      translator_(table_, cache_, resolver_,
                  TranslatorConfig{L2pSearchStrategy::kBitmap, /*hybrid=*/false,
                                   cfg_.prefetch_window}),
      log_(array_, engine_, pool_, slc_alloc_, buffers_, buffer_ready_, table_, cache_,
           translator_, /*l2p_log=*/nullptr, cfg_.map_media, kTokenSalt) {
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
  s.host_flushes = stats_.host_flushes;
  const PageLogStats& log = log_.stats();
  s.buffer_flushes = log.flushes;
  s.premature_flushes = log.premature_flushes;
  s.overwrites = log.overwrites;
  s.gc_runs = log.gc_runs;
  s.gc_slots_migrated = log.gc_slots_migrated;
  s.class_reads = class_reads_;
  s.class_writes = class_writes_;
  return s;
}

LegacyStats LegacyDevice::stats() const {
  LegacyStats s = stats_;
  const PageLogStats& log = log_.stats();
  s.flushes = log.flushes;
  s.premature_flushes = log.premature_flushes;
  s.buffer_ram_reads = log.buffer_ram_reads;
  s.gc_runs = log.gc_runs;
  s.gc_slots_migrated = log.gc_slots_migrated;
  s.overwrites = log.overwrites;
  return s;
}

void LegacyDevice::ResetStats() {
  stats_ = LegacyStats{};
  log_.ResetStats();
  class_reads_ = {};
  class_writes_ = {};
  translator_.ResetStats();
  cache_.ResetStats();
  array_.ResetCounters();
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

  // Streams have no zone identity; extents are keyed by contiguity only.
  return log_.Write(ZoneId{0}, Lpn(offset / slot), len / slot, tokens, t,
                    [this](BufferedExtent&& extent, SimTime at, bool /*conflict*/) {
                      return FlushExtent(extent, at);
                    });
}

Result<FlushTimes> LegacyDevice::FlushExtent(const BufferedExtent& extent, SimTime now) {
  if (extent.empty()) return FlushTimes{now, now};
  auto placed = log_.FlushExtent(extent, now);
  if (!placed.ok()) return placed.status();
  FlushTimes done = placed.value();
  // Full GC over both regions (Fig. 1 E.1/E.2): the normal region, then
  // the SLC region, each once its free list drops below the watermark.
  SimTime t = done.media_done;
  if (pool_.FreeNormalCount() < kGcLowWatermark) {
    auto r = log_.Collect(PageLog::Region::kLog, t);
    if (!r.ok()) return r.status();
    t = r.value();
  }
  if (pool_.FreeSlcCount() < kGcLowWatermark) {
    auto r = log_.Collect(PageLog::Region::kSlc, t);
    if (!r.ok()) return r.status();
    t = r.value();
  }
  done.media_done = Later(done.media_done, t);
  done.sram_free = Later(done.sram_free, t);
  return done;
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
  for (std::uint64_t off = offset; off < offset + len; off += slot) {
    if (Status st = log_.ReadSlot(Lpn(off / slot), t0, read_groups_, tokens_out); !st.ok()) {
      return st;
    }
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
  ++stats_.host_flushes;
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
