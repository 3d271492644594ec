#include "femu/femu_device.hpp"

#include <string>

namespace conzone {

Status FemuConfig::Validate() const {
  if (Status st = geometry.Validate(); !st.ok()) return st;
  if (kvm_jitter_max < kvm_jitter_min) {
    return Status::InvalidArgument("femu: jitter max below min");
  }
  if (max_open_zones == 0 || max_active_zones < max_open_zones) {
    return Status::InvalidArgument("femu: bad zone limits");
  }
  return Status::Ok();
}

Result<std::unique_ptr<FemuModelDevice>> FemuModelDevice::Create(
    const FemuConfig& config) {
  if (Status st = config.Validate(); !st.ok()) return st;
  return std::unique_ptr<FemuModelDevice>(new FemuModelDevice(config));
}

FemuModelDevice::FemuModelDevice(const FemuConfig& config)
    : cfg_([&] {
        FemuConfig c = config;
        // FEMU does not model the flash-bus bandwidth (§IV-B).
        c.timing.channel_bandwidth_bps = 0;
        return c;
      }()),
      zone_bytes_(cfg_.geometry.NormalSuperblockBytes()),
      num_zones_(cfg_.geometry.NumNormalSuperblocks()),
      engine_(cfg_.geometry, cfg_.timing),
      zones_(ZoneLimitsConfig{zone_bytes_, zone_bytes_, num_zones_, cfg_.max_open_zones,
                              cfg_.max_active_zones}),
      rng_(cfg_.seed) {
  tokens_.resize(static_cast<std::size_t>(zone_bytes_ / cfg_.geometry.slot_size) *
                 num_zones_);
  buffered_.resize(num_zones_, 0);
  buffer_ready_.resize(num_zones_, SimTime::Zero());
}

DeviceInfo FemuModelDevice::info() const {
  DeviceInfo di;
  di.name = "FEMU";
  di.capacity_bytes = zone_bytes_ * num_zones_;
  di.zone_size_bytes = zone_bytes_;
  di.num_zones = num_zones_;
  di.max_open_zones = cfg_.max_open_zones;
  di.max_active_zones = cfg_.max_active_zones;
  di.io_alignment = cfg_.geometry.slot_size;
  return di;
}

Result<IoResult> FemuModelDevice::Write(const IoRequest& req) {
  auto done = WriteImpl(req.offset, req.len, req.now, req.tokens);
  if (!done.ok()) return done.status();
  ++class_writes_[static_cast<std::size_t>(req.io_class)];
  return IoResult{done.value(), {}};
}

Result<IoResult> FemuModelDevice::Read(const IoRequest& req) {
  IoResult res;
  auto done =
      ReadImpl(req.offset, req.len, req.now, req.want_tokens ? &res.tokens : nullptr);
  if (!done.ok()) return done.status();
  ++class_reads_[static_cast<std::size_t>(req.io_class)];
  res.done = done.value();
  return res;
}

StatsSnapshot FemuModelDevice::Stats() const {
  StatsSnapshot s;
  s.host_bytes_written = stats_.host_bytes_written;
  s.host_bytes_read = stats_.host_bytes_read;
  // FEMU's behavioral model has no media-byte accounting beyond whole
  // superpage programs; charge them at superpage granularity.
  s.flash_bytes_written = stats_.superpage_programs * cfg_.geometry.SuperpageBytes();
  s.writes = stats_.writes;
  s.reads = stats_.reads;
  s.zone_resets = stats_.zone_resets;
  s.host_flushes = stats_.host_flushes;
  s.class_reads = class_reads_;
  s.class_writes = class_writes_;
  return s;
}

SimDuration FemuModelDevice::Jitter() {
  const std::uint64_t lo = cfg_.kvm_jitter_min.ns();
  const std::uint64_t hi = cfg_.kvm_jitter_max.ns();
  return SimDuration::Nanos(rng_.NextInRange(lo, hi));
}

Result<SimTime> FemuModelDevice::WriteImpl(std::uint64_t offset, std::uint64_t len,
                                       SimTime now,
                                       std::span<const std::uint64_t> tokens) {
  const std::uint64_t slot = cfg_.geometry.slot_size;
  if (offset % slot != 0 || len % slot != 0 || len == 0) {
    return Status::InvalidArgument("write must be aligned and non-empty");
  }
  const ZoneId zone{offset / zone_bytes_};
  if (zone.value() >= num_zones_) return Status::OutOfRange("write beyond capacity");
  const std::uint64_t off_in_zone = offset % zone_bytes_;
  if (len > zone_bytes_ || off_in_zone > zone_bytes_ - len) {
    return Status::InvalidArgument("write crosses a zone boundary");
  }
  if (!tokens.empty() && tokens.size() != len / slot) {
    return Status::InvalidArgument("token count mismatch");
  }
  if (Status st = zones_.BeginWrite(zone, off_in_zone, len); !st.ok()) return st;

  ++stats_.writes;
  stats_.host_bytes_written += len;
  for (std::uint64_t i = 0; i < len / slot; ++i) {
    const std::uint64_t lpn = offset / slot + i;
    tokens_[static_cast<std::size_t>(lpn)] =
        tokens.empty() ? (0xFE40ull << 32 | lpn) : tokens[i];
  }

  // QEMU stack + KVM exit, then wait for any in-flight flush of this
  // zone's buffer.
  SimTime t = now + cfg_.request_overhead + Jitter();
  t = Later(t, buffer_ready_[static_cast<std::size_t>(zone.value())]);

  // Program a superpage (all chips in parallel, no bus transfer cost)
  // every time the accumulated data covers one.
  std::uint64_t& pending = buffered_[static_cast<std::size_t>(zone.value())];
  pending += len;
  const std::uint64_t superpage = cfg_.geometry.SuperpageBytes();
  while (pending >= superpage) {
    SimTime prog_done = t;
    for (std::uint32_t c = 0; c < cfg_.geometry.NumChips(); ++c) {
      prog_done = Later(prog_done, engine_.Program(ChipId{c}, cfg_.geometry.normal_cell,
                                                   cfg_.geometry.program_unit, t)
                                       .end);
    }
    buffer_ready_[static_cast<std::size_t>(zone.value())] = prog_done;
    pending -= superpage;
    ++stats_.superpage_programs;
    if (pending >= superpage) t = prog_done;  // back-to-back programs serialize
  }
  return t;
}

Result<SimTime> FemuModelDevice::ReadImpl(std::uint64_t offset, std::uint64_t len,
                                      SimTime now,
                                      std::vector<std::uint64_t>* tokens_out) {
  const FlashGeometry& geo = cfg_.geometry;
  const std::uint64_t slot = geo.slot_size;
  if (offset % slot != 0 || len % slot != 0 || len == 0) {
    return Status::InvalidArgument("read must be aligned and non-empty");
  }
  const std::uint64_t capacity = info().capacity_bytes;
  if (len > capacity || offset > capacity - len) {
    return Status::OutOfRange("read beyond capacity");
  }
  // Validate against write pointers zone by zone.
  std::uint64_t off = offset;
  while (off < offset + len) {
    const ZoneId zone{off / zone_bytes_};
    const std::uint64_t in_zone = off % zone_bytes_;
    const std::uint64_t n = std::min(len - (off - offset), zone_bytes_ - in_zone);
    if (Status st = zones_.CheckRead(zone, in_zone, n); !st.ok()) return st;
    off += n;
  }

  ++stats_.reads;
  stats_.host_bytes_read += len;
  if (tokens_out) {
    for (std::uint64_t i = 0; i < len / slot; ++i) {
      tokens_out->push_back(tokens_[static_cast<std::size_t>(offset / slot + i)]);
    }
  }

  const SimTime t0 = now + cfg_.request_overhead + Jitter();
  // One uniform multi-level-cell sense per flash page. FEMU's QEMU I/O
  // thread walks the pages of a request serially and every page-sized
  // DMA crosses the host/guest boundary, so each sense picks up its own
  // KVM-exit jitter — this is exactly why §IV-B finds FEMU unable to
  // emulate latencies in the tens of microseconds.
  SimTime done = t0;
  const std::uint64_t first_page = offset / geo.page_size;
  const std::uint64_t last_page = (offset + len - 1) / geo.page_size;
  for (std::uint64_t p = first_page; p <= last_page; ++p) {
    const std::uint64_t unit = p * geo.page_size % zone_bytes_ / geo.program_unit;
    const ChipId chip{unit % geo.NumChips()};
    done = engine_.ReadPage(chip, geo.normal_cell, geo.page_size, done) + Jitter();
  }
  return done;
}

Result<SimTime> FemuModelDevice::ResetZone(ZoneId zone, SimTime now) {
  if (!zone.valid() || zone.value() >= num_zones_) {
    return Status::OutOfRange("reset of invalid zone");
  }
  if (Status st = zones_.Reset(zone); !st.ok()) return st;
  ++stats_.zone_resets;
  buffered_[static_cast<std::size_t>(zone.value())] = 0;
  SimTime done = now + cfg_.request_overhead + Jitter();
  for (std::uint32_t c = 0; c < cfg_.geometry.NumChips(); ++c) {
    done = Later(done, engine_.Erase(ChipId{c}, cfg_.geometry.normal_cell,
                                     now + cfg_.request_overhead));
  }
  return done;
}

Result<SimTime> FemuModelDevice::Flush(SimTime now) {
  ++stats_.host_flushes;
  // Partial buffers program a (padded) superpage.
  SimTime done = now;
  for (std::uint32_t z = 0; z < num_zones_; ++z) {
    if (buffered_[z] == 0) continue;
    SimTime t = Later(now, buffer_ready_[z]);
    for (std::uint32_t c = 0; c < cfg_.geometry.NumChips(); ++c) {
      t = Later(t, engine_.Program(ChipId{c}, cfg_.geometry.normal_cell,
                                   cfg_.geometry.program_unit,
                                   Later(now, buffer_ready_[z]))
                       .end);
    }
    buffered_[z] = 0;
    buffer_ready_[z] = t;
    ++stats_.superpage_programs;
    done = Later(done, t);
  }
  return done;
}

}  // namespace conzone
