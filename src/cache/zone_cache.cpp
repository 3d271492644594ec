#include "cache/zone_cache.hpp"

#include <algorithm>
#include <limits>

namespace conzone {

namespace {

constexpr std::uint32_t kNoZone = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;
constexpr std::uint64_t kHeaderMagic = 0x5A43414348453031ull;  // "ZCACHE01"
constexpr std::uint64_t kJournalMagic = 0x5A434A4F55524E31ull;  // "ZCJOURN1"

/// FNV-1a folded a 64-bit word at a time; the multiply diffuses each
/// word across the state, which is all the stand-in data channel needs.
std::uint64_t FnvMix(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * kFnvPrime;
}

}  // namespace

std::uint64_t ZoneCache::HeaderToken(std::uint64_t key, std::uint32_t value_slots,
                                     std::span<const std::uint64_t> value_tokens) {
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, kHeaderMagic);
  h = FnvMix(h, key);
  h = FnvMix(h, value_slots);
  for (std::uint64_t t : value_tokens) h = FnvMix(h, t);
  return h;
}

// ---------------------------------------------------------------------------
// Journal record codec: 3 slots (one token each).
//   t0 = key                  (kSnapEnd: seq of the snapshot's first record)
//   t1 = op:4 | group:8 | value_slots:12 | zone:20 | slot:20
//   t2 = seq32 << 32 | FNV32(magic, seq32, t0, t1)
// A torn record (slots from different epochs, or a half-durable write)
// fails the checksum and is dropped at replay.
// ---------------------------------------------------------------------------

void ZoneCache::EncodeRecord(const JournalRecord& r, std::uint64_t out[3]) {
  out[0] = r.key;
  out[1] = static_cast<std::uint64_t>(r.op) |
           (static_cast<std::uint64_t>(r.group & 0xFFu) << 4) |
           (static_cast<std::uint64_t>(r.value_slots & 0xFFFu) << 12) |
           (static_cast<std::uint64_t>(r.zone & 0xFFFFFu) << 24) |
           (static_cast<std::uint64_t>(r.slot & 0xFFFFFu) << 44);
  const std::uint64_t seq32 = r.seq & 0xFFFFFFFFull;
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, kJournalMagic);
  h = FnvMix(h, seq32);
  h = FnvMix(h, out[0]);
  h = FnvMix(h, out[1]);
  out[2] = (seq32 << 32) | (h & 0xFFFFFFFFull);
}

bool ZoneCache::DecodeRecord(const std::uint64_t in[3], JournalRecord* r) {
  const std::uint64_t seq32 = in[2] >> 32;
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, kJournalMagic);
  h = FnvMix(h, seq32);
  h = FnvMix(h, in[0]);
  h = FnvMix(h, in[1]);
  if ((h & 0xFFFFFFFFull) != (in[2] & 0xFFFFFFFFull)) return false;
  const std::uint64_t op = in[1] & 0xFu;
  if (op < static_cast<std::uint64_t>(JOp::kPut) ||
      op > static_cast<std::uint64_t>(JOp::kSnapEnd)) {
    return false;
  }
  r->op = static_cast<JOp>(op);
  r->key = in[0];
  r->group = static_cast<std::uint32_t>((in[1] >> 4) & 0xFFu);
  r->value_slots = static_cast<std::uint32_t>((in[1] >> 12) & 0xFFFu);
  r->zone = static_cast<std::uint32_t>((in[1] >> 24) & 0xFFFFFu);
  r->slot = static_cast<std::uint32_t>((in[1] >> 44) & 0xFFFFFu);
  r->seq = seq32;
  return true;
}

std::uint64_t ZoneCache::RecordOffset(const JournalArea& a, std::uint32_t idx) const {
  for (const auto& [base, cap] : a.extents) {
    if (idx < cap) return base + static_cast<std::uint64_t>(idx) * 3 * slot_;
    idx -= cap;
  }
  return ~0ull;  // unreachable for idx < a.records
}

// ---------------------------------------------------------------------------
// Construction / mount
// ---------------------------------------------------------------------------

ZoneCache::ZoneCache(StorageDevice* dev, const ZoneCacheOptions& options)
    : dev_(dev), opt_(options) {}

Status ZoneCache::Init(SimTime now) {
  (void)now;
  const DeviceInfo di = dev_->info();
  if (!di.zoned()) {
    return Status::InvalidArgument("ZoneCache needs a zoned device");
  }
  if (opt_.num_groups == 0 || opt_.num_groups > 8) {
    return Status::InvalidArgument("num_groups must be in [1, 8]");
  }
  if (opt_.reserve_free_zones == 0) {
    return Status::InvalidArgument("reserve_free_zones must be >= 1");
  }
  slot_ = di.io_alignment;
  zone_bytes_ = di.zone_size_bytes;
  zone_slots_ = zone_bytes_ / slot_;
  num_zones_ = di.num_zones;
  if (zone_slots_ < 12) {
    return Status::InvalidArgument("zones too small for the cache journal");
  }

  const std::uint32_t conv = di.num_conventional_zones;
  const auto zone_records = [&](std::uint64_t slots) {
    return static_cast<std::uint32_t>(slots / 3);
  };
  if (conv >= 2) {
    // Ping-pong areas over the conventional zones, split at zone
    // granularity so records never straddle a zone boundary.
    const std::uint32_t half = conv / 2 + (conv % 2);
    for (std::uint32_t z = 0; z < conv; ++z) {
      JournalArea& a = areas_[z < half ? 0 : 1];
      a.extents.emplace_back(ZoneBase(z), zone_records(zone_slots_));
      a.records += zone_records(zone_slots_);
    }
    first_data_zone_ = conv;
    sequential_journal_ = false;
  } else if (conv == 1) {
    // One conventional zone: half-zone areas.
    const std::uint64_t half_slots = zone_slots_ / 2;
    areas_[0].extents.emplace_back(0, zone_records(half_slots));
    areas_[0].records = zone_records(half_slots);
    areas_[1].extents.emplace_back(half_slots * slot_, zone_records(half_slots));
    areas_[1].records = zone_records(half_slots);
    first_data_zone_ = 1;
    sequential_journal_ = false;
  } else {
    // No conventional space: dedicate sequential zones 0 and 1 and
    // reset-before-rewrite on each epoch switch.
    if (num_zones_ < 3) {
      return Status::InvalidArgument("too few zones for a sequential journal");
    }
    for (std::uint32_t z = 0; z < 2; ++z) {
      areas_[z].extents.emplace_back(ZoneBase(z), zone_records(zone_slots_));
      areas_[z].records = zone_records(zone_slots_);
      areas_[z].reset_zones.push_back(z);
    }
    first_data_zone_ = 2;
    sequential_journal_ = true;
  }
  const std::uint32_t min_records = std::min(areas_[0].records, areas_[1].records);
  if (min_records < 8) {
    return Status::InvalidArgument("journal area too small");
  }
  max_entries_ = min_records / 2 - 1;

  if (num_zones_ <= first_data_zone_ ||
      num_zones_ - first_data_zone_ < opt_.reserve_free_zones + opt_.num_groups + 2) {
    return Status::InvalidArgument("too few data zones for the cache");
  }
  zones_.assign(num_zones_ - first_data_zone_, DataZone{});
  open_zone_.assign(opt_.num_groups + 1, kNoZone);
  return Status::Ok();
}

Result<std::unique_ptr<ZoneCache>> ZoneCache::Mount(StorageDevice* dev,
                                                    const ZoneCacheOptions& options,
                                                    SimTime now) {
  if (dev == nullptr) return Status::InvalidArgument("null device");
  std::unique_ptr<ZoneCache> c(new ZoneCache(dev, options));
  if (Status st = c->Init(now); !st.ok()) return st;
  if (Status st = c->Replay(now); !st.ok()) return st;
  if (Status st = c->VerifyAndSeal(now); !st.ok()) return st;
  // Start a fresh epoch: a complete snapshot of the verified index into
  // the area that did NOT hold the replayed base (so a cut mid-snapshot
  // falls back to the old base), then make it durable.
  auto snap = c->WriteSnapshot(1 - c->active_area_, now);
  if (!snap.ok()) return snap.status();
  auto f = dev->Flush(snap.value());
  if (!f.ok()) return f.status();
  return c;
}

Status ZoneCache::Replay(SimTime now) {
  struct Seen {
    JournalRecord rec;
    std::uint32_t area;
  };
  std::vector<Seen> records;
  std::vector<std::uint64_t> buf(3);
  for (std::uint32_t a = 0; a < 2; ++a) {
    bool stop_area = false;
    for (std::uint32_t i = 0; i < areas_[a].records && !stop_area; ++i) {
      auto rd = dev_->Read(IoRequest{RecordOffset(areas_[a], i), 3 * slot_, now, {},
                                     /*want_tokens=*/true, IoClass::kMaintenance});
      if (!rd.ok()) {
        // Sequential journal: reads fail past the recovered write
        // pointer — the rest of the area holds nothing. Conventional
        // journal: an unwritten record position; later positions may
        // still hold records from an earlier epoch, keep scanning.
        if (sequential_journal_) stop_area = true;
        continue;
      }
      JournalRecord r;
      if (DecodeRecord(rd.value().tokens.data(), &r)) {
        records.push_back(Seen{r, a});
      }
    }
  }
  std::sort(records.begin(), records.end(),
            [](const Seen& x, const Seen& y) { return x.rec.seq < y.rec.seq; });

  // Find the newest COMPLETE snapshot: a kSnapEnd whose [first, end)
  // seq range is fully present as kSnapPut records. It is the replay
  // base; records older than its first seq may be resurrected stale
  // state from a recycled area and must be ignored.
  std::uint64_t base_first = 0;
  bool have_base = false;
  std::uint32_t base_area = 0;
  for (std::size_t i = records.size(); i-- > 0;) {
    const JournalRecord& e = records[i].rec;
    if (e.op != JOp::kSnapEnd) continue;
    const std::uint64_t first = e.key;
    if (first > e.seq) continue;  // nonsense record
    std::uint64_t present = 0;
    for (const Seen& s : records) {
      if (s.rec.op == JOp::kSnapPut && s.rec.seq >= first && s.rec.seq < e.seq) {
        ++present;
      }
    }
    if (present == e.seq - first) {
      base_first = first;
      have_base = true;
      base_area = records[i].area;
      break;
    }
  }

  std::uint64_t max_seq = 0;
  for (const Seen& s : records) {
    const JournalRecord& r = s.rec;
    max_seq = std::max(max_seq, r.seq);
    if (have_base && r.seq < base_first) continue;
    ++stats_.mount_replayed;
    switch (r.op) {
      case JOp::kPut:
      case JOp::kSnapPut:
        index_[r.key] = Entry{r.zone, r.slot, r.value_slots, r.group, 0, r.seq};
        break;
      case JOp::kDelete:
        index_.erase(r.key);
        break;
      case JOp::kReset: {
        for (auto it = index_.begin(); it != index_.end();) {
          it = it->second.zone == r.zone ? index_.erase(it) : std::next(it);
        }
        break;
      }
      case JOp::kSnapEnd:
        break;
    }
  }
  next_seq_ = max_seq + 1;
  active_area_ = have_base ? base_area : 0;
  next_record_ = 0;  // Mount() writes a fresh snapshot into the other area.
  return Status::Ok();
}

Status ZoneCache::VerifyAndSeal(SimTime now) {
  // Deterministic order: sorted keys.
  std::vector<std::uint64_t> keys;
  keys.reserve(index_.size());
  for (const auto& [k, e] : index_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());

  std::vector<std::uint64_t> vtok;
  for (std::uint64_t k : keys) {
    const Entry e = index_[k];
    bool ok = e.zone >= first_data_zone_ && e.zone < num_zones_ &&
              e.value_slots >= 1 &&
              static_cast<std::uint64_t>(e.slot) + 1 + e.value_slots <= zone_slots_;
    if (ok) {
      auto rd = dev_->Read(IoRequest{
          ZoneBase(e.zone) + static_cast<std::uint64_t>(e.slot) * slot_,
          (1ull + e.value_slots) * slot_, now, {}, /*want_tokens=*/true,
          IoClass::kMaintenance});
      if (!rd.ok()) {
        ok = false;
      } else {
        const auto& t = rd.value().tokens;
        vtok.assign(t.begin() + 1, t.end());
        ok = t[0] == HeaderToken(k, e.value_slots, vtok);
      }
    }
    if (!ok) {
      index_.erase(k);
      ++stats_.mount_dropped;
    }
  }
  stats_.mount_entries = index_.size();

  // Rebuild per-zone state. Zones with live entries are probed to their
  // durable write pointer and sealed, so they stop holding one of the
  // device's active-zone slots; the cache never appends into a recovered
  // zone again (it has no other way to learn a write pointer through
  // StorageDevice). Entry-free zones are reset into the free pool.
  for (const auto& [k, e] : index_) {
    DataZone& z = zones_[e.zone - first_data_zone_];
    z.state = ZoneState::kClosed;
    z.live_slots += 1 + e.value_slots;
    z.keys.emplace_back(k, e.slot);
  }
  free_zones_.clear();
  for (std::uint32_t zi = 0; zi < zones_.size(); ++zi) {
    DataZone& z = zones_[zi];
    const std::uint32_t zone = first_data_zone_ + zi;
    if (z.state == ZoneState::kClosed) {
      std::sort(z.keys.begin(), z.keys.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      // Probe the recovered write pointer (reads past it fail).
      std::uint64_t lo = 0;
      for (const auto& [key, slotpos] : z.keys) {
        lo = std::max(lo, static_cast<std::uint64_t>(slotpos) + 1 +
                              index_[key].value_slots);
      }
      std::uint64_t hi = zone_slots_;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        auto rd = dev_->Read(IoRequest{ZoneBase(zone) + (mid - 1) * slot_, slot_,
                                       now, {}, /*want_tokens=*/false,
                                       IoClass::kMaintenance});
        if (rd.ok()) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      z.wp_slots = static_cast<std::uint32_t>(lo);
      // The mount does not wait for the pad.
      if (auto s = Seal(zone, IoClass::kMaintenance, now); !s.ok()) return s.status();
    } else {
      auto r = dev_->ResetZone(ZoneId{zone}, now);
      if (!r.ok()) return r.status();
      z = DataZone{};
      free_zones_.push_back(zone);
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Journal runtime
// ---------------------------------------------------------------------------

Result<SimTime> ZoneCache::AppendRecord(const JournalRecord& r, SimTime now) {
  std::uint64_t enc[3];
  EncodeRecord(r, enc);
  auto w = dev_->Write(IoRequest{RecordOffset(areas_[active_area_], next_record_),
                                 3 * slot_, now, std::span<const std::uint64_t>(enc, 3),
                                 /*want_tokens=*/false, IoClass::kMaintenance});
  if (!w.ok()) return w.status();
  ++next_record_;
  ++stats_.journal_records;
  SimTime done = w.value().done;
  if (next_record_ == areas_[active_area_].records) {
    auto s = WriteSnapshot(1 - active_area_, now);
    if (!s.ok()) return s.status();
    done = Later(done, s.value());
    auto f = dev_->Flush(done);
    if (!f.ok()) return f.status();
    done = f.value();
  }
  return done;
}

Result<SimTime> ZoneCache::WriteSnapshot(std::uint32_t into_area, SimTime now) {
  JournalArea& area = areas_[into_area];
  SimTime done = now;
  for (std::uint32_t z : area.reset_zones) {
    auto r = dev_->ResetZone(ZoneId{z}, now);
    if (!r.ok()) return r.status();
    done = Later(done, r.value());
  }
  const std::uint64_t first = next_seq_;
  std::uint32_t idx = 0;
  std::uint64_t enc[3];
  for (std::uint32_t zi = 0; zi < zones_.size(); ++zi) {
    const DataZone& z = zones_[zi];
    const std::uint32_t zone = first_data_zone_ + zi;
    for (const auto& [key, slotpos] : z.keys) {
      auto it = index_.find(key);
      if (it == index_.end() || it->second.zone != zone ||
          it->second.slot != slotpos) {
        continue;  // superseded admission; the entry lives elsewhere now
      }
      const Entry& e = it->second;
      EncodeRecord(JournalRecord{JOp::kSnapPut, key, e.group, e.value_slots, e.zone,
                                 e.slot, next_seq_++},
                   enc);
      auto w = dev_->Write(IoRequest{RecordOffset(area, idx++), 3 * slot_, now,
                                     std::span<const std::uint64_t>(enc, 3),
                                     /*want_tokens=*/false, IoClass::kMaintenance});
      if (!w.ok()) return w.status();
      done = Later(done, w.value().done);
    }
  }
  EncodeRecord(JournalRecord{JOp::kSnapEnd, first, 0, 0, 0, 0, next_seq_++}, enc);
  auto w = dev_->Write(IoRequest{RecordOffset(area, idx++), 3 * slot_, now,
                                 std::span<const std::uint64_t>(enc, 3),
                                 /*want_tokens=*/false, IoClass::kMaintenance});
  if (!w.ok()) return w.status();
  done = Later(done, w.value().done);
  active_area_ = into_area;
  next_record_ = idx;
  ++stats_.journal_snapshots;
  return done;
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

Result<ZoneCache::GetResult> ZoneCache::Get(std::uint64_t key, SimTime now) {
  ++stats_.gets;
  auto it = index_.find(key);
  if (it == index_.end()) return GetResult{false, now, {}};
  Entry& e = it->second;
  auto rd = dev_->Read(IoRequest{
      ZoneBase(e.zone) + (static_cast<std::uint64_t>(e.slot) + 1) * slot_,
      static_cast<std::uint64_t>(e.value_slots) * slot_, now, {},
      /*want_tokens=*/true, IoClass::kHostForeground});
  if (!rd.ok()) return rd.status();
  ++stats_.hits;
  ++e.hits;
  return GetResult{true, rd.value().done, std::move(rd.value().tokens)};
}

void ZoneCache::DropIndexEntry(std::uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  zones_[it->second.zone - first_data_zone_].live_slots -=
      1 + it->second.value_slots;
  index_.erase(it);
}

Result<SimTime> ZoneCache::Seal(std::uint32_t zone, IoClass io_class, SimTime now) {
  DataZone& z = zones_[zone - first_data_zone_];
  SimTime done = now;
  if (z.wp_slots < zone_slots_) {
    auto w = dev_->Write(IoRequest{ZoneBase(zone) + z.wp_slots * slot_,
                                   (zone_slots_ - z.wp_slots) * slot_, now, {},
                                   /*want_tokens=*/false, io_class});
    if (!w.ok()) return w.status();
    done = w.value().done;
    z.wp_slots = static_cast<std::uint32_t>(zone_slots_);
  }
  z.state = ZoneState::kClosed;
  std::replace(open_zone_.begin(), open_zone_.end(), zone, kNoZone);
  return done;
}

Result<SimTime> ZoneCache::Admit(std::uint32_t zone, std::uint64_t key,
                                 std::uint32_t group,
                                 std::span<const std::uint64_t> value,
                                 IoClass io_class, SimTime now) {
  DataZone& z = zones_[zone - first_data_zone_];
  const auto n = static_cast<std::uint32_t>(value.size());
  std::vector<std::uint64_t> wtok;
  wtok.reserve(1 + n);
  wtok.push_back(HeaderToken(key, n, value));
  wtok.insert(wtok.end(), value.begin(), value.end());
  auto w = dev_->Write(IoRequest{ZoneBase(zone) + z.wp_slots * slot_,
                                 wtok.size() * slot_, now,
                                 std::span<const std::uint64_t>(wtok),
                                 /*want_tokens=*/false, io_class});
  if (!w.ok()) return w.status();

  const std::uint32_t slot = z.wp_slots;
  z.wp_slots += 1 + n;
  z.live_slots += 1 + n;
  z.keys.emplace_back(key, slot);
  DropIndexEntry(key);  // an overwrite's old copy, or a migration's source
  const std::uint64_t seq = next_seq_++;
  // Admitted cold: even a migrated entry must re-earn a hit to survive
  // the next eviction.
  index_[key] = Entry{zone, slot, n, group, 0, seq};
  auto j = AppendRecord(JournalRecord{JOp::kPut, key, group, n, zone, slot, seq}, now);
  if (!j.ok()) return j.status();
  return Later(w.value().done, j.value());
}

Result<SimTime> ZoneCache::OpenZoneFor(std::uint32_t stream, SimTime now) {
  SimTime done = now;
  if (free_zones_.empty()) {
    auto ev = EvictOne(/*allow_migration=*/false, now);
    if (!ev.ok()) return ev.status();
    done = Later(done, ev.value());
  }
  if (free_zones_.empty()) {
    return Status::ResourceExhausted("no free zone for cache stream");
  }
  const std::uint32_t zone = free_zones_.front();
  free_zones_.erase(free_zones_.begin());
  DataZone& z = zones_[zone - first_data_zone_];
  z = DataZone{};
  z.state = ZoneState::kOpen;
  open_zone_[stream] = zone;
  return done;
}

Result<SimTime> ZoneCache::EvictOne(bool allow_migration, SimTime now) {
  // Victim: the closed zone with the fewest live slots (pure-garbage
  // zones first), lowest id on ties.
  std::uint32_t victim = kNoZone;
  std::uint32_t best_live = 0;
  for (std::uint32_t zi = 0; zi < zones_.size(); ++zi) {
    const DataZone& z = zones_[zi];
    if (z.state != ZoneState::kClosed) continue;
    if (victim == kNoZone || z.live_slots < best_live) {
      victim = first_data_zone_ + zi;
      best_live = z.live_slots;
    }
  }
  if (victim == kNoZone) {
    return Status::FailedPrecondition("no closed zone to evict");
  }
  DataZone& vz = zones_[victim - first_data_zone_];
  SimTime done = now;

  const bool migrate = allow_migration && !free_zones_.empty();
  for (const auto& [key, slotpos] : vz.keys) {
    auto it = index_.find(key);
    if (it == index_.end() || it->second.zone != victim ||
        it->second.slot != slotpos) {
      continue;
    }
    Entry e = it->second;
    bool moved = false;
    if (migrate && e.hits >= opt_.migrate_min_hits) {
      // Read the live value out of the victim and re-admit it through
      // the internal migration stream, tagged kCacheMigration so device
      // stats attribute the rewrite to eviction, not to the host.
      auto rd = dev_->Read(IoRequest{
          ZoneBase(victim) + (static_cast<std::uint64_t>(e.slot) + 1) * slot_,
          static_cast<std::uint64_t>(e.value_slots) * slot_, now, {},
          /*want_tokens=*/true, IoClass::kCacheMigration});
      if (!rd.ok()) return rd.status();
      done = Later(done, rd.value().done);

      const std::uint32_t need = 1 + e.value_slots;
      const std::uint32_t stream = opt_.num_groups;  // migration stream
      std::uint32_t tz = open_zone_[stream];
      if (tz != kNoZone &&
          zones_[tz - first_data_zone_].wp_slots + need > zone_slots_) {
        auto s = Seal(tz, IoClass::kCacheMigration, now);
        if (!s.ok()) return s.status();
        done = Later(done, s.value());
        tz = kNoZone;
      }
      if (tz == kNoZone && !free_zones_.empty()) {
        auto o = OpenZoneFor(stream, now);
        if (o.ok()) {
          tz = open_zone_[stream];
          done = Later(done, o.value());
        }
      }
      if (tz != kNoZone) {
        auto a = Admit(tz, key, e.group, rd.value().tokens, IoClass::kCacheMigration,
                       now);
        if (!a.ok()) return a.status();
        done = Later(done, a.value());
        ++stats_.migrated_entries;
        stats_.migrated_slots += need;
        moved = true;
      }
    }
    if (!moved) {
      DropIndexEntry(key);
      ++stats_.dropped_entries;
    }
  }

  // Journal the reclaim, then reset on-device. A cut between the two
  // replays the reset record (index entries dropped) against a
  // not-yet-reset zone — Mount's entry-free-zone reset squares it.
  const std::uint64_t seq = next_seq_++;
  auto j = AppendRecord(JournalRecord{JOp::kReset, 0, 0, 0, victim, 0, seq}, now);
  if (!j.ok()) return j.status();
  done = Later(done, j.value());
  auto r = dev_->ResetZone(ZoneId{victim}, now);
  if (!r.ok()) return r.status();
  done = Later(done, r.value());

  vz = DataZone{};
  free_zones_.insert(
      std::lower_bound(free_zones_.begin(), free_zones_.end(), victim), victim);
  ++stats_.evictions;
  return done;
}

Result<SimTime> ZoneCache::Put(std::uint64_t key, std::uint32_t group,
                               std::span<const std::uint64_t> value_tokens,
                               SimTime now) {
  if (group >= opt_.num_groups) {
    return Status::InvalidArgument("put group out of range");
  }
  const std::uint32_t n = static_cast<std::uint32_t>(value_tokens.size());
  const std::uint32_t need = 1 + n;
  if (n == 0 || n > 0xFFFu || need > zone_slots_) {
    return Status::InvalidArgument("value size unsupported");
  }
  SimTime done = now;

  // Index-capacity pressure: the journal snapshot must always fit one
  // area, so the index is bounded. Drop-evict (no migration — it would
  // not shrink the index) until a new key fits.
  const bool is_new = index_.find(key) == index_.end();
  if (is_new) {
    std::uint32_t guard = static_cast<std::uint32_t>(zones_.size()) + 1;
    while (index_.size() >= max_entries_ && guard-- > 0) {
      bool any_closed_live = false;
      for (const DataZone& z : zones_) {
        if (z.state == ZoneState::kClosed && z.live_slots > 0) {
          any_closed_live = true;
          break;
        }
      }
      if (!any_closed_live) {
        // All live entries sit in open zones; seal them so eviction can
        // reach them.
        for (const std::uint32_t oz : open_zone_) {
          if (oz == kNoZone) continue;
          auto s = Seal(oz, IoClass::kMaintenance, now);
          if (!s.ok()) return s.status();
          done = Later(done, s.value());
        }
      }
      auto ev = EvictOne(/*allow_migration=*/false, now);
      if (!ev.ok()) return ev.status();
      done = Later(done, ev.value());
    }
    if (index_.size() >= max_entries_) {
      return Status::ResourceExhausted("cache index full");
    }
  }

  // Keep the free pool at the reserve so eviction can always open a
  // migration target.
  std::uint32_t guard = static_cast<std::uint32_t>(zones_.size()) + 1;
  while (free_zones_.size() < opt_.reserve_free_zones && guard-- > 0) {
    auto ev = EvictOne(/*allow_migration=*/true, now);
    if (!ev.ok()) {
      if (ev.status().code() == StatusCode::kFailedPrecondition) {
        break;  // nothing closed yet — all zones open or free
      }
      return ev.status();
    }
    done = Later(done, ev.value());
  }

  // Admission: the group's open zone, sealed and rolled over when the
  // entry does not fit.
  std::uint32_t zone = open_zone_[group];
  if (zone != kNoZone &&
      zones_[zone - first_data_zone_].wp_slots + need > zone_slots_) {
    auto s = Seal(zone, IoClass::kMaintenance, now);
    if (!s.ok()) return s.status();
    done = Later(done, s.value());
    zone = kNoZone;
  }
  if (zone == kNoZone) {
    auto o = OpenZoneFor(group, now);
    if (!o.ok()) return o.status();
    done = Later(done, o.value());
    zone = open_zone_[group];
  }

  auto a = Admit(zone, key, group, value_tokens, IoClass::kHostForeground, now);
  if (!a.ok()) return a.status();
  done = Later(done, a.value());
  if (zones_[zone - first_data_zone_].wp_slots == zone_slots_) {
    // The put filled its zone exactly: sealing it needs no pad.
    auto s = Seal(zone, IoClass::kHostForeground, now);
    if (!s.ok()) return s.status();
  }

  ++stats_.puts;
  stats_.admitted_slots += need;
  ++puts_since_sync_;
  if (puts_since_sync_ > opt_.sync_every_puts) {
    auto s = Sync(done);
    if (!s.ok()) return s.status();
    done = Later(done, s.value());
  }
  return done;
}

Result<SimTime> ZoneCache::Delete(std::uint64_t key, SimTime now) {
  ++stats_.deletes;
  if (index_.find(key) == index_.end()) return now;
  DropIndexEntry(key);
  const std::uint64_t seq = next_seq_++;
  auto j = AppendRecord(JournalRecord{JOp::kDelete, key, 0, 0, 0, 0, seq}, now);
  if (!j.ok()) return j.status();
  return j.value();
}

Result<SimTime> ZoneCache::Sync(SimTime now) {
  auto f = dev_->Flush(now);
  if (!f.ok()) return f.status();
  puts_since_sync_ = 0;
  ++stats_.syncs;
  return f.value();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<ZoneCache::EntryView> ZoneCache::IndexSnapshot() const {
  std::vector<EntryView> out;
  out.reserve(index_.size());
  for (const auto& [k, e] : index_) {
    out.push_back(EntryView{k, e.zone, e.slot, e.value_slots, e.group, e.seq});
  }
  std::sort(out.begin(), out.end(),
            [](const EntryView& a, const EntryView& b) { return a.key < b.key; });
  return out;
}

std::uint64_t ZoneCache::LiveSlotsOfZone(std::uint32_t zone) const {
  if (zone < first_data_zone_ || zone >= num_zones_) return 0;
  return zones_[zone - first_data_zone_].live_slots;
}

bool ZoneCache::IsDataZone(std::uint32_t zone) const {
  return zone >= first_data_zone_ && zone < num_zones_;
}

std::uint32_t ZoneCache::num_data_zones() const {
  return num_zones_ - first_data_zone_;
}

std::uint32_t ZoneCache::free_data_zones() const {
  return static_cast<std::uint32_t>(free_zones_.size());
}

}  // namespace conzone
