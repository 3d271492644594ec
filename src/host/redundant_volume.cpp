#include "host/redundant_volume.hpp"

#include <algorithm>
#include <utility>

#include "host/members.hpp"

namespace conzone {

Result<std::unique_ptr<RedundantVolume>> RedundantVolume::Create(
    std::vector<std::unique_ptr<StorageDevice>> members,
    const RedundantVolumeOptions& options) {
  if (members.size() < 2) {
    return Status::InvalidArgument("redundant volume needs at least two members");
  }
  for (const auto& m : members) {
    if (m == nullptr) return Status::InvalidArgument("null member device");
  }

  const DeviceInfo first = members[0]->info();
  std::uint32_t rows = first.num_zones;
  for (const auto& m : members) {
    const DeviceInfo di = m->info();
    if (!di.zoned()) {
      return Status::InvalidArgument("mirror members must be zoned");
    }
    if (Status st = CheckMemberGeometry(di, first); !st.ok()) return st;
    rows = std::min(rows, di.num_zones);
  }

  if (options.stripe_bytes == 0 ||
      options.stripe_bytes % first.io_alignment != 0) {
    return Status::InvalidArgument(
        "stripe unit must be a non-zero multiple of the I/O alignment");
  }
  if (options.rows_per_tick == 0) {
    return Status::InvalidArgument("rows_per_tick must be non-zero");
  }
  if (first.zone_size_bytes % options.stripe_bytes != 0) {
    return Status::InvalidArgument("stripe unit must divide the zone size");
  }
  if (rows == 0) return Status::InvalidArgument("members have no zones");

  return std::unique_ptr<RedundantVolume>(
      new RedundantVolume(std::move(members), options, first, rows));
}

RedundantVolume::RedundantVolume(std::vector<std::unique_ptr<StorageDevice>> members,
                                 const RedundantVolumeOptions& options,
                                 DeviceInfo member_info, std::uint32_t rows)
    : members_(std::move(members)),
      state_(members_.size(), MemberState::kActive),
      member_info_(std::move(member_info)),
      stripe_(options.stripe_bytes),
      rows_(rows),
      zone_bytes_(member_info_.zone_size_bytes),
      align_(member_info_.io_alignment),
      rows_per_tick_(options.rows_per_tick) {
  target_scratch_.reserve(members_.size());
  failed_scratch_.reserve(members_.size());
  scrub_clean_.assign(members_.size(), 1);
}

DeviceInfo RedundantVolume::info() const {
  DeviceInfo di;
  di.name = "mirror-" + std::to_string(members_.size()) + "x" +
            std::to_string(members_.size()) + "-" + member_info_.name;
  di.io_alignment = align_;
  di.zone_size_bytes = zone_bytes_;
  di.num_zones = rows_;
  di.capacity_bytes = zone_bytes_ * di.num_zones;
  FoldZoneLimits(members_, &di);
  for (const auto& m : members_) di.slc_bytes += m->info().slc_bytes;
  // The volume serves while any member is active.
  const bool live = std::find(state_.begin(), state_.end(), MemberState::kActive) !=
                    state_.end();
  di.health = live ? DeviceHealth::kHealthy : DeviceHealth::kOffline;
  return di;
}

Status RedundantVolume::Resolve(const IoRequest& req, std::uint64_t* logical,
                                std::uint64_t* in_zone) const {
  if (req.len == 0 || req.offset % align_ != 0 || req.len % align_ != 0) {
    return Status::InvalidArgument("request must be aligned and non-empty");
  }
  const std::uint64_t l = req.offset / zone_bytes_;
  if (l >= rows_) {
    return Status::OutOfRange("request beyond volume capacity");
  }
  const std::uint64_t in = req.offset - l * zone_bytes_;
  if (req.len > zone_bytes_ || in > zone_bytes_ - req.len) {
    return Status::InvalidArgument("request crosses a zone boundary");
  }
  *logical = l;
  *in_zone = in;
  return Status::Ok();
}

bool RedundantVolume::Reconstructable(StatusCode code) {
  switch (code) {
    case StatusCode::kMediaError:         // NAND gave the data up.
    case StatusCode::kFailedPrecondition: // Powered off / zone-state skew.
    case StatusCode::kOutOfRange:         // WP regressed below the request.
    case StatusCode::kResourceExhausted:  // Member latched read-only.
      return true;
    default:
      return false;
  }
}

void RedundantVolume::LatchFailed(std::uint32_t m) {
  if (state_[m] == MemberState::kFailed) return;
  state_[m] = MemberState::kFailed;
  red_.member_failures++;
  if (static_cast<std::int32_t>(m) == rebuild_member_) rebuild_member_ = -1;
}

template <class Leg>
RedundantVolume::Legs RedundantVolume::IssueLegs(SimTime now, Leg&& leg) {
  Legs out{now, 0, Status::Ok()};
  failed_scratch_.clear();
  for (const std::uint32_t m : target_scratch_) {
    Result<SimTime> r = leg(m);
    if (r.ok()) {
      out.done = Later(out.done, r.value());
    } else {
      if (out.first_err.ok()) out.first_err = r.status();
      failed_scratch_.push_back(m);
    }
  }
  out.failed = failed_scratch_.size();
  // Every leg refused identically — almost certainly the request itself
  // (misaligned, beyond WP), not a member fault. No latching.
  if (out.failed < target_scratch_.size()) {
    for (const std::uint32_t m : failed_scratch_) LatchFailed(m);
  }
  return out;
}

bool RedundantVolume::Writable(std::uint32_t m, std::uint64_t zone) const {
  switch (state_[m]) {
    case MemberState::kActive:
      return true;
    case MemberState::kFailed:
      return false;
    case MemberState::kRebuilding:
      break;
  }
  if (rebuild_phase_ == 2) return zone != rebuild_verify_zone_;
  if (rebuild_phase_ == 1) return true;
  return zone < rebuild_zone_;
}

Result<IoResult> RedundantVolume::Write(const IoRequest& req) {
  std::uint64_t logical = 0, in_zone = 0;
  if (Status st = Resolve(req, &logical, &in_zone); !st.ok()) {
    return st;
  }
  if (!req.tokens.empty() && req.tokens.size() != req.len / align_) {
    return Status::InvalidArgument("token count != written pages");
  }
  // Writing at or behind the scrub cursor invalidates "this pass saw the
  // whole volume in sync" — readmission must not use it.
  if (scrub_active_ && logical <= scrub_zone_) scrub_dirty_ = true;

  const std::uint64_t pages = req.len / align_;
  // Materialize explicit tokens so every replica stores identical
  // content regardless of its device type's default-token scheme.
  std::span<const std::uint64_t> toks = req.tokens;
  if (toks.empty()) {
    token_scratch_.resize(pages);
    const std::uint64_t p0 = req.offset / align_;
    for (std::uint64_t i = 0; i < pages; ++i) {
      token_scratch_[i] = VolumeToken(p0 + i);
    }
    toks = token_scratch_;
  }

  target_scratch_.clear();
  bool degraded = false;
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (!Writable(m, logical)) {
      degraded = true;
      continue;
    }
    target_scratch_.push_back(m);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no writable replica in mirror");
  }

  // Logical zone z is member zone z, so member offsets equal logical ones.
  const Legs legs = IssueLegs(req.now, [&](std::uint32_t m) -> Result<SimTime> {
    auto res = members_[m]->Write(
        IoRequest{req.offset, req.len, req.now, toks, /*want_tokens=*/false,
                  req.io_class});
    if (!res.ok()) return res.status();
    return res.value().done;
  });
  if (legs.failed == target_scratch_.size()) return legs.first_err;
  if (degraded || legs.failed > 0) red_.degraded_writes++;
  return IoResult{legs.done, {}};
}

Result<IoResult> RedundantVolume::Read(const IoRequest& req) {
  std::uint64_t logical = 0, in_zone = 0;
  if (Status st = Resolve(req, &logical, &in_zone); !st.ok()) {
    return st;
  }
  const std::uint32_t n = num_members();
  const std::uint64_t units =
      (in_zone + req.len - 1) / stripe_ - in_zone / stripe_ + 1;
  // Primary replica rotates with the zone and the first stripe unit so
  // independent streams spread across the members; fallback order is a
  // fixed function of the request — deterministic at any thread count.
  const std::uint32_t primary =
      static_cast<std::uint32_t>((logical + in_zone / stripe_) % n);

  Status first_err;
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t m = (primary + t) % n;
    if (!Readable(m)) continue;
    auto res = members_[m]->Read(
        IoRequest{req.offset, req.len, req.now, {}, req.want_tokens, req.io_class});
    if (res.ok()) {
      IoResult out = std::move(res).value();
      if (t != 0) {
        out.reconstructed_units = static_cast<std::uint32_t>(units);
        red_.degraded_reads++;
        red_.reconstructed_units += units;
      }
      return out;
    }
    if (!Reconstructable(res.status().code())) return res.status();
    if (first_err.ok()) first_err = res.status();
  }
  if (!first_err.ok()) return first_err;
  return Status::FailedPrecondition("no readable replica in mirror");
}

Result<SimTime> RedundantVolume::ResetZone(ZoneId zone, SimTime now) {
  if (!zone.valid() || zone.value() >= rows_) {
    return Status::OutOfRange("reset of invalid zone");
  }
  const std::uint64_t zr = zone.value();
  if (scrub_active_ && zr <= scrub_zone_) scrub_dirty_ = true;

  target_scratch_.clear();
  bool restart_copy = false;
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (state_[m] == MemberState::kFailed) continue;
    if (state_[m] == MemberState::kRebuilding) {
      // Zones ahead of the copy cursor are still empty on the fresh
      // member; behind (or under) it they must be reset with the peers.
      if (rebuild_phase_ == 0 && zr > rebuild_zone_) continue;
      if ((rebuild_phase_ == 0 && zr == rebuild_zone_) ||
          (rebuild_phase_ == 2 && zr == rebuild_verify_zone_)) {
        restart_copy = true;
      }
    }
    target_scratch_.push_back(m);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no serviceable member for zone reset");
  }

  const Legs legs = IssueLegs(now, [&](std::uint32_t m) {
    return members_[m]->ResetZone(zone, now);
  });
  if (legs.failed == target_scratch_.size()) return legs.first_err;
  SimTime done = legs.done;
  if (restart_copy && rebuild_member_ >= 0) {
    rebuild_off_ = 0;
    rebuild_fail_streak_ = 0;
  }
  // Best-effort: propagate the reset to failed members that are still
  // online, so a later scrub never sees pre-reset content on them (and
  // readmission starts from an in-sync, empty zone). Errors here neither
  // fail the reset nor re-latch — the member is already failed.
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (state_[m] != MemberState::kFailed) continue;
    if (members_[m]->info().health == DeviceHealth::kOffline) continue;
    auto r = members_[m]->ResetZone(zone, now);
    if (r.ok()) done = Later(done, r.value());
  }
  return done;
}

Result<SimTime> RedundantVolume::Flush(SimTime now) {
  target_scratch_.clear();
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (state_[m] != MemberState::kFailed) target_scratch_.push_back(m);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no serviceable member to flush");
  }
  const Legs legs =
      IssueLegs(now, [&](std::uint32_t m) { return members_[m]->Flush(now); });
  if (legs.failed == target_scratch_.size()) return legs.first_err;
  return legs.done;
}

StatsSnapshot RedundantVolume::Stats() const {
  return SumOverMembers(members_, &StorageDevice::Stats);
}

ReliabilityStats RedundantVolume::Reliability() const {
  return SumOverMembers(members_, &StorageDevice::Reliability);
}

RecoveryStats RedundantVolume::Recovery() const {
  return SumOverMembers(members_, &StorageDevice::Recovery);
}

Status RedundantVolume::MarkFailed(std::uint32_t i) {
  if (i >= members_.size()) return Status::InvalidArgument("no such member");
  LatchFailed(i);
  return Status::Ok();
}

Status RedundantVolume::ReplaceMember(std::uint32_t i,
                                      std::unique_ptr<StorageDevice> fresh,
                                      SimTime now) {
  (void)now;
  if (i >= members_.size()) return Status::InvalidArgument("no such member");
  if (fresh == nullptr) return Status::InvalidArgument("null replacement device");
  if (rebuild_member_ >= 0) {
    return Status::FailedPrecondition("a rebuild is already active");
  }
  // The rebuild copies from the other active members: evicting the last
  // active one would destroy the only good copy.
  bool source = false;
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (m != i && state_[m] == MemberState::kActive) source = true;
  }
  if (!source) {
    return Status::FailedPrecondition("no other active member to rebuild from");
  }
  const DeviceInfo fi = fresh->info();
  if (!fi.zoned()) {
    return Status::InvalidArgument("mirror members must be zoned");
  }
  if (Status st = CheckMemberGeometry(fi, member_info_); !st.ok()) return st;
  if (fi.num_zones < rows_) {
    return Status::InvalidArgument("replacement has too few zones");
  }
  if (fi.health != DeviceHealth::kHealthy) {
    return Status::FailedPrecondition("replacement device is not healthy");
  }
  scrub_active_ = false;  // Rebuild takes the background slot.
  members_[i] = std::move(fresh);
  state_[i] = MemberState::kRebuilding;
  rebuild_member_ = static_cast<std::int32_t>(i);
  rebuild_phase_ = 0;
  rebuild_zone_ = 0;
  rebuild_verify_zone_ = 0;
  rebuild_off_ = 0;
  rebuild_fail_streak_ = 0;
  return Status::Ok();
}

Status RedundantVolume::StartScrub(SimTime now) {
  (void)now;
  if (rebuild_member_ >= 0) {
    return Status::FailedPrecondition("cannot scrub during a rebuild");
  }
  if (scrub_active_) {
    return Status::FailedPrecondition("a scrub is already running");
  }
  scrub_active_ = true;
  scrub_zone_ = 0;
  scrub_row_ = 0;
  scrub_clean_.assign(members_.size(), 1);
  scrub_dirty_ = false;
  return Status::Ok();
}

Result<SimTime> RedundantVolume::Tick(SimTime now) {
  if (rebuild_member_ >= 0) return TickRebuild(now);
  if (scrub_active_) return TickScrub(now);
  return now;
}

std::uint64_t RedundantVolume::ProbePrefix(std::uint32_t m, std::uint64_t base,
                                           std::uint64_t span, SimTime now,
                                           SimTime* done) {
  // Readability of a zone is a prefix (the recovered-WP contract the
  // crash checker enforces), so binary search is sound: O(log slots)
  // probe reads instead of a linear scan.
  std::uint64_t lo = 0, hi = span / align_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    auto r = members_[m]->Read(
        IoRequest{base + mid * align_, align_, now, {}, /*want_tokens=*/false,
                  IoClass::kMaintenance});
    if (r.ok()) {
      *done = Later(*done, r.value().done);
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void RedundantVolume::RecordMismatch(std::uint64_t logical, std::uint64_t row,
                                     std::uint32_t m) {
  red_.scrub_mismatches++;
  if (scrub_log_.size() < kScrubLogCap) {
    scrub_log_.push_back(
        ScrubMismatch{ZoneId{logical}, static_cast<std::uint32_t>(row), m});
  }
}

Result<SimTime> RedundantVolume::TickScrub(SimTime now) {
  SimTime done = now;
  bool finished = false;
  const std::uint64_t zone_rows = zone_bytes_ / stripe_;

  for (std::uint32_t budget = rows_per_tick_; budget > 0; --budget) {
    if (scrub_zone_ >= rows_) {
      finished = true;
      break;
    }
    bool content = true;
    auto r = ScrubRow(scrub_zone_, scrub_row_, now, &content);
    if (!r.ok()) return r;
    done = Later(done, r.value());
    if (content) {
      red_.scrub_rows++;
      scrub_row_++;
    }
    if (!content || scrub_row_ >= zone_rows) {
      scrub_zone_++;
      scrub_row_ = 0;
    }
    if (scrub_zone_ >= rows_) {
      finished = true;
      break;
    }
  }

  // Make this tick's repairs durable — the crash boundary the
  // mid-scrub-cut tests sweep.
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (members_[m]->info().health == DeviceHealth::kOffline) continue;
    auto f = members_[m]->Flush(now);
    if (f.ok()) done = Later(done, f.value());
  }

  if (finished) {
    scrub_active_ = false;
    red_.scrubs_completed++;
    // Readmission: a failed member that the whole pass saw (or brought)
    // in sync is safe to serve again — unless foreground writes dirtied
    // already-scrubbed ground, in which case "clean" proved nothing.
    for (std::uint32_t m = 0; m < members_.size(); ++m) {
      if (state_[m] == MemberState::kFailed && scrub_clean_[m] != 0 &&
          !scrub_dirty_ &&
          members_[m]->info().health == DeviceHealth::kHealthy) {
        state_[m] = MemberState::kActive;
        red_.members_readmitted++;
      }
    }
  }
  return done;
}

Result<SimTime> RedundantVolume::ScrubRow(std::uint64_t logical, std::uint64_t row,
                                          SimTime now, bool* content) {
  const std::uint32_t n = num_members();
  const std::uint64_t row_off = logical * zone_bytes_ + row * stripe_;
  const std::uint64_t slots = stripe_ / align_;
  SimTime done = now;

  std::vector<std::uint64_t> prefix(n, 0);
  std::vector<std::vector<std::uint64_t>> toks(n);
  std::vector<std::uint8_t> part(n, 0);
  for (std::uint32_t m = 0; m < n; ++m) {
    if (members_[m]->info().health == DeviceHealth::kOffline) {
      scrub_clean_[m] = 0;  // Unverifiable this pass.
      continue;
    }
    part[m] = 1;
    auto res = members_[m]->Read(
        IoRequest{row_off, stripe_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
    if (res.ok()) {
      prefix[m] = slots;
      toks[m] = std::move(res.value().tokens);
      done = Later(done, res.value().done);
      continue;
    }
    if (!Reconstructable(res.status().code())) return res.status();
    prefix[m] = ProbePrefix(m, row_off, stripe_, now, &done);
    if (prefix[m] > 0) {
      auto rr = members_[m]->Read(IoRequest{row_off, prefix[m] * align_, now,
                                            {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (rr.ok()) {
        toks[m] = std::move(rr.value().tokens);
        done = Later(done, rr.value().done);
      } else {
        prefix[m] = 0;
        scrub_clean_[m] = 0;
      }
    }
  }

  // The repair authority is the longest ACTIVE replica. A non-active
  // member may hold stale content — e.g. a zone reset issued while it
  // was failed never landed on it — so sourcing from it would resurrect
  // deleted data onto the good replicas and then readmit the stale
  // member as clean.
  std::uint64_t max_p = 0;
  std::uint32_t src = 0;
  bool have_active = false;
  for (std::uint32_t m = 0; m < n; ++m) {
    if (part[m] == 0 || state_[m] != MemberState::kActive) continue;
    have_active = true;
    if (prefix[m] > max_p) {
      max_p = prefix[m];
      src = m;
    }
  }
  if (!have_active) {
    // No active replica participated: nothing is authoritative, so this
    // pass cannot vouch for any non-active member it read here.
    for (std::uint32_t m = 0; m < n; ++m) {
      if (part[m] != 0) scrub_clean_[m] = 0;
    }
    *content = false;
    return done;
  }
  if (max_p == 0) {
    // Active content ends before this row. A non-active member with
    // content here holds a stale tail (a reset or rewrite it missed) —
    // flag it so it is neither readmitted nor ever used as a source.
    for (std::uint32_t m = 0; m < n; ++m) {
      if (part[m] != 0 && state_[m] != MemberState::kActive && prefix[m] > 0) {
        RecordMismatch(logical, row, m);
        scrub_clean_[m] = 0;
      }
    }
    *content = false;
    return done;
  }
  *content = true;

  for (std::uint32_t m = 0; m < n; ++m) {
    if (part[m] == 0 || m == src) continue;
    bool diverged = false;
    const std::uint64_t common = std::min(prefix[m], max_p);
    for (std::uint64_t j = 0; j < common; ++j) {
      if (toks[m][j] != toks[src][j]) {
        // Readable-but-different content on append-only media cannot be
        // rewritten in place; count and log it instead.
        RecordMismatch(logical, row, m);
        scrub_clean_[m] = 0;
        diverged = true;
        break;
      }
    }
    if (!diverged && prefix[m] > max_p) {
      // Content beyond the longest active replica: only a non-active
      // member can get here (src is the active maximum), and the excess
      // is stale by definition.
      RecordMismatch(logical, row, m);
      scrub_clean_[m] = 0;
      diverged = true;
    }
    if (diverged || prefix[m] >= max_p || scrub_clean_[m] == 0) continue;
    // The replica's durable content ends inside this row — the
    // signature of a survived power cut. Append the missing slots at
    // its write pointer from the longest replica.
    auto w = members_[m]->Write(IoRequest{
        row_off + prefix[m] * align_, (max_p - prefix[m]) * align_, now,
        std::span<const std::uint64_t>(toks[src].data() + prefix[m],
                                       max_p - prefix[m]),
        /*want_tokens=*/false,
                  IoClass::kMaintenance});
    if (w.ok()) {
      red_.scrub_repaired_slots += max_p - prefix[m];
      done = Later(done, w.value().done);
    } else {
      RecordMismatch(logical, row, m);
      scrub_clean_[m] = 0;
    }
  }
  return done;
}

Result<SimTime> RedundantVolume::TickRebuild(SimTime now) {
  SimTime done = now;

  for (std::uint32_t budget = rows_per_tick_; budget > 0; --budget) {
    if (rebuild_member_ < 0) break;  // A leg failure latched the fresh member.
    const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
    if (rebuild_phase_ == 0 && rebuild_zone_ >= rows_) {
      rebuild_phase_ = 1;
      rebuild_verify_zone_ = 0;
    } else if (rebuild_phase_ == 1) {
      if (rebuild_verify_zone_ >= rows_) {
        auto f = members_[m]->Flush(now);
        if (!f.ok()) return f.status();
        done = Later(done, f.value());
        state_[m] = MemberState::kActive;
        rebuild_member_ = -1;
        red_.rebuilds_completed++;
        return done;
      }
      bool hole = false;
      auto r = VerifyRebuildZone(now, &hole);
      if (!r.ok()) return r;
      done = Later(done, r.value());
      if (hole) {
        rebuild_phase_ = 2;  // Re-copy from the shortfall.
      } else {
        rebuild_verify_zone_++;
      }
    } else {
      // Phase 0 copies the zone under the cursor; phase 2 re-copies the
      // torn zone, then hands it back to the verify sweep.
      bool zone_done = false;
      auto c = CopyRow(now, &zone_done);
      if (!c.ok()) return c;
      done = Later(done, c.value());
      if (zone_done && rebuild_phase_ == 0) {
        rebuild_zone_++;
      } else if (zone_done) {
        rebuild_phase_ = 1;  // Re-check the same zone, then continue.
      }
    }
  }

  if (rebuild_member_ >= 0) {
    // Tick-boundary durability point: a power cut between ticks can only
    // regress the fresh member to a flushed row prefix, never a torn one.
    auto f = members_[static_cast<std::uint32_t>(rebuild_member_)]->Flush(now);
    if (!f.ok()) return f.status();
    done = Later(done, f.value());
  }
  return done;
}

Status RedundantVolume::SourceZoneSlots(std::uint32_t zr, SimTime now,
                                        std::uint64_t* slots, SimTime* done) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint64_t zbase = static_cast<std::uint64_t>(zr) * zone_bytes_;
  std::uint64_t best = 0;
  bool any = false;
  for (std::uint32_t pm = 0; pm < members_.size(); ++pm) {
    if (pm == m || state_[pm] != MemberState::kActive) continue;
    if (members_[pm]->info().health == DeviceHealth::kOffline) {
      return Status::FailedPrecondition("rebuild source is powered off");
    }
    any = true;
    best = std::max(best, ProbePrefix(pm, zbase, zone_bytes_, now, done));
  }
  if (!any) return Status::FailedPrecondition("no surviving source for rebuild");
  *slots = best;
  return Status::Ok();
}

Status RedundantVolume::FreshWriteFailed(Status leg, SimTime now, SimTime* done) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  if (members_[m]->info().health == DeviceHealth::kOffline) {
    return leg;  // Caller must Recover() the member and Tick again.
  }
  const std::uint32_t zr =
      rebuild_phase_ == 2 ? rebuild_verify_zone_ : rebuild_zone_;
  rebuild_fail_streak_++;
  if (rebuild_fail_streak_ == 1) {
    // A survived power cut regressed the zone below the cursor: resync
    // to the durable prefix and continue from there — never a torn row.
    rebuild_off_ = ProbePrefix(m, static_cast<std::uint64_t>(zr) * zone_bytes_,
                               zone_bytes_, now, done) *
                   align_;
    red_.rebuild_zone_restarts++;
    return Status::Ok();
  }
  if (rebuild_fail_streak_ == 2) {
    auto r = members_[m]->ResetZone(ZoneId{zr}, now);
    if (!r.ok()) return r.status();
    *done = Later(*done, r.value());
    rebuild_off_ = 0;
    red_.rebuild_zone_restarts++;
    return Status::Ok();
  }
  return Status::Internal("rebuild cannot make progress on member zone " +
                          std::to_string(zr));
}

Result<SimTime> RedundantVolume::CopyRow(SimTime now, bool* zone_done) {
  bool content = true;
  auto r = RebuildRow(now, &content);
  if (!r.ok()) return r;
  SimTime done = r.value();
  *zone_done = !content || rebuild_off_ >= zone_bytes_;
  if (*zone_done) {
    // Flush before leaving the zone so a later cut can only tear the
    // zone under copy, never a finished one.
    auto f = members_[static_cast<std::uint32_t>(rebuild_member_)]->Flush(now);
    if (f.ok()) done = Later(done, f.value());
    rebuild_off_ = 0;
    rebuild_fail_streak_ = 0;
  }
  return done;
}

Result<SimTime> RedundantVolume::RebuildRow(SimTime now, bool* content) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint32_t zr =
      rebuild_phase_ == 2 ? rebuild_verify_zone_ : rebuild_zone_;
  const std::uint64_t off = rebuild_off_;
  const std::uint64_t span = std::min(stripe_ - off % stripe_, zone_bytes_ - off);
  const std::uint64_t moff = static_cast<std::uint64_t>(zr) * zone_bytes_ + off;
  SimTime done = now;
  *content = true;

  std::vector<std::uint64_t> data;
  std::int32_t peer0 = -1;
  for (std::uint32_t pm = 0; pm < members_.size(); ++pm) {
    if (pm == m || state_[pm] != MemberState::kActive) continue;
    if (members_[pm]->info().health == DeviceHealth::kOffline) {
      return Status::FailedPrecondition("rebuild source is powered off");
    }
    if (peer0 < 0) peer0 = static_cast<std::int32_t>(pm);
  }
  if (peer0 < 0) {
    return Status::FailedPrecondition("no surviving source for rebuild");
  }
  auto res = members_[static_cast<std::uint32_t>(peer0)]->Read(
      IoRequest{moff, span, now, {}, /*want_tokens=*/true,
                IoClass::kMaintenance});
  if (res.ok()) {
    data = std::move(res.value().tokens);
    done = Later(done, res.value().done);
  } else if (!Reconstructable(res.status().code())) {
    return res.status();
  } else {
    // Near the content end (or a lagging first peer): take the row
    // from whichever surviving replica holds the most of it.
    std::uint64_t best = 0;
    std::int32_t bm = -1;
    for (std::uint32_t pm = 0; pm < members_.size(); ++pm) {
      if (pm == m || state_[pm] != MemberState::kActive) continue;
      const std::uint64_t p = ProbePrefix(pm, moff, span, now, &done);
      if (p > best) {
        best = p;
        bm = static_cast<std::int32_t>(pm);
      }
    }
    if (best == 0) {
      *content = false;  // The zone's durable content ends here.
      return done;
    }
    auto rr = members_[static_cast<std::uint32_t>(bm)]->Read(
        IoRequest{moff, best * align_, now, {}, /*want_tokens=*/true,
                IoClass::kMaintenance});
    if (!rr.ok()) return rr.status();
    data = std::move(rr.value().tokens);
    done = Later(done, rr.value().done);
    if (best * align_ < span) *content = false;
  }

  auto w = members_[m]->Write(IoRequest{
      moff, data.size() * align_, now, std::span<const std::uint64_t>(data),
      /*want_tokens=*/false,
                  IoClass::kMaintenance});
  if (!w.ok()) {
    if (Status st = FreshWriteFailed(w.status(), now, &done); !st.ok()) {
      return st;
    }
    *content = true;  // Cursor was resynced; retry from there next round.
    return done;
  }
  rebuild_fail_streak_ = 0;
  done = Later(done, w.value().done);
  red_.rebuild_slots_copied += data.size();
  rebuild_off_ += data.size() * align_;
  return done;
}

Result<SimTime> RedundantVolume::VerifyRebuildZone(SimTime now, bool* hole) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint32_t zr = rebuild_verify_zone_;
  SimTime done = now;
  std::uint64_t src_slots = 0;
  if (Status st = SourceZoneSlots(zr, now, &src_slots, &done); !st.ok()) {
    return st;
  }
  const std::uint64_t fresh_slots = ProbePrefix(
      m, static_cast<std::uint64_t>(zr) * zone_bytes_, zone_bytes_, now, &done);
  if (fresh_slots < src_slots) {
    // A power cut tore rebuilt ground behind the cursor (programs from
    // one tick complete out of submission order across dies, so even a
    // zone-boundary flush cannot fully order durability). Re-enter the
    // copy phase at the durable prefix.
    *hole = true;
    rebuild_off_ = fresh_slots * align_;
    rebuild_fail_streak_ = 0;
    red_.rebuild_zone_restarts++;
  } else {
    *hole = false;
  }
  return done;
}

}  // namespace conzone
