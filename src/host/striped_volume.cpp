#include "host/striped_volume.hpp"

#include <algorithm>
#include <utility>

#include "host/members.hpp"

namespace conzone {

Result<std::unique_ptr<StripedVolume>> StripedVolume::Create(
    std::vector<std::unique_ptr<StorageDevice>> members,
    const StripedVolumeOptions& options) {
  if (members.empty()) {
    return Status::InvalidArgument("striped volume needs at least one member");
  }
  for (const auto& m : members) {
    if (m == nullptr) return Status::InvalidArgument("null member device");
  }
  const DeviceInfo first = members[0]->info();
  for (const auto& m : members) {
    if (Status st = CheckMemberGeometry(m->info(), first); !st.ok()) return st;
  }

  if (options.stripe_bytes == 0 ||
      options.stripe_bytes % first.io_alignment != 0) {
    return Status::InvalidArgument(
        "stripe unit must be a non-zero multiple of the I/O alignment");
  }

  std::uint32_t rows = 0;
  if (first.zoned()) {
    if (first.zone_size_bytes % options.stripe_bytes != 0) {
      return Status::InvalidArgument("stripe unit must divide the zone size");
    }
    rows = members[0]->info().num_zones;
    for (const auto& m : members) rows = std::min(rows, m->info().num_zones);
    if (rows == 0) return Status::InvalidArgument("members have no zones");
  } else {
    std::uint64_t span = members[0]->info().capacity_bytes;
    for (const auto& m : members) span = std::min(span, m->info().capacity_bytes);
    span -= span % options.stripe_bytes;
    if (span == 0) {
      return Status::InvalidArgument("members smaller than one stripe unit");
    }
  }

  return std::unique_ptr<StripedVolume>(
      new StripedVolume(std::move(members), options, first, rows));
}

StripedVolume::StripedVolume(std::vector<std::unique_ptr<StorageDevice>> members,
                             const StripedVolumeOptions& options,
                             DeviceInfo member_info, std::uint32_t rows)
    : members_(std::move(members)),
      member_info_(std::move(member_info)),
      stripe_(options.stripe_bytes),
      width_(static_cast<std::uint32_t>(members_.size())),
      rows_(rows),
      align_(member_info_.io_alignment) {
  if (member_info_.zoned()) {
    zone_bytes_ = member_info_.zone_size_bytes * width_;
    member_span_ = member_info_.zone_size_bytes * rows_;
  } else {
    zone_bytes_ = 0;
    std::uint64_t span = members_[0]->info().capacity_bytes;
    for (const auto& m : members_) span = std::min(span, m->info().capacity_bytes);
    member_span_ = span - span % stripe_;
  }
  runs_.reserve(members_.size());
  lane_tokens_.resize(width_);
}

DeviceInfo StripedVolume::info() const {
  DeviceInfo di;
  di.name = "striped-" + std::to_string(members_.size()) + "x" + member_info_.name;
  di.io_alignment = align_;
  if (member_info_.zoned()) {
    di.zone_size_bytes = zone_bytes_;
    di.num_zones = rows_;
    di.capacity_bytes = zone_bytes_ * di.num_zones;
    FoldZoneLimits(members_, &di);
  } else {
    di.capacity_bytes = member_span_ * members_.size();
  }
  for (const auto& m : members_) di.slc_bytes += m->info().slc_bytes;
  return di;
}

MemberZone StripedVolume::ToMemberZone(ZoneId logical, std::uint32_t lane) const {
  return MemberZone{lane, logical};
}

ZoneId StripedVolume::ToLogicalZone(const MemberZone& mz) const { return mz.zone; }

Status StripedVolume::Resolve(const IoRequest& req, std::uint64_t* member_base,
                              std::uint64_t* rel) const {
  if (req.len == 0 || req.offset % align_ != 0 || req.len % align_ != 0) {
    return Status::InvalidArgument("request must be aligned and non-empty");
  }
  if (zone_bytes_ != 0) {
    const std::uint64_t logical = req.offset / zone_bytes_;
    if (logical >= rows_) {
      return Status::OutOfRange("request beyond volume capacity");
    }
    const std::uint64_t in_zone = req.offset - logical * zone_bytes_;
    if (req.len > zone_bytes_ || in_zone > zone_bytes_ - req.len) {
      // Mirrors the members' own rule; a zoned host never issues these.
      return Status::InvalidArgument("request crosses a zone boundary");
    }
    *member_base = logical * member_info_.zone_size_bytes;
    *rel = in_zone;
  } else {
    const std::uint64_t capacity = member_span_ * members_.size();
    if (req.len > capacity || req.offset > capacity - req.len) {
      return Status::OutOfRange("request beyond volume capacity");
    }
    *member_base = 0;
    *rel = req.offset;
  }
  return Status::Ok();
}

void StripedVolume::Split(std::uint64_t rel, std::uint64_t len,
                          std::uint64_t member_base) {
  runs_.clear();
  const std::uint64_t u0 = rel / stripe_;
  const std::uint64_t u1 = (rel + len - 1) / stripe_;
  const std::uint64_t frag0 = rel % stripe_;
  const std::uint64_t frag1 = (rel + len - 1) % stripe_ + 1;
  for (std::uint32_t lane = 0; lane < width_; ++lane) {
    // First and last stripe unit of this lane inside [u0, u1].
    const std::uint64_t first =
        u0 + (lane + width_ - static_cast<std::uint32_t>(u0 % width_)) % width_;
    if (first > u1) continue;
    const std::uint64_t last =
        u1 - (static_cast<std::uint32_t>(u1 % width_) + width_ - lane) % width_;
    const std::uint64_t start = (first / width_) * stripe_ + (first == u0 ? frag0 : 0);
    const std::uint64_t end =
        (last / width_) * stripe_ + (last == u1 ? frag1 : stripe_);
    runs_.push_back(Run{lane, member_base + start, end - start});
  }
}

Result<IoResult> StripedVolume::Write(const IoRequest& req) {
  std::uint64_t member_base = 0, rel = 0;
  if (Status st = Resolve(req, &member_base, &rel); !st.ok()) {
    return st;
  }
  if (!req.tokens.empty() && req.tokens.size() != req.len / align_) {
    return Status::InvalidArgument("token count != written pages");
  }
  Split(rel, req.len, member_base);

  // Single-run fast path (whole request on one member — always the case
  // for len <= the distance to the next stripe boundary, and for a
  // 1-member volume): forward the token span untouched. This is what
  // makes a 1-member volume bit-identical to the bare device.
  if (runs_.size() == 1) {
    const Run& r = runs_[0];
    auto res = members_[r.member]->Write(IoRequest{r.offset, r.len, req.now,
                                                   req.tokens, req.want_tokens,
                                                   req.io_class});
    if (!res.ok()) return res.status();
    return std::move(res).value();
  }

  // Gather each lane's tokens in member-run order before issuing.
  const bool tokens = !req.tokens.empty();
  if (tokens) {
    for (auto& v : lane_tokens_) v.clear();
    std::uint64_t page = 0;  // Cursor into req.tokens.
    for (std::uint64_t u = rel / stripe_; page < req.tokens.size(); ++u) {
      const std::uint64_t unit_lo = std::max(rel, u * stripe_);
      const std::uint64_t unit_hi = std::min(rel + req.len, (u + 1) * stripe_);
      const std::uint64_t pages = (unit_hi - unit_lo) / align_;
      auto& lane = lane_tokens_[static_cast<std::size_t>(u % width_)];
      lane.insert(lane.end(), req.tokens.begin() + static_cast<std::ptrdiff_t>(page),
                  req.tokens.begin() + static_cast<std::ptrdiff_t>(page + pages));
      page += pages;
    }
  }

  // Issue every run in run order (see header: a failing member does not
  // shield later members) and report the lowest-run-index error.
  SimTime done = req.now;
  Status first_err;
  for (const Run& r : runs_) {
    IoRequest sub{r.offset, r.len, req.now,
                  tokens ? std::span<const std::uint64_t>(lane_tokens_[r.member])
                         : std::span<const std::uint64_t>{},
                  /*want_tokens=*/false, req.io_class};
    auto res = members_[r.member]->Write(sub);
    if (!res.ok()) {
      if (first_err.ok()) first_err = res.status();
    } else {
      done = Later(done, res.value().done);
    }
  }
  if (!first_err.ok()) return first_err;
  return IoResult{done, {}};
}

Result<IoResult> StripedVolume::Read(const IoRequest& req) {
  std::uint64_t member_base = 0, rel = 0;
  if (Status st = Resolve(req, &member_base, &rel); !st.ok()) {
    return st;
  }
  Split(rel, req.len, member_base);

  if (runs_.size() == 1) {
    const Run& r = runs_[0];
    auto res = members_[r.member]->Read(
        IoRequest{r.offset, r.len, req.now, {}, req.want_tokens, req.io_class});
    if (!res.ok()) return res.status();
    return std::move(res).value();
  }

  for (auto& v : lane_tokens_) v.clear();
  IoResult out;
  out.done = req.now;
  Status first_err;
  for (const Run& r : runs_) {
    auto res = members_[r.member]->Read(
        IoRequest{r.offset, r.len, req.now, {}, req.want_tokens, req.io_class});
    if (!res.ok()) {
      if (first_err.ok()) first_err = res.status();
      continue;
    }
    out.done = Later(out.done, res.value().done);
    if (req.want_tokens) {
      lane_tokens_[r.member] = std::move(res.value().tokens);
    }
  }
  if (!first_err.ok()) return first_err;

  if (req.want_tokens) {
    // Scatter member tokens back into logical (request) page order.
    out.tokens.reserve(req.len / align_);
    std::vector<std::size_t> cursor(width_, 0);
    std::uint64_t consumed = 0;
    for (std::uint64_t u = rel / stripe_; consumed < req.len; ++u) {
      const std::uint64_t unit_lo = std::max(rel, u * stripe_);
      const std::uint64_t unit_hi = std::min(rel + req.len, (u + 1) * stripe_);
      const std::uint64_t pages = (unit_hi - unit_lo) / align_;
      auto& lane = lane_tokens_[static_cast<std::size_t>(u % width_)];
      std::size_t& c = cursor[static_cast<std::size_t>(u % width_)];
      for (std::uint64_t p = 0; p < pages; ++p) {
        out.tokens.push_back(lane[c++]);
      }
      consumed += unit_hi - unit_lo;
    }
  }
  return out;
}

Result<SimTime> StripedVolume::ResetZone(ZoneId zone, SimTime now) {
  if (zone_bytes_ == 0) {
    // The volume is conventional (DeviceInfo::zone_size_bytes == 0); the
    // members are never consulted.
    return Status::Unimplemented("volume has no zones");
  }
  if (!zone.valid() || zone.value() >= rows_) {
    return Status::OutOfRange("reset of invalid zone");
  }
  SimTime done = now;
  Status first_err;
  for (std::uint32_t lane = 0; lane < width_; ++lane) {
    const MemberZone mz = ToMemberZone(zone, lane);
    auto r = members_[mz.member]->ResetZone(mz.zone, now);
    if (!r.ok()) {
      if (first_err.ok()) first_err = r.status();
    } else {
      done = Later(done, r.value());
    }
  }
  if (!first_err.ok()) return first_err;
  return done;
}

Result<SimTime> StripedVolume::Flush(SimTime now) {
  SimTime done = now;
  Status first_err;
  for (const auto& m : members_) {
    auto r = m->Flush(now);
    if (!r.ok()) {
      if (first_err.ok()) first_err = r.status();
    } else {
      done = Later(done, r.value());
    }
  }
  if (!first_err.ok()) return first_err;
  return done;
}

StatsSnapshot StripedVolume::Stats() const {
  return SumOverMembers(members_, &StorageDevice::Stats);
}

ReliabilityStats StripedVolume::Reliability() const {
  return SumOverMembers(members_, &StorageDevice::Reliability);
}

RecoveryStats StripedVolume::Recovery() const {
  return SumOverMembers(members_, &StorageDevice::Recovery);
}

}  // namespace conzone
