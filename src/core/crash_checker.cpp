#include "core/crash_checker.hpp"

#include <algorithm>
#include <string>

namespace conzone {

// ---------------------------------------------------------------------------
// CrashConsistencyChecker
// ---------------------------------------------------------------------------

CrashConsistencyChecker::CrashConsistencyChecker(const ConZoneConfig& config,
                                                 std::uint32_t total_zones)
    : cfg_(config), total_zones_(total_zones) {
  lpns_per_zone_ = cfg_.zone_size_bytes / cfg_.geometry.slot_size;
  zones_.resize(total_zones_ - cfg_.num_conventional_zones);
  for (ZoneShadow& zs : zones_) zs.epochs.push_back(Epoch{0, {}});
  conv_current_.resize(cfg_.num_conventional_zones * lpns_per_zone_, 0);
  conv_history_.resize(conv_current_.size());
}

void CrashConsistencyChecker::Advance(SimTime submit) {
  if (pending_ && pending_->done <= submit) {
    confirmed_ = std::move(pending_);
    pending_.reset();
    // Overwrites older than the confirmed flush can no longer resurrect:
    // their media copies were invalidated before the flush completed.
    for (auto& h : conv_history_) {
      std::erase_if(h, [&](const ConvWrite& w) { return w.submit < confirmed_->submit; });
    }
  }
  for (ZoneShadow& zs : zones_) {
    bool raised = false;
    for (auto it = zs.pending_resets.begin(); it != zs.pending_resets.end();) {
      if (it->second <= submit) {
        zs.floor_epoch = std::max(zs.floor_epoch, it->first);
        it = zs.pending_resets.erase(it);
        raised = true;
      } else {
        ++it;
      }
    }
    if (raised) {
      while (!zs.epochs.empty() && zs.epochs.front().number < zs.floor_epoch) {
        zs.epochs.pop_front();
      }
    }
  }
}

CrashConsistencyChecker::Snapshot CrashConsistencyChecker::Capture(
    SimTime submit, SimTime done) const {
  Snapshot s;
  s.submit = submit;
  s.done = done;
  s.zones.reserve(zones_.size());
  for (const ZoneShadow& zs : zones_) {
    const Epoch& cur = zs.epochs.back();
    s.zones.emplace_back(zs.current_epoch,
                         cur.number == zs.current_epoch ? cur.tokens.size() : 0);
  }
  s.conv = conv_current_;
  return s;
}

void CrashConsistencyChecker::OnWrite(std::uint64_t offset,
                                      std::span<const std::uint64_t> tokens,
                                      SimTime submit, SimTime done) {
  Advance(submit);
  const std::uint64_t slot = cfg_.geometry.slot_size;
  const ZoneId zone{offset / cfg_.zone_size_bytes};
  if (IsConv(zone)) {
    const std::uint64_t first = offset / slot;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      conv_current_[first + i] = tokens[i];
      conv_history_[first + i].push_back(ConvWrite{tokens[i], submit});
    }
    return;
  }
  ZoneShadow& zs = Seq(zone);
  Epoch& cur = zs.epochs.back();
  const std::uint64_t rel =
      (offset - zone.value() * cfg_.zone_size_bytes) / slot;
  if (cur.tokens.size() < rel + tokens.size()) cur.tokens.resize(rel + tokens.size());
  std::copy(tokens.begin(), tokens.end(),
            cur.tokens.begin() + static_cast<std::ptrdiff_t>(rel));
  (void)done;
}

void CrashConsistencyChecker::OnFlush(SimTime submit, SimTime done) {
  Advance(submit);
  pending_ = Capture(submit, done);
}

void CrashConsistencyChecker::OnReset(ZoneId zone, SimTime submit, SimTime done) {
  Advance(submit);
  if (IsConv(zone)) return;  // Conventional resets don't exist in the stream.
  ZoneShadow& zs = Seq(zone);
  ++zs.current_epoch;
  zs.epochs.push_back(Epoch{zs.current_epoch, {}});
  zs.pending_resets.emplace_back(zs.current_epoch, done);
}

void CrashConsistencyChecker::OnNoop(SimTime submit, SimTime done) {
  Advance(submit);
  (void)done;
}

void CrashConsistencyChecker::OnPowerCut(SimTime cut_time) {
  cut_time_ = cut_time;
  // Which flush is the durable baseline under THIS cut: the pending one
  // if its completion beat the cut, else the last confirmed one.
  if (pending_ && pending_->done <= cut_time) {
    durable_ = pending_;
  } else {
    durable_ = confirmed_;
  }
  // Resets whose erases finished before the cut are durably complete:
  // the old generation may not come back.
  for (ZoneShadow& zs : zones_) {
    for (const auto& [epoch, done] : zs.pending_resets) {
      if (done <= cut_time) zs.floor_epoch = std::max(zs.floor_epoch, epoch);
    }
    while (!zs.epochs.empty() && zs.epochs.front().number < zs.floor_epoch) {
      zs.epochs.pop_front();
    }
    zs.pending_resets.clear();
  }
  cut_resolved_ = true;
}

Status CrashConsistencyChecker::VerifySequentialZone(ConZoneDevice& dev, ZoneId zone,
                                                     SimTime now) {
  const std::uint64_t slot = cfg_.geometry.slot_size;
  const std::uint64_t base = zone.value() * cfg_.zone_size_bytes;
  const ZoneInfo& info = dev.zones().Info(zone);
  const std::uint64_t wp_slots = info.write_pointer / slot;
  ZoneShadow& zs = Seq(zone);
  auto fail = [&](const std::string& why) {
    return Status::Internal("zone " + std::to_string(zone.value()) + ": " + why);
  };

  // 1. Everything below the recovered write pointer must read back.
  std::vector<std::uint64_t> read_tokens;
  if (wp_slots > 0) {
    auto rd = dev.Read(IoRequest{base, wp_slots * slot, now, {},
                                 /*want_tokens=*/true, IoClass::kMaintenance});
    if (rd.ok()) read_tokens = std::move(rd.value().tokens);
    if (!rd.ok()) {
      return fail("write pointer exceeds readable content: " +
                  std::string(rd.status().message()));
    }
    if (read_tokens.size() != wp_slots) return fail("short read below write pointer");
  }

  // 2. The content must be a token-prefix of a retained generation in
  //    [floor_epoch, current_epoch].
  const Epoch* matched = nullptr;
  for (const Epoch& e : zs.epochs) {
    if (wp_slots > e.tokens.size()) continue;
    if (std::equal(read_tokens.begin(), read_tokens.end(), e.tokens.begin())) {
      matched = &e;  // Tokens are unique: at most one non-empty match.
      if (wp_slots > 0) break;
    }
  }
  if (matched == nullptr) {
    return fail("recovered content (wp=" + std::to_string(wp_slots) +
                " slots) is not a prefix of any legal generation");
  }

  // 3. Acknowledged-durable floor: with no reset issued after the durable
  //    flush, the zone must retain at least what that flush covered.
  if (durable_) {
    const std::size_t zi =
        static_cast<std::size_t>(zone.value() - cfg_.num_conventional_zones);
    const auto [d_epoch, d_len] = durable_->zones[zi];
    if (d_epoch == zs.current_epoch && d_len > 0) {
      if (wp_slots < d_len) {
        return fail("durable data lost: flushed " + std::to_string(d_len) +
                    " slots, recovered " + std::to_string(wp_slots));
      }
      if (matched->number != d_epoch) return fail("recovered a pre-reset generation");
    }
  }

  // 4. Reads past the recovered write pointer must fail.
  if (info.write_pointer < dev.zones().config().zone_capacity_bytes) {
    auto rd = dev.Read(IoRequest{base + info.write_pointer, slot, now, {},
                                 /*want_tokens=*/false, IoClass::kMaintenance});
    if (rd.ok()) return fail("read beyond the recovered write pointer succeeded");
  }

  Mix(info.write_pointer);
  for (std::uint64_t t : read_tokens) Mix(t);

  // Re-baseline: the recovered content is on media and the mapping that
  // reaches it was just rebuilt FROM media, so it is durable by
  // construction. Collapse history to a single known generation.
  Epoch next{zs.current_epoch, std::move(read_tokens)};
  zs.epochs.clear();
  zs.epochs.push_back(std::move(next));
  zs.floor_epoch = zs.current_epoch;
  zs.pending_resets.clear();
  return Status::Ok();
}

Status CrashConsistencyChecker::VerifyConventionalZone(ConZoneDevice& dev, ZoneId zone,
                                                       SimTime now) {
  const std::uint64_t slot = cfg_.geometry.slot_size;
  for (std::uint64_t k = 0; k < lpns_per_zone_; ++k) {
    const std::uint64_t lpn = zone.value() * lpns_per_zone_ + k;
    const std::uint64_t d = durable_ ? durable_->conv[lpn] : 0;
    std::vector<std::uint64_t> tok;
    auto rd = dev.Read(IoRequest{lpn * slot, slot, now, {}, /*want_tokens=*/true,
                                 IoClass::kMaintenance});
    if (rd.ok()) tok = std::move(rd.value().tokens);
    if (!rd.ok()) {
      if (d != 0) {
        return Status::Internal("conventional lpn " + std::to_string(lpn) +
                                ": durable value unreadable after recovery");
      }
      conv_current_[lpn] = 0;
      conv_history_[lpn].clear();
      Mix(0);
      continue;
    }
    const std::uint64_t got = tok.empty() ? 0 : tok[0];
    bool allowed = d != 0 && got == d;
    if (!allowed) {
      for (const ConvWrite& w : conv_history_[lpn]) {
        if (durable_ && w.submit < durable_->submit) continue;
        if (w.token == got) {
          allowed = true;
          break;
        }
      }
    }
    if (!allowed) {
      return Status::Internal("conventional lpn " + std::to_string(lpn) +
                              ": recovered token " + std::to_string(got) +
                              " was never a durable or later-written value");
    }
    conv_current_[lpn] = got;
    conv_history_[lpn].clear();
    Mix(got);
  }
  return Status::Ok();
}

Status CrashConsistencyChecker::VerifyAfterRecovery(ConZoneDevice& dev, SimTime now) {
  if (!cut_resolved_) {
    return Status::FailedPrecondition("VerifyAfterRecovery without OnPowerCut");
  }
  for (std::uint32_t z = 0; z < total_zones_; ++z) {
    const ZoneId zone{z};
    Status st = IsConv(zone) ? VerifyConventionalZone(dev, zone, now)
                             : VerifySequentialZone(dev, zone, now);
    if (!st.ok()) return st;
  }

  // Counter reconciliation over the public API: every mapped LPN points
  // at exactly one valid slot and vice versa.
  std::uint64_t valid = 0;
  for (std::uint64_t b = 0; b < cfg_.geometry.TotalBlocks(); ++b) {
    valid += dev.array().ValidSlots(BlockId{b});
  }
  if (valid != dev.mapping().mapped_count()) {
    return Status::Internal("counter reconcile: " + std::to_string(valid) +
                            " valid slots vs " +
                            std::to_string(dev.mapping().mapped_count()) +
                            " mapped lpns");
  }
  Mix(dev.recovery_stats().remount_time.ns());

  // The recovered state is the new durable baseline (see re-baseline
  // notes above); the checker is ready to shadow ops toward another cut.
  confirmed_ = Capture(now, now);
  pending_.reset();
  durable_.reset();
  cut_resolved_ = false;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// CrashHarness
// ---------------------------------------------------------------------------

namespace {
ConZoneConfig WithPowerLoss(ConZoneConfig c) {
  c.fault.power_loss = true;  // The harness is pointless without the journal.
  return c;
}
}  // namespace

CrashHarness::CrashHarness(const ConZoneConfig& config, const Options& options)
    : cfg_(WithPowerLoss(config)),
      opt_(options),
      rng_(MixSeeds(options.seed, 0xC4A5Full, 0x0FFull)) {}

Status CrashHarness::Init() {
  auto dev = ConZoneDevice::Create(cfg_);
  if (!dev.ok()) return dev.status();
  dev_ = std::move(dev.value());
  checker_.emplace(cfg_, dev_->info().num_zones);
  now_ = SimTime::Zero();
  last_submit_ = SimTime::Zero();
  return Status::Ok();
}

Status CrashHarness::RunOne() {
  const std::uint64_t slot = cfg_.geometry.slot_size;
  const std::uint64_t capacity = dev_->zones().config().zone_capacity_bytes;
  const std::uint32_t num_seq = dev_->info().num_zones - cfg_.num_conventional_zones;
  const std::uint32_t active = std::min(opt_.active_zones, num_seq);
  const SimTime submit = now_;
  last_submit_ = submit;

  double r = rng_.NextDouble();
  // Conventional in-place write (only when the config carves that region).
  if (cfg_.num_conventional_zones > 0 && r < opt_.conv_prob) {
    const std::uint64_t zone_slots = cfg_.zone_size_bytes / slot;
    const ZoneId zone{static_cast<std::uint32_t>(
        rng_.NextBelow(cfg_.num_conventional_zones))};
    const std::uint64_t off_slots = rng_.NextBelow(zone_slots);
    const std::uint64_t len_slots = 1 + rng_.NextBelow(std::min<std::uint64_t>(
                                            opt_.max_write_slots, zone_slots - off_slots));
    std::vector<std::uint64_t> tokens(len_slots);
    for (auto& t : tokens) t = next_token_++;
    const std::uint64_t off =
        zone.value() * cfg_.zone_size_bytes + off_slots * slot;
    auto done = dev_->Write(IoRequest{off, len_slots * slot, submit, tokens});
    if (!done.ok()) return done.status();
    checker_->OnWrite(off, tokens, submit, done.value().done);
    now_ = done.value().done;
    return Status::Ok();
  }
  r = cfg_.num_conventional_zones > 0 ? r - opt_.conv_prob : r;

  if (r < opt_.flush_prob) {
    auto done = dev_->Flush(submit);
    if (!done.ok()) return done.status();
    checker_->OnFlush(submit, done.value());
    now_ = done.value();
    return Status::Ok();
  }
  r -= opt_.flush_prob;

  if (r < opt_.reset_prob) {
    const ZoneId zone{cfg_.num_conventional_zones +
                      static_cast<std::uint32_t>(rng_.NextBelow(active))};
    auto done = dev_->ResetZone(zone, submit);
    if (!done.ok()) return done.status();
    checker_->OnReset(zone, submit, done.value());
    now_ = done.value();
    return Status::Ok();
  }
  r -= opt_.reset_prob;

  if (r < opt_.finish_prob) {
    // Finish wants a started, not-yet-full zone; fall through to a write
    // when none qualifies.
    for (std::uint32_t k = 0; k < active; ++k) {
      const ZoneId zone{cfg_.num_conventional_zones +
                        static_cast<std::uint32_t>(rng_.NextBelow(active))};
      const ZoneInfo& info = dev_->zones().Info(zone);
      if (info.write_pointer == 0 || info.state == ZoneState::kFull) continue;
      auto done = dev_->FinishZone(zone, submit);
      if (!done.ok()) return done.status();
      checker_->OnNoop(submit, done.value());
      now_ = done.value();
      return Status::Ok();
    }
  }

  // Zone-sequential write at the write pointer; a full target is reset
  // first (the stream must keep making progress).
  ZoneId zone{cfg_.num_conventional_zones +
              static_cast<std::uint32_t>(rng_.NextBelow(active))};
  const ZoneInfo* info = &dev_->zones().Info(zone);
  if (info->state == ZoneState::kFull || info->write_pointer >= capacity) {
    auto done = dev_->ResetZone(zone, submit);
    if (!done.ok()) return done.status();
    checker_->OnReset(zone, submit, done.value());
    now_ = done.value();
    return Status::Ok();
  }
  const std::uint64_t room = (capacity - info->write_pointer) / slot;
  const std::uint64_t len_slots =
      1 + rng_.NextBelow(std::min<std::uint64_t>(opt_.max_write_slots, room));
  std::vector<std::uint64_t> tokens(len_slots);
  for (auto& t : tokens) t = next_token_++;
  const std::uint64_t off = zone.value() * cfg_.zone_size_bytes + info->write_pointer;
  auto done = dev_->Write(IoRequest{off, len_slots * slot, submit, tokens});
  if (!done.ok()) return done.status();
  checker_->OnWrite(off, tokens, submit, done.value().done);
  now_ = done.value().done;
  return Status::Ok();
}

Status CrashHarness::RunOps(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (Status st = RunOne(); !st.ok()) return st;
  }
  return Status::Ok();
}

Status CrashHarness::WriteAndFlush(std::uint64_t offset, std::uint64_t slots) {
  std::vector<std::uint64_t> tokens(slots);
  for (auto& t : tokens) t = next_token_++;
  last_submit_ = now_;
  auto done = dev_->Write(IoRequest{offset, slots * cfg_.geometry.slot_size, now_, tokens});
  if (!done.ok()) return done.status();
  checker_->OnWrite(offset, tokens, now_, done.value().done);
  now_ = done.value().done;
  last_submit_ = now_;
  auto flushed = dev_->Flush(now_);
  if (!flushed.ok()) return flushed.status();
  checker_->OnFlush(now_, flushed.value());
  now_ = flushed.value();
  return Status::Ok();
}

Status CrashHarness::Cut(double frac) {
  const std::uint64_t span = (now_ - last_submit_).ns();
  const std::uint64_t extra = static_cast<std::uint64_t>(
      frac * static_cast<double>(span == 0 ? 1 : span));
  return CutAt(last_submit_ + SimDuration::Nanos(extra));
}

Status CrashHarness::CutAt(SimTime t) {
  if (Status st = dev_->PowerCut(t); !st.ok()) return st;
  checker_->OnPowerCut(t);
  now_ = Later(now_, t);
  return Status::Ok();
}

Status CrashHarness::RecoverAndVerify() {
  auto done = dev_->Recover(now_);
  if (!done.ok()) return done.status();
  now_ = done.value();
  return checker_->VerifyAfterRecovery(*dev_, now_);
}

}  // namespace conzone
