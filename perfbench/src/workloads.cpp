#include "workloads.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "timed_device.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace conzone;

DeviceCounters DeviceCounters::Of(const ConZoneDevice& d) {
  const StatsSnapshot s = d.Stats();
  const MediaCounters& m = d.media_counters();
  const TranslatorStats& t = d.translator().stats();
  const RecoveryStats& r = d.recovery_stats();
  DeviceCounters c;
  c.v[kFlashBytesWritten] = s.flash_bytes_written;
  c.v[kReads] = s.reads;
  c.v[kWrites] = s.writes;
  c.v[kResets] = s.zone_resets;
  c.v[kHostFlushes] = s.host_flushes;
  c.v[kPrematureFlushes] = s.premature_flushes;
  c.v[kBufferConflicts] = d.buffers().stats().conflicts;
  c.v[kTranslations] = t.translations;
  c.v[kL2pHits] = t.cache_hits;
  c.v[kMapFetches] = t.map_fetches;
  c.v[kL2pLogFlushes] = d.l2p_log().stats().flushes;
  c.v[kPageReads] = m.page_reads;
  c.v[kSlcSlots] = m.slots_programmed_slc;
  c.v[kNormalSlots] = m.slots_programmed_normal;
  c.v[kErases] = m.erases_slc + m.erases_normal;
  c.v[kGcRuns] = s.gc_runs;
  c.v[kGcSlotsMigrated] = s.gc_slots_migrated;
  c.v[kRecoveries] = r.recoveries;
  c.v[kPagesScanned] = r.pages_scanned;
  c.v[kPagesSkipped] = r.pages_skipped;
  c.v[kCheckpointLoads] = r.checkpoint_loaded;
  c.v[kCheckpointBytes] = r.checkpoint_bytes;
  return c;
}

DeviceCounters& DeviceCounters::operator+=(const DeviceCounters& o) {
  for (std::size_t i = 0; i < kNumFields; ++i) v[i] += o.v[i];
  return *this;
}

DeviceCounters DeviceCounters::operator-(const DeviceCounters& base) const {
  DeviceCounters d;
  for (std::size_t i = 0; i < kNumFields; ++i) d.v[i] = v[i] - base.v[i];
  return d;
}

namespace {

constexpr std::uint64_t kSlot = 4 * kKiB;
constexpr std::uint64_t kChunk = 512 * kKiB;

double CpuSecondsSince(std::int64_t from) {
  return static_cast<double>(ThreadCpuNs() - from) / 1e9;
}

std::uint64_t SeededToken(std::uint64_t seed, std::uint64_t lpn) {
  return MixSeeds(seed, lpn, 0x70CE) | 1ull;
}

/// The token ConZoneDevice stores for a page written without tokens.
std::uint64_t DeviceDefaultToken(std::uint64_t lpn) { return 0xC0DE0000ull ^ lpn; }

std::unique_ptr<StorageDevice> MaybeWrap(std::unique_ptr<StorageDevice> dev,
                                         DeviceSpans spans, bool wrap) {
  if (!wrap) return dev;
  return std::make_unique<TimedDevice>(std::move(dev), spans);
}

/// Sequentially write [off, off+len) with seeded tokens in 512 KiB requests.
Status Fill(StorageDevice& d, std::uint64_t off, std::uint64_t len, std::uint64_t seed,
            SimTime* now) {
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t o = off; o < off + len; o += kChunk) {
    const std::uint64_t n = std::min(kChunk, off + len - o);
    tokens.resize(n / kSlot);
    for (std::uint64_t i = 0; i < tokens.size(); ++i) tokens[i] = SeededToken(seed, o / kSlot + i);
    auto w = d.Write(IoRequest{o, n, *now, tokens});
    if (!w.ok()) return w.status();
    *now = w.value().done;
  }
  return Status::Ok();
}

/// Read the tokens of [off, off+len) in 512 KiB requests.
Status ReadTokens(StorageDevice& d, std::uint64_t off, std::uint64_t len, SimTime now,
                  std::vector<std::uint64_t>* out) {
  out->clear();
  for (std::uint64_t o = off; o < off + len; o += kChunk) {
    IoRequest req{o, std::min(kChunk, off + len - o), now};
    req.want_tokens = true;
    auto r = d.Read(req);
    if (!r.ok()) return r.status();
    out->insert(out->end(), r.value().tokens.begin(), r.value().tokens.end());
  }
  return Status::Ok();
}

/// One read-back check: [off, off+len) must hold expect(lpn) at every page.
template <class Expect>
void CheckRange(Progress& p, StorageDevice& d, std::uint64_t off, std::uint64_t len,
                Expect expect) {
  std::vector<std::uint64_t> got;
  ++p.attempted;
  bool bad = !ReadTokens(d, off, len, p.sim_now, &got).ok() || got.size() != len / kSlot;
  for (std::uint64_t i = 0; !bad && i < got.size(); ++i) {
    bad = got[i] != expect(off / kSlot + i);
  }
  if (bad) ++p.failed;
}

// ---------------------------------------------------------------------------
// fio_device: the §IV FIO mix on one PaperConfig device.
// ---------------------------------------------------------------------------
class FioDevice final : public Workload {
 public:
  FioDevice(std::uint64_t seed, bool wrap) : seed_(seed), wrap_(wrap) {}

  Status Setup(SetupTimes* t) override {
    const std::int64_t t0 = ThreadCpuNs();
    auto dev = ConZoneDevice::Create(ConZoneConfig::PaperConfig());
    if (!dev.ok()) return dev.status();
    dev_ = dev.value().get();
    top_ = MaybeWrap(std::move(dev).value(), kCoreSpans, wrap_);
    zone_ = dev_->info().zone_size_bytes;
    t->create_s = CpuSecondsSince(t0);

    const std::int64_t t1 = ThreadCpuNs();
    SimTime now;
    for (std::uint64_t z = 0; z < kReadZones; ++z) {
      const std::uint64_t span = z < kAggZones ? zone_ : kPagedSpan;
      if (Status st = Fill(*top_, z * zone_, span, seed_, &now); !st.ok()) return st;
      if (z >= kAggZones) {  // finished, so it holds no active-zone slot
        auto fin = dev_->FinishZone(ZoneId{z}, now);
        if (!fin.ok()) return fin.status();
        now = fin.value();
      }
    }
    auto f = top_->Flush(now);
    if (!f.ok()) return f.status();
    p_.sim_now = f.value();
    t->precondition_s = CpuSecondsSince(t1);
    return Status::Ok();
  }

  Status Round(std::uint64_t round) override {
    SimTime now = p_.sim_now;
    for (const auto& list : kWriterZones) {
      for (std::uint64_t z : list) {
        auto r = top_->ResetZone(ZoneId{z}, now);
        if (!r.ok()) return r.status();
        now = r.value();
      }
    }
    std::vector<JobSpec> jobs(3);
    JobSpec& rd = jobs[0];
    rd.name = "randread";
    rd.pattern = IoPattern::kRandom;
    rd.direction = IoDirection::kRead;
    for (std::uint64_t z = 0; z < kReadZones; ++z) rd.zone_list.push_back(z);
    rd.zone_span_bytes = kPagedSpan;
    rd.io_count = kReadsPerRound;
    rd.iodepth = 8;
    rd.seed = MixSeeds(seed_, round, 1);
    for (std::size_t w = 0; w < kWriterZones.size(); ++w) {
      JobSpec& wr = jobs[w + 1];
      wr.name = "seqwrite" + std::to_string(w);
      wr.direction = IoDirection::kWrite;
      wr.zone_list.assign(kWriterZones[w].begin(), kWriterZones[w].end());
      wr.io_count = kWritesPerRound;
      wr.reset_zones_on_wrap = true;
      wr.seed = MixSeeds(seed_, round, w + 2);
    }
    Result<RunResult> res = [&] {
      Span s(SpanKind::kFioRun);
      return FioRunner(*top_).Run(jobs, now);
    }();
    if (!res.ok()) return res.status();
    const RunResult& r = res.value();
    p_.ops += r.total.ops;
    p_.attempted += r.total.ops + r.io_errors;
    p_.failed += r.io_errors;
    p_.events += r.events;
    p_.read_lat.Merge(r.jobs[0].latency);
    for (std::size_t j = 1; j < r.jobs.size(); ++j) {
      p_.client_bytes_written += r.jobs[j].throughput.bytes;
    }
    p_.sim_now = r.end_time;
    p_.Mix(r.end_time.ns());
    p_.Mix(r.total.ops);
    p_.Mix(r.latency.mean().ns());
    p_.Mix(r.latency.max().ns());
    return Status::Ok();
  }

  void VerifyEnd() override {
    for (std::uint64_t z = 0; z < kReadZones; ++z) {
      CheckRange(p_, *dev_, z * zone_, z < kAggZones ? zone_ : kPagedSpan,
                 [&](std::uint64_t lpn) { return SeededToken(seed_, lpn); });
    }
    for (const auto& list : kWriterZones) {
      for (std::uint64_t z : list) {
        const std::uint64_t wp = dev_->zones().Info(ZoneId{z}).write_pointer;
        if (wp > 0) CheckRange(p_, *dev_, z * zone_, wp, DeviceDefaultToken);
      }
    }
  }

  std::uint64_t warmup_rounds() const override { return kWarmup; }
  std::uint64_t window_rounds() const override { return kWindow; }

  Snapshot Take() const override {
    Snapshot s;
    s.progress = p_;
    s.dev = DeviceCounters::Of(*dev_);
    return s;
  }

 private:
  // Zones 0-7 are written whole (zone-aggregated: one L2P entry each);
  // zones 8-23 hold their first 3 MiB only, which cannot aggregate and
  // stays page-mapped: 12288 entries against the 3072-entry L2P cache.
  static constexpr std::uint64_t kAggZones = 8;
  static constexpr std::uint64_t kReadZones = 24;
  static constexpr std::uint64_t kPagedSpan = 3 * kMiB;
  // Both writers use even zones, so both map to write buffer 0 and every
  // switch between them is a buffer conflict.
  static constexpr std::array<std::array<std::uint64_t, 2>, 2> kWriterZones = {
      {{24, 26}, {28, 30}}};
  static constexpr std::uint64_t kReadsPerRound = 60000;
  static constexpr std::uint64_t kWritesPerRound = 10240;  // wraps 2 zones once
  static constexpr std::uint64_t kWarmup = 8;
  static constexpr std::uint64_t kWindow = 12;

  std::uint64_t seed_;
  bool wrap_;
  ConZoneDevice* dev_ = nullptr;
  std::unique_ptr<StorageDevice> top_;
  std::uint64_t zone_ = 0;
};

// ---------------------------------------------------------------------------
// cache_zipf: a ZoneCache on a small ConZone device, zipf 0.99 get/put.
// ---------------------------------------------------------------------------
class CacheZipf final : public Workload {
 public:
  CacheZipf(std::uint64_t seed, bool wrap) : seed_(seed), wrap_(wrap) {}

  Status Setup(SetupTimes* t) override {
    const std::int64_t t0 = ThreadCpuNs();
    ConZoneConfig cfg = ConZoneConfig::PaperConfig();
    cfg.geometry.blocks_per_chip = 24;
    cfg.geometry.slc_blocks_per_chip = 4;
    cfg.num_conventional_zones = 2;  // the index journal's home
    auto dev = ConZoneDevice::Create(cfg);
    if (!dev.ok()) return dev.status();
    dev_ = dev.value().get();
    top_ = MaybeWrap(std::move(dev).value(), kCoreSpans, wrap_);
    t->create_s = CpuSecondsSince(t0);

    const std::int64_t t1 = ThreadCpuNs();
    auto cache = ZoneCache::Mount(top_.get(), ZoneCacheOptions{}, SimTime::Zero());
    if (!cache.ok()) return cache.status();
    cache_ = std::move(cache).value();
    t->mount_s = CpuSecondsSince(t1);

    // Key space 3x the cache's entry capacity; one put per key fills
    // the cache and starts eviction before the first round.
    const std::int64_t t2 = ThreadCpuNs();
    spec_.keys = kKeysPerEntry * cache_->max_entries();
    spec_.seed = seed_;
    zipf_.emplace(spec_.keys, spec_.zipf_theta);
    generation_.assign(spec_.keys, 0);
    SimTime now;
    for (std::uint64_t key = 0; key < spec_.keys; ++key) {
      if (Status st = Put(key, &now); !st.ok()) return st;
    }
    auto s = cache_->Sync(now);
    if (!s.ok()) return s.status();
    p_.sim_now = s.value();
    t->precondition_s = CpuSecondsSince(t2);
    return Status::Ok();
  }

  Status Round(std::uint64_t round) override {
    Rng rng(MixSeeds(seed_, round, 0xCAC4E));
    SimTime now = p_.sim_now;
    for (std::uint64_t i = 0; i < kOpsPerRound; ++i) {
      const std::uint64_t key = zipf_->Next(rng);
      if (!rng.NextBool(spec_.get_ratio)) {
        ++generation_[key];  // the object changed upstream
        if (Status st = Put(key, &now); !st.ok()) return st;
        continue;
      }
      Result<ZoneCache::GetResult> g = [&] {
        Span s(SpanKind::kCacheGet);
        return cache_->Get(key, now);
      }();
      ++p_.attempted;
      if (!g.ok()) return g.status();
      ++p_.ops;
      p_.read_lat.Record(g.value().done - now);
      now = Later(now, g.value().done);
      p_.Mix(now.ns());
      if (g.value().hit) {
        hits_.push_back(Hit{key, generation_[key], std::move(g.value().tokens)});
      } else if (Status st = Put(key, &now); !st.ok()) {  // cache-aside fill
        return st;
      }
    }
    Result<SimTime> s = [&] {
      Span span(SpanKind::kCacheSync);
      return cache_->Sync(now);
    }();
    if (!s.ok()) return s.status();
    p_.sim_now = s.value();
    return Status::Ok();
  }

  /// Every hit must have served the latest generation of its key.
  Status AfterRound() override {
    for (const Hit& h : hits_) {
      const std::uint32_t n = CacheWorkloadRunner::ValueSlots(spec_, h.key, h.generation);
      bool bad = h.tokens.size() != n;
      for (std::uint32_t i = 0; !bad && i < n; ++i) {
        bad = h.tokens[i] != CacheWorkloadRunner::ValueToken(seed_, h.key, h.generation, i);
      }
      if (bad) ++p_.failed;
    }
    hits_.clear();
    return Status::Ok();
  }

  std::uint64_t warmup_rounds() const override { return kWarmup; }
  std::uint64_t window_rounds() const override { return kWindow; }

  Snapshot Take() const override {
    Snapshot s;
    s.progress = p_;
    s.dev = DeviceCounters::Of(*dev_);
    s.cache = cache_->stats();
    return s;
  }

 private:
  struct Hit {
    std::uint64_t key;
    std::uint32_t generation;
    std::vector<std::uint64_t> tokens;
  };

  /// Put the current generation of `key`.
  Status Put(std::uint64_t key, SimTime* now) {
    const std::uint32_t gen = generation_[key];
    value_.resize(CacheWorkloadRunner::ValueSlots(spec_, key, gen));
    for (std::uint32_t i = 0; i < value_.size(); ++i) {
      value_[i] = CacheWorkloadRunner::ValueToken(seed_, key, gen, i);
    }
    Result<SimTime> r = [&] {
      Span s(SpanKind::kCachePut);
      return cache_->Put(key, CacheWorkloadRunner::GroupOf(spec_, key), value_, *now);
    }();
    ++p_.attempted;
    if (!r.ok()) return r.status();
    ++p_.ops;
    p_.client_bytes_written += value_.size() * kSlot;
    *now = Later(*now, r.value());
    p_.Mix(now->ns());
    return Status::Ok();
  }

  static constexpr std::uint64_t kKeysPerEntry = 3;
  static constexpr std::uint64_t kOpsPerRound = 20000;
  static constexpr std::uint64_t kWarmup = 16;
  static constexpr std::uint64_t kWindow = 40;

  std::uint64_t seed_;
  bool wrap_;
  ConZoneDevice* dev_ = nullptr;
  std::unique_ptr<StorageDevice> top_;
  std::unique_ptr<ZoneCache> cache_;
  CacheJobSpec spec_;
  std::optional<ZipfianGenerator> zipf_;
  std::vector<std::uint32_t> generation_;
  std::vector<std::uint64_t> value_;
  std::vector<Hit> hits_;
};

// ---------------------------------------------------------------------------
// crash_remount: the crash-harness op mix (writes, flushes, resets,
// finishes) plus read-backs, with a power cut every N ops. The device has
// no conventional zones: with them the repository's own CrashHarness
// trips the checker within a few hundred cuts (README.md, findings).
// ---------------------------------------------------------------------------
class CrashRemount final : public Workload {
 public:
  CrashRemount(std::uint64_t seed, bool wrap)
      : wrap_(wrap), rng_(MixSeeds(seed, 0xC4A5Full, 0x0FFull)) {}

  Status Setup(SetupTimes* t) override {
    const std::int64_t t0 = ThreadCpuNs();
    cfg_ = ConZoneConfig::PaperConfig();
    cfg_.geometry.blocks_per_chip = 40;
    cfg_.geometry.slc_blocks_per_chip = 8;
    cfg_.fault.power_loss = true;
    cfg_.l2p_log.enabled = true;
    cfg_.checkpoint.enabled = true;
    auto dev = ConZoneDevice::Create(cfg_);
    if (!dev.ok()) return dev.status();
    dev_ = dev.value().get();
    top_ = MaybeWrap(std::move(dev).value(), kCoreSpans, wrap_);
    checker_.emplace(cfg_, dev_->info().num_zones);
    capacity_ = dev_->zones().config().zone_capacity_bytes;
    t->create_s = CpuSecondsSince(t0);

    // Fill zones past the active ones so the mount has checkpointed
    // content to skip; the checker shadows the fill like any write.
    const std::int64_t t1 = ThreadCpuNs();
    std::vector<std::uint64_t> tokens(kChunk / kSlot);
    for (std::uint32_t k = 0; k < kFilledZones; ++k) {
      const std::uint64_t base = std::uint64_t{kActiveZones + k} * cfg_.zone_size_bytes;
      for (std::uint64_t o = 0; o < capacity_; o += kChunk) {
        for (auto& tok : tokens) tok = next_token_++;
        if (Status st = Write(base + o, tokens); !st.ok()) return st;
      }
    }
    if (Status st = Flush(); !st.ok()) return st;
    shadow_.assign(kActiveZones, ZoneShadow{});
    p_.sim_now = now_;
    t->precondition_s = CpuSecondsSince(t1);
    return Status::Ok();
  }

  Status Round(std::uint64_t) override {
    for (std::uint32_t c = 0; c < kCutsPerRound; ++c) {
      for (std::uint32_t i = 0; i < kOpsPerCut; ++i) {
        if (Status st = RunOne(); !st.ok()) return st;
      }
      if (Status st = Remount(); !st.ok()) return st;
    }
    p_.sim_now = now_;
    return Status::Ok();
  }

  std::uint64_t warmup_rounds() const override { return kWarmup; }
  std::uint64_t window_rounds() const override { return kWindow; }
  bool enough() const override { return p_.remount_host_ms.size() >= kMinRemounts; }

  Snapshot Take() const override {
    Snapshot s;
    s.progress = p_;
    s.dev = DeviceCounters::Of(*dev_);
    return s;
  }

 private:
  /// Writes since the zone's base page that the host knows exactly:
  /// reset zeroes the base, a remount moves it to the recovered write
  /// pointer (older content is the checker's business).
  struct ZoneShadow {
    std::uint64_t base = 0;
    std::vector<std::uint64_t> tokens;
  };

  Status Write(std::uint64_t off, std::span<const std::uint64_t> tokens) {
    const SimTime submit = now_;
    auto done = top_->Write(IoRequest{off, tokens.size() * kSlot, submit, tokens});
    if (!done.ok()) return done.status();
    checker_->OnWrite(off, tokens, submit, done.value().done);
    now_ = done.value().done;
    p_.client_bytes_written += tokens.size() * kSlot;
    return Status::Ok();
  }

  Status Flush() {
    const SimTime submit = now_;
    auto done = top_->Flush(submit);
    if (!done.ok()) return done.status();
    checker_->OnFlush(submit, done.value());
    now_ = done.value();
    return Status::Ok();
  }

  Status Reset(std::uint32_t k) {
    const SimTime submit = now_;
    auto done = top_->ResetZone(ZoneId{k}, submit);
    if (!done.ok()) return done.status();
    checker_->OnReset(ZoneId{k}, submit, done.value());
    now_ = done.value();
    shadow_[k] = ZoneShadow{};
    return Status::Ok();
  }

  /// Read back a random run of pages the host wrote since the base.
  Status Read(std::uint32_t k) {
    const ZoneShadow& z = shadow_[k];
    const std::uint64_t n = z.tokens.size();
    const std::uint64_t first = rng_.NextBelow(n);
    const std::uint64_t len = 1 + rng_.NextBelow(std::min<std::uint64_t>(kMaxSlots, n - first));
    IoRequest req{k * cfg_.zone_size_bytes + (z.base + first) * kSlot,
                  len * kSlot, now_};
    req.want_tokens = true;
    auto r = top_->Read(req);
    if (!r.ok()) return r.status();
    const std::vector<std::uint64_t>& got = r.value().tokens;
    if (!std::equal(got.begin(), got.end(), z.tokens.begin() + static_cast<std::ptrdiff_t>(first),
                    z.tokens.begin() + static_cast<std::ptrdiff_t>(first + len))) {
      ++p_.failed;
    }
    p_.read_lat.Record(r.value().done - now_);
    now_ = r.value().done;
    return Status::Ok();
  }

  /// Zone-sequential write at the write pointer; a full zone is reset.
  Status SeqWrite(std::uint32_t k) {
    const ZoneInfo& info = dev_->zones().Info(ZoneId{k});
    if (info.state == ZoneState::kFull || info.write_pointer >= capacity_) return Reset(k);
    const std::uint64_t room = (capacity_ - info.write_pointer) / kSlot;
    tokens_.resize(1 + rng_.NextBelow(std::min<std::uint64_t>(kMaxSlots, room)));
    for (auto& tok : tokens_) tok = next_token_++;
    const std::uint64_t wp_page = info.write_pointer / kSlot;
    ZoneShadow& z = shadow_[k];
    if (z.base + z.tokens.size() != wp_page) z = ZoneShadow{wp_page, {}};
    if (Status st = Write(k * cfg_.zone_size_bytes + info.write_pointer, tokens_);
        !st.ok()) {
      return st;
    }
    z.tokens.insert(z.tokens.end(), tokens_.begin(), tokens_.end());
    return Status::Ok();
  }

  /// Finish a started, not-full zone; false when none qualified.
  Result<bool> Finish() {
    for (std::uint32_t tries = 0; tries < kActiveZones; ++tries) {
      const auto k = static_cast<std::uint32_t>(rng_.NextBelow(kActiveZones));
      const ZoneInfo& info = dev_->zones().Info(ZoneId{k});
      if (info.write_pointer == 0 || info.state == ZoneState::kFull) continue;
      const SimTime submit = now_;
      Result<SimTime> done = [&] {
        Span s(SpanKind::kCoreFinish);
        return dev_->FinishZone(ZoneId{k}, submit);
      }();
      if (!done.ok()) return done.status();
      checker_->OnNoop(submit, done.value());
      now_ = done.value();
      return true;
    }
    return false;
  }

  Status RunOne() {
    last_submit_ = now_;
    ++p_.attempted;
    Status st = Dispatch();
    if (!st.ok()) return st;
    ++p_.ops;
    p_.Mix(now_.ns());
    return Status::Ok();
  }

  Status Dispatch() {
    double r = rng_.NextDouble();
    const auto k = static_cast<std::uint32_t>(rng_.NextBelow(kActiveZones));
    if (r < kReadProb) {
      if (!shadow_[k].tokens.empty()) return Read(k);
      return SeqWrite(k);
    }
    r -= kReadProb;
    if (r < kFlushProb) return Flush();
    r -= kFlushProb;
    if (r < kResetProb) return Reset(k);
    r -= kResetProb;
    if (r < kFinishProb) {
      auto finished = Finish();
      if (!finished.ok()) return finished.status();
      if (finished.value()) return Status::Ok();
    }
    return SeqWrite(k);
  }

  /// Cut power at a seeded point of the last op's service window (up to
  /// half a window past its completion, into background programs), then
  /// remount and run the crash-consistency check.
  Status Remount() {
    ++p_.attempted;
    const std::uint64_t window = std::max<std::uint64_t>(1, (now_ - last_submit_).ns());
    const SimTime cut =
        last_submit_ +
        SimDuration::Nanos(static_cast<std::uint64_t>(rng_.NextDouble() * 1.5 *
                                                      static_cast<double>(window)));
    const std::int64_t h0 = ThreadCpuNs();
    Status cut_st = [&] {
      Span s(SpanKind::kCorePowerCut);
      return dev_->PowerCut(cut);
    }();
    if (!cut_st.ok()) return cut_st;
    checker_->OnPowerCut(cut);
    now_ = Later(now_, cut);
    Result<SimTime> rec = [&] {
      Span s(SpanKind::kCoreRecover);
      return dev_->Recover(now_);
    }();
    const std::int64_t h1 = ThreadCpuNs();
    if (!rec.ok()) return rec.status();
    p_.remount_host_ms.push_back(static_cast<double>(h1 - h0) / 1e6);
    p_.sim_remount_ms.push_back((rec.value() - now_).ms());
    now_ = rec.value();
    Status verdict = [&] {
      Span s(SpanKind::kCrashVerify);
      return checker_->VerifyAfterRecovery(*dev_, now_);
    }();
    if (!verdict.ok()) {
      // A violated contract leaves the checker without a baseline.
      ++p_.failed;
      return verdict;
    }
    for (std::uint32_t k = 0; k < kActiveZones; ++k) {
      shadow_[k] = ZoneShadow{dev_->zones().Info(ZoneId{k}).write_pointer / kSlot, {}};
    }
    p_.Mix(now_.ns());
    return Status::Ok();
  }

  static constexpr std::uint32_t kActiveZones = 4;
  static constexpr std::uint32_t kFilledZones = 1;
  static constexpr std::uint64_t kMaxSlots = 16;
  static constexpr double kReadProb = 0.10;
  static constexpr double kFlushProb = 0.12;
  static constexpr double kResetProb = 0.05;
  static constexpr double kFinishProb = 0.02;
  static constexpr std::uint32_t kOpsPerCut = 100;
  static constexpr std::uint32_t kCutsPerRound = 10;
  static constexpr std::uint64_t kWarmup = 8;
  static constexpr std::uint64_t kWindow = 96;
  static constexpr std::size_t kMinRemounts = 100;

  bool wrap_;
  Rng rng_;
  ConZoneConfig cfg_;
  ConZoneDevice* dev_ = nullptr;
  std::unique_ptr<StorageDevice> top_;
  std::optional<CrashConsistencyChecker> checker_;
  std::uint64_t capacity_ = 0;
  std::uint64_t next_token_ = 1;
  SimTime now_;
  SimTime last_submit_;
  std::vector<ZoneShadow> shadow_;
  std::vector<std::uint64_t> tokens_;
};

// ---------------------------------------------------------------------------
// mirror_rebuild: 2-way ConZone mirror through fail, rebuild and scrub.
// ---------------------------------------------------------------------------
class MirrorRebuild final : public Workload {
 public:
  MirrorRebuild(std::uint64_t seed, bool wrap)
      : seed_(seed), wrap_(wrap), rng_(MixSeeds(seed, 0x3144, 0)) {}

  Status Setup(SetupTimes* t) override {
    const std::int64_t t0 = ThreadCpuNs();
    std::vector<std::unique_ptr<StorageDevice>> members;
    for (std::uint32_t i = 0; i < 2; ++i) {
      auto m = MakeMember(i, &member_dev_[i]);
      if (!m.ok()) return m.status();
      members.push_back(std::move(m).value());
    }
    RedundantVolumeOptions opt;
    opt.stripe_bytes = kStripe;
    opt.rows_per_tick = kRowsPerTick;
    auto vol = RedundantVolume::Create(std::move(members), opt);
    if (!vol.ok()) return vol.status();
    vol_ = vol.value().get();
    top_ = MaybeWrap(std::move(vol).value(), kHostSpans, wrap_);
    zone_ = vol_->info().zone_size_bytes;
    if (Status st = AfterRound(); !st.ok()) return st;  // first spare
    t->create_s = CpuSecondsSince(t0);

    const std::int64_t t1 = ThreadCpuNs();
    SimTime now;
    if (Status st = Fill(*top_, 0, kReadZones * zone_, seed_, &now); !st.ok()) return st;
    auto f = top_->Flush(now);
    if (!f.ok()) return f.status();
    p_.sim_now = now_ = f.value();
    t->precondition_s = CpuSecondsSince(t1);
    return Status::Ok();
  }

  /// One full cycle: healthy IO, member failure, degraded IO, live
  /// rebuild onto a fresh member, then a full scrub pass. Rounds
  /// alternate which member fails, so the rebuilt member of one round is
  /// the rebuild source of the next.
  Status Round(std::uint64_t round) override {
    const auto m = static_cast<std::uint32_t>(round % 2);
    for (std::uint32_t i = 0; i < kHealthySteps; ++i) {
      if (Status st = Step(false); !st.ok()) return st;
    }
    Status st = [&] {
      Span s(SpanKind::kHostMarkFailed);
      return vol_->MarkFailed(m);
    }();
    if (!st.ok()) return st;
    for (std::uint32_t i = 0; i < kDegradedSteps; ++i) {
      if (st = Step(false); !st.ok()) return st;
    }
    retired_ += DeviceCounters::Of(*member_dev_[m]);
    st = [&] {
      Span s(SpanKind::kHostReplace);
      return vol_->ReplaceMember(m, std::move(spare_), now_);
    }();
    if (!st.ok()) return st;
    member_dev_[m] = spare_dev_;
    if (st = Background([&] { return vol_->rebuild_active(); }); !st.ok()) return st;
    st = [&] {
      Span s(SpanKind::kHostStartScrub);
      return vol_->StartScrub(now_);
    }();
    if (!st.ok()) return st;
    if (st = Background([&] { return vol_->scrub_active(); }); !st.ok()) return st;
    p_.sim_now = now_;
    return Status::Ok();
  }

  /// Build the next round's replacement member outside the timed round.
  Status AfterRound() override {
    auto m = MakeMember(next_shard_++, &spare_dev_);
    if (!m.ok()) return m.status();
    spare_ = std::move(m).value();
    return Status::Ok();
  }

  /// The two members must hold identical zones, and the read zones the
  /// tokens written at set-up; the last scrub must have found nothing.
  void VerifyEnd() override {
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    for (std::uint64_t z = 0; z < kReadZones + kWriteZones; ++z) {
      const std::uint64_t wp = member_dev_[0]->zones().Info(ZoneId{z}).write_pointer;
      ++p_.attempted;
      const bool bad =
          wp != member_dev_[1]->zones().Info(ZoneId{z}).write_pointer ||
          !ReadTokens(*member_dev_[0], z * zone_, wp, p_.sim_now, &a).ok() ||
          !ReadTokens(*member_dev_[1], z * zone_, wp, p_.sim_now, &b).ok() || a != b;
      if (bad) ++p_.failed;
      if (z < kReadZones) {
        CheckRange(p_, *member_dev_[0], z * zone_, zone_,
                   [&](std::uint64_t lpn) { return SeededToken(seed_, lpn); });
      }
    }
    ++p_.attempted;
    if (vol_->Redundancy().scrub_mismatches != 0) ++p_.failed;
  }

  std::uint64_t warmup_rounds() const override { return kWarmup; }
  std::uint64_t window_rounds() const override { return kWindow; }

  Snapshot Take() const override {
    Snapshot s;
    s.progress = p_;
    s.dev = retired_;
    for (const ConZoneDevice* d : member_dev_) s.dev += DeviceCounters::Of(*d);
    s.red = vol_->Redundancy();
    return s;
  }

 private:
  Result<std::unique_ptr<StorageDevice>> MakeMember(std::uint32_t shard, ConZoneDevice** raw) {
    auto dev = ConZoneDevice::Create(ConZoneConfig::PaperConfig().ForShard(shard, seed_));
    if (!dev.ok()) return dev.status();
    *raw = dev.value().get();
    return MaybeWrap(std::move(dev).value(), kCoreSpans, wrap_);
  }

  /// Foreground IO with one background Tick per IO until `active` clears.
  template <class Active>
  Status Background(Active active) {
    for (std::uint64_t n = 0; active(); ++n) {
      if (n == kMaxBackgroundSteps) return Status::Internal("background job never finished");
      if (Status st = Step(true); !st.ok()) return st;
    }
    return Status::Ok();
  }

  /// One foreground IO — a 512 KiB sequential write every kWriteEvery
  /// IOs on average, else a 4 KiB random read of the set-up data —
  /// issued at the same instant as an optional background Tick.
  Status Step(bool tick) {
    SimTime bg_done = now_;
    if (tick) {
      Result<SimTime> bg = [&] {
        Span s(SpanKind::kHostTick);
        return vol_->Tick(now_);
      }();
      if (!bg.ok()) return bg.status();
      bg_done = bg.value();
    }
    ++p_.attempted;
    SimTime done;
    if (rng_.NextBelow(kWriteEvery) == 0) {
      const std::uint64_t zi = write_off_ / zone_;
      const std::uint64_t zone = kReadZones + zi;
      if (write_off_ % zone_ == 0 && zone_written_[zi]) {
        auto r = top_->ResetZone(ZoneId{zone}, now_);
        if (!r.ok()) return r.status();
        now_ = r.value();
      }
      auto w = top_->Write(IoRequest{zone * zone_ + write_off_ % zone_, kWriteBlock, now_});
      if (!w.ok()) return w.status();
      done = w.value().done;
      zone_written_[zi] = true;
      write_off_ = (write_off_ + kWriteBlock) % (kWriteZones * zone_);
      p_.client_bytes_written += kWriteBlock;
    } else {
      const std::uint64_t off = rng_.NextBelow(kReadZones * zone_ / kSlot) * kSlot;
      auto r = top_->Read(IoRequest{off, kSlot, now_});
      if (!r.ok()) return r.status();
      done = r.value().done;
      p_.read_lat.Record(done - now_);
      ++p_.volume_reads;
    }
    ++p_.ops;
    now_ = Later(done, bg_done);
    p_.Mix(now_.ns());
    return Status::Ok();
  }

  static constexpr std::uint64_t kStripe = 16 * kKiB;
  static constexpr std::uint32_t kRowsPerTick = 2;
  static constexpr std::uint64_t kReadZones = 4;   // logical zones 0-3, set-up data
  static constexpr std::uint64_t kWriteZones = 2;  // logical zones 4-5, cycled
  static constexpr std::uint64_t kWriteBlock = 512 * kKiB;
  static constexpr std::uint64_t kWriteEvery = 32;
  static constexpr std::uint32_t kHealthySteps = 1000;
  static constexpr std::uint32_t kDegradedSteps = 1000;
  static constexpr std::uint64_t kMaxBackgroundSteps = 1u << 20;
  static constexpr std::uint64_t kWarmup = 12;
  static constexpr std::uint64_t kWindow = 12;

  std::uint64_t seed_;
  bool wrap_;
  Rng rng_;
  RedundantVolume* vol_ = nullptr;
  std::unique_ptr<StorageDevice> top_;
  std::array<ConZoneDevice*, 2> member_dev_{};
  std::unique_ptr<StorageDevice> spare_;
  ConZoneDevice* spare_dev_ = nullptr;
  std::uint32_t next_shard_ = 2;
  DeviceCounters retired_;  ///< Counters of members replaced so far.
  std::uint64_t zone_ = 0;
  SimTime now_;
  std::uint64_t write_off_ = 0;
  std::array<bool, kWriteZones> zone_written_{};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool wrap) {
  if (name == "fio_device") return std::make_unique<FioDevice>(seed, wrap);
  if (name == "cache_zipf") return std::make_unique<CacheZipf>(seed, wrap);
  if (name == "crash_remount") return std::make_unique<CrashRemount>(seed, wrap);
  if (name == "mirror_rebuild") return std::make_unique<MirrorRebuild>(seed, wrap);
  return nullptr;
}

}  // namespace perfbench
