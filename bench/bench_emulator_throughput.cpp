// Emulator self-benchmark: wall-clock throughput of the emulator itself.
//
// Unlike the fig*/table* benches — which report *simulated* bandwidth and
// latency — this harness measures how fast the emulator machinery runs on
// the host: simulated IOs per wall-clock second and FIO chain steps per
// wall-clock second, for random-read, sequential-write and mixed 4 KiB
// workloads at iodepth 1/2/4/8. It is the regression gate for hot-path
// work (FIO issue loop, L2P cache, address arithmetic, allocation-free IO
// paths): run it before and after, and check sim_ios_per_s.
//
// Reference numbers are checked in at BENCH_emulator_throughput.json
// (regenerate with:
//   bench_emulator_throughput --benchmark_out=BENCH_emulator_throughput.json \
//       --benchmark_out_format=json
// absolute numbers are machine-dependent; compare ratios, not values).
//
// Simulated IOPS (sim_kiops) is exported too: it must be monotonically
// non-decreasing in iodepth (more outstanding requests can only help a
// device with idle parallelism), which the determinism tests assert.
#include "bench_common.hpp"

namespace conzone::bench {
namespace {

constexpr std::uint64_t kRegion = 64 * kMiB;  // 8 zones of the paper config

JobSpec ReadSpec(std::uint64_t ios, std::uint64_t seed, std::uint32_t iodepth) {
  JobSpec s;
  s.name = "randread";
  s.pattern = IoPattern::kRandom;
  s.direction = IoDirection::kRead;
  s.block_size = 4096;
  s.region_offset = 0;
  s.region_size = kRegion;
  s.io_count = ios;
  s.seed = seed;
  s.iodepth = iodepth;
  return s;
}

JobSpec WriteSpec(std::uint64_t ios, std::uint64_t seed, std::uint32_t iodepth) {
  JobSpec s;
  s.name = "seqwrite";
  s.pattern = IoPattern::kSequential;
  s.direction = IoDirection::kWrite;
  s.block_size = 4096;
  s.region_offset = kRegion;
  s.region_size = kRegion;
  s.io_count = ios;
  s.reset_zones_on_wrap = true;
  s.seed = seed;
  s.iodepth = iodepth;
  return s;
}

/// Reset the zones the write workload targets so each repetition starts
/// from empty zones (included in the timed region, like a real rewrite).
void ResetWriteZones(ConZoneDevice& dev, SimTime& t) {
  const std::uint64_t zone = dev.config().zone_size_bytes;
  for (std::uint64_t z = kRegion / zone; z < 2 * kRegion / zone; ++z) {
    auto r = dev.ResetZone(ZoneId{z}, t);
    if (!r.ok()) std::abort();
    t = r.value();
  }
}

void ExportWallClock(::benchmark::State& state, std::uint64_t ios,
                     std::uint64_t events, double sim_kiops) {
  state.counters["sim_ios_per_s"] =
      ::benchmark::Counter(static_cast<double>(ios), ::benchmark::Counter::kIsRate);
  state.counters["events_per_s"] =
      ::benchmark::Counter(static_cast<double>(events), ::benchmark::Counter::kIsRate);
  state.counters["sim_kiops"] = sim_kiops;
}

void BM_RandRead4K(::benchmark::State& state) {
  const auto iodepth = static_cast<std::uint32_t>(state.range(0));
  auto dev = MakeConZone();
  SimTime cur = MustPrecondition(*dev, 0, kRegion);
  constexpr std::uint64_t kIos = 40000;
  std::uint64_t ios = 0, events = 0;
  double sim_kiops = 0;
  for (auto _ : state) {
    RunResult r = MustRun(*dev, {ReadSpec(kIos, 1, iodepth)}, cur);
    cur = r.end_time;
    ios += r.total.ops;
    events += r.events;
    sim_kiops = r.Kiops();
  }
  ExportWallClock(state, ios, events, sim_kiops);
}

void BM_SeqWrite4K(::benchmark::State& state) {
  const auto iodepth = static_cast<std::uint32_t>(state.range(0));
  auto dev = MakeConZone();
  SimTime cur = MustPrecondition(*dev, 0, kRegion);
  constexpr std::uint64_t kIos = 32768;
  std::uint64_t ios = 0, events = 0;
  double sim_kiops = 0;
  for (auto _ : state) {
    ResetWriteZones(*dev, cur);
    RunResult r = MustRun(*dev, {WriteSpec(kIos, 1, iodepth)}, cur);
    cur = r.end_time;
    ios += r.total.ops;
    events += r.events;
    sim_kiops = r.Kiops();
  }
  ExportWallClock(state, ios, events, sim_kiops);
}

void BM_Mixed4K(::benchmark::State& state) {
  const auto iodepth = static_cast<std::uint32_t>(state.range(0));
  auto dev = MakeConZone();
  SimTime cur = MustPrecondition(*dev, 0, kRegion);
  std::uint64_t ios = 0, events = 0;
  double sim_kiops = 0;
  for (auto _ : state) {
    ResetWriteZones(*dev, cur);
    RunResult r = MustRun(
        *dev, {ReadSpec(20000, 1, iodepth), WriteSpec(16384, 2, iodepth)}, cur);
    cur = r.end_time;
    ios += r.total.ops;
    events += r.events;
    sim_kiops = r.Kiops();
  }
  ExportWallClock(state, ios, events, sim_kiops);
}

// Scale-out: N independent device shards, one worker
// thread per shard, each running the same preconditioned 4 KiB random-
// read job with decorrelated seeds. sim_ios_per_s is the AGGREGATE
// simulated-IO rate across shards per wall-clock second (real time, not
// CPU time): on a multi-core host it should scale near-linearly in the
// shard count until cores run out. Device setup + preconditioning happen
// inside each shard's worker, so they are part of the timed region —
// identical per shard, which keeps the scaling ratio honest. So is
// thread start-up: each run starts and joins its own workers.
void BM_ShardedRandRead4K(::benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  ShardPlan plan;
  plan.config = ConZoneConfig::PaperConfig();
  plan.jobs = {ReadSpec(20000, 1, 4)};
  plan.shards = shards;
  plan.threads = shards;  // one thread per shard: scale-out, not queuing
  plan.master_seed = 1;
  plan.precondition_bytes = kRegion;
  std::uint64_t ios = 0, events = 0;
  double sim_kiops = 0;
  for (auto _ : state) {
    auto res = ShardedRunner(plan).Run();
    if (!res.ok()) {
      std::fprintf(stderr, "sharded run failed: %s\n",
                   res.status().ToString().c_str());
      std::abort();
    }
    const ShardedResult& r = res.value();
    ios += r.total.ops;
    events += r.events;
    sim_kiops = r.total.Kiops();
  }
  ExportWallClock(state, ios, events, sim_kiops);
  state.counters["shards"] = static_cast<double>(shards);
}

// Host-layer striping: one StripedVolume over N conventional (Legacy)
// members, 4 KiB random writes at iodepth 8. Random 4 KiB writes need an
// in-place address space, hence Legacy members — which also exercises
// the conventional-volume routing path. Two readings:
//   * sim_kiops: simulated aggregate IOPS. Outstanding requests land on
//     distinct members whose timelines advance independently, so this
//     should grow with the member count (until iodepth runs out).
//   * sim_ios_per_s: wall-clock emulator throughput. 4 KiB requests
//     touch one stripe unit, so they take the single-run fast path;
//     this stays roughly flat in N. The multi-run path is what
//     BM_StripedSeqWrite512K measures.
void BM_StripedRandWrite4K(::benchmark::State& state) {
  const auto members = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < members; ++i) devs.push_back(MakeLegacy());
  auto volr = StripedVolume::Create(std::move(devs), {});
  if (!volr.ok()) {
    std::fprintf(stderr, "volume create failed: %s\n",
                 volr.status().ToString().c_str());
    std::abort();
  }
  StripedVolume& vol = **volr;

  JobSpec s;
  s.name = "randwrite";
  s.pattern = IoPattern::kRandom;
  s.direction = IoDirection::kWrite;
  s.block_size = 4096;
  s.region_offset = 0;
  s.region_size = kRegion;
  s.io_count = 20000;
  s.seed = 1;
  s.iodepth = 8;

  SimTime cur;
  std::uint64_t ios = 0, events = 0;
  double sim_kiops = 0;
  for (auto _ : state) {
    RunResult r = MustRun(vol, {s}, cur);
    cur = r.end_time;
    ios += r.total.ops;
    events += r.events;
    sim_kiops = r.Kiops();
  }
  ExportWallClock(state, ios, events, sim_kiops);
  state.counters["members"] = static_cast<double>(members);
}

// Host-layer striping on the multi-run path: 512 KiB sequential writes
// span 8 stripe units (64 KiB each), so every request splits across
// min(8, members) member devices — the path BM_StripedRandWrite4K
// (4 KiB, single-run fast path) never reaches. The volume issues the
// member legs in a serial loop; the gate on sim_ios_per_s covers that
// loop's host cost per request.
void BM_StripedSeqWrite512K(::benchmark::State& state) {
  const auto members = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (std::uint32_t i = 0; i < members; ++i) devs.push_back(MakeLegacy());
  auto volr = StripedVolume::Create(std::move(devs), {});
  if (!volr.ok()) {
    std::fprintf(stderr, "volume create failed: %s\n",
                 volr.status().ToString().c_str());
    std::abort();
  }
  StripedVolume& vol = **volr;

  JobSpec s;
  s.name = "seqwrite";
  s.pattern = IoPattern::kSequential;
  s.direction = IoDirection::kWrite;
  s.block_size = 512 * kKiB;
  s.region_offset = 0;
  s.region_size = kRegion;
  s.io_count = 4000;
  s.seed = 1;
  s.iodepth = 4;

  SimTime cur;
  std::uint64_t ios = 0, events = 0;
  double sim_kiops = 0;
  for (auto _ : state) {
    RunResult r = MustRun(vol, {s}, cur);
    cur = r.end_time;
    ios += r.total.ops;
    events += r.events;
    sim_kiops = r.Kiops();
  }
  ExportWallClock(state, ios, events, sim_kiops);
  state.counters["members"] = static_cast<double>(members);
}

// Degraded mirror reads: 4 KiB random reads through a 2-way
// RedundantVolume of paper-config ConZone members with one member
// latched failed, so half the reads (those whose rotating primary is
// the dead member) fail over to the survivor. Arg 0/1 toggles the
// failure: the healthy row is the baseline, the degraded row prices the
// fail-over path (skipping the failed primary, RedundancyStats
// accounting per IO) and, in sim_kiops, the loss of the failed member's
// read bandwidth.
void BM_DegradedRandRead4K(::benchmark::State& state) {
  const bool degraded = state.range(0) != 0;
  std::vector<std::unique_ptr<StorageDevice>> devs;
  for (int i = 0; i < 2; ++i) devs.push_back(MakeConZone());
  auto volr = RedundantVolume::Create(std::move(devs), {});
  if (!volr.ok()) {
    std::fprintf(stderr, "volume create failed: %s\n",
                 volr.status().ToString().c_str());
    std::abort();
  }
  RedundantVolume& vol = **volr;
  SimTime cur = MustPrecondition(vol, 0, kRegion);
  if (degraded) {
    if (Status st = vol.MarkFailed(0); !st.ok()) std::abort();
  }

  constexpr std::uint64_t kIos = 20000;
  std::uint64_t ios = 0, events = 0;
  double sim_kiops = 0;
  for (auto _ : state) {
    RunResult r = MustRun(vol, {ReadSpec(kIos, 1, /*iodepth=*/8)}, cur);
    cur = r.end_time;
    ios += r.total.ops;
    events += r.events;
    sim_kiops = r.Kiops();
  }
  ExportWallClock(state, ios, events, sim_kiops);
  state.counters["degraded"] = degraded ? 1.0 : 0.0;
  state.counters["reconstructed_units"] =
      static_cast<double>(vol.Redundancy().reconstructed_units);
}

// Remount wall-clock vs device fullness and checkpoint interval: how
// long the emulator takes (in host time) to run the full power-cut
// recovery pipeline — torn-block re-erase, OOB scan, L2P rebuild,
// write-pointer reconciliation — on a device preconditioned to
// 25/50/75/100% of its zones. With checkpoint_interval=0 (L2P log and
// checkpointing off) the OOB scan covers every used block, so wall-clock
// per remount grows roughly linearly with fullness. With an interval K,
// the device folds the mapping into a durable image every K flushed log
// entries during preconditioning and the mount scan shrinks to the
// post-checkpoint tail — remount cost should then track K, not fullness
// (the O(1) claim this series demonstrates). Reported as remounts_per_s
// ZoneCache data path: zipfian 4 KiB-object gets (90%) and puts against
// a cache mounted on the device, journal in two conventional zones. The
// gate metric is cache_gets_per_s — wall-clock Get operations per second
// through index lookup, device read, and (on the put side) admission,
// journaling, and eviction-by-reset. hit_ratio is exported so a change
// that speeds the bench up by caching less is visible for what it is.
void BM_CacheRandGet4K(::benchmark::State& state) {
  const auto theta_pct = static_cast<std::uint64_t>(state.range(0));
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 24;
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.num_conventional_zones = 2;
  auto dev = MakeConZone(cfg);

  auto cache = ZoneCache::Mount(dev.get(), {}, SimTime::Zero());
  if (!cache.ok()) {
    std::fprintf(stderr, "cache mount failed: %s\n",
                 cache.status().ToString().c_str());
    std::abort();
  }
  CacheJobSpec spec;
  spec.keys = 4096;
  spec.zipf_theta = static_cast<double>(theta_pct) / 100.0;
  spec.ops = 20000;
  std::uint64_t gets = 0;
  double hit_ratio = 0;
  SimTime cur;
  std::vector<std::uint32_t> generations;
  for (auto _ : state) {
    auto r = CacheWorkloadRunner::Run(
        **cache, spec, cur, generations.empty() ? nullptr : &generations);
    if (!r.ok()) {
      std::fprintf(stderr, "cache run failed: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    cur = r.value().end;
    generations = std::move(r.value().generations);
    gets += r.value().gets;
  }
  hit_ratio = (*cache)->stats().HitRatio();
  state.counters["cache_gets_per_s"] = ::benchmark::Counter(
      static_cast<double>(gets), ::benchmark::Counter::kIsRate);
  state.counters["hit_ratio"] = hit_ratio;
  state.counters["zipf_theta_pct"] = static_cast<double>(theta_pct);
}

// (wall-clock rate) plus the *simulated* remount latency sim_remount_ms;
// there is deliberately no sim_ios_per_s counter — that metric is the
// compare_bench.py throughput gate, and remount has its own.
void BM_Remount(::benchmark::State& state) {
  const auto fullness_pct = static_cast<std::uint64_t>(state.range(0));
  const auto ckpt_interval = static_cast<std::uint64_t>(state.range(1));
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  // Shrink the flash so a 100%-full OOB scan stays in benchmark budget;
  // the fullness *ratio* is what the series varies.
  cfg.geometry.blocks_per_chip = 40;
  cfg.geometry.slc_blocks_per_chip = 8;
  cfg.fault.power_loss = true;  // journaling on, cuts legal
  if (ckpt_interval > 0) {
    cfg.l2p_log.enabled = true;  // the interval counts flushed log entries
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval_entries = ckpt_interval;
  }
  auto dev = MakeConZone(cfg);

  const DeviceInfo di = dev->info();
  const std::uint64_t zones_to_fill = di.num_zones * fullness_pct / 100;
  SimTime cur = zones_to_fill == 0
                    ? SimTime::Zero()
                    : MustPrecondition(*dev, 0, zones_to_fill * di.zone_size_bytes);

  std::uint64_t remounts = 0;
  double sim_remount_ms = 0;
  for (auto _ : state) {
    if (Status st = dev->PowerCut(cur); !st.ok()) {
      std::fprintf(stderr, "power cut failed: %s\n", st.ToString().c_str());
      std::abort();
    }
    auto rec = dev->Recover(cur);
    if (!rec.ok()) {
      std::fprintf(stderr, "recover failed: %s\n", rec.status().ToString().c_str());
      std::abort();
    }
    sim_remount_ms = (rec.value() - cur).ms();
    cur = rec.value();
    ++remounts;
  }
  state.counters["remounts_per_s"] = ::benchmark::Counter(
      static_cast<double>(remounts), ::benchmark::Counter::kIsRate);
  state.counters["sim_remount_ms"] = sim_remount_ms;
  state.counters["fullness_pct"] = static_cast<double>(fullness_pct);
  state.counters["checkpoint_interval"] = static_cast<double>(ckpt_interval);
  state.counters["pages_skipped"] =
      static_cast<double>(dev->recovery_stats().pages_skipped);
}

BENCHMARK(BM_RandRead4K)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_SeqWrite4K)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_Mixed4K)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(::benchmark::kMillisecond);
// Real time, not CPU time: the work happens on pool threads, and the
// point is wall-clock scale-out.
BENCHMARK(BM_ShardedRandRead4K)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(::benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();
BENCHMARK(BM_StripedRandWrite4K)
    ->ArgName("members")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(::benchmark::kMillisecond);
// Real time, as the baseline rows were recorded; the member loop is
// serial, so real and process time agree.
BENCHMARK(BM_StripedSeqWrite512K)
    ->ArgName("members")
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(::benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();
BENCHMARK(BM_DegradedRandRead4K)
    ->ArgName("degraded")
    ->Arg(0)
    ->Arg(1)
    ->Unit(::benchmark::kMillisecond);
// Uniform (theta=0) and the YCSB-default skew (theta=0.99).
BENCHMARK(BM_CacheRandGet4K)
    ->ArgName("zipf_theta_pct")
    ->Arg(0)
    ->Arg(99)
    ->Unit(::benchmark::kMillisecond);
// Full interval grid at the fullness extremes (the O(1) story), plus the
// checkpoint-off and 4k-interval points at the mid fullness levels.
BENCHMARK(BM_Remount)
    ->ArgNames({"fullness_pct", "checkpoint_interval"})
    ->Args({25, 0})
    ->Args({25, 4096})
    ->Args({25, 16384})
    ->Args({25, 65536})
    ->Args({50, 0})
    ->Args({50, 4096})
    ->Args({75, 0})
    ->Args({75, 4096})
    ->Args({100, 0})
    ->Args({100, 4096})
    ->Args({100, 16384})
    ->Args({100, 65536})
    ->Unit(::benchmark::kMillisecond);

}  // namespace
}  // namespace conzone::bench

BENCHMARK_MAIN();
