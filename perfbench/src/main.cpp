// conzone_perfbench — the repository benchmark's entry point (README.md).
//
//   conzone_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--spans-out <file.csv>]
//   conzone_perfbench --selftest --workload <name> --seed <n>
//
// A run sets its workload up seven times (set-up time is the median),
// then drives it in rounds for --seconds. Host time is the CPU time of
// the benchmark's one thread (see ThreadCpuNs), scaled to a reference
// core speed (see ReferenceKernelNs); host rates are medians over
// rounds. Simulated outputs come from a fixed window of the first rounds.
// With --trace 1 every other round is traced: the traced rounds give the
// per-layer times, the untraced ones the tracing overhead. The last line
// of standard output is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using conzone::Status;
using Field = DeviceCounters::Field;

constexpr int kSetups = 7;
/// Round index of the first warm-up round; warm-up inputs differ from
/// every measured round's.
constexpr std::uint64_t kWarmupRound = 1ull << 40;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }
double Ratio(std::uint64_t num, std::uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Reference kernel for host-speed normalisation: 500 000 random
/// read-modify-writes over a 1 MiB table, which a warm pass keeps
/// L2-resident whatever the round before did. On a shared host the
/// emulator's speed drifts with other machines' load, and this kernel
/// drifts with it; dividing that drift out leaves the emulator's own
/// cost. Returns the kernel's CPU time in ns.
volatile std::uint64_t g_kernel_sink = 0;  // keeps the kernel's result live

double ReferenceKernelNs() {
  constexpr std::size_t kEntries = std::size_t{1} << 17;
  static std::vector<std::uint64_t> table(kEntries, 1);
  std::uint64_t acc = 0;
  for (const std::uint64_t v : table) acc += v;
  const std::int64_t t0 = ThreadCpuNs();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 500000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t idx = (x >> 24) & (kEntries - 1);
    table[idx] += x;
    acc ^= table[(idx * 7) & (kEntries - 1)];
  }
  const std::int64_t t1 = ThreadCpuNs();
  g_kernel_sink = acc;
  return static_cast<double>(t1 - t0);
}

/// Host time is reported at a reference speed: the speed of a core on
/// which ReferenceKernelNs() takes this long. Rates are multiplied, and
/// times divided, by ReferenceKernelNs() / kReferenceKernelNs measured
/// just before the work.
constexpr double kReferenceKernelNs = 1e6;

struct RunOutput {
  Status error;
  std::vector<SetupTimes> setups;
  Snapshot start;
  Snapshot window;
  std::vector<double> rates;         ///< Ops per reference second, untraced rounds.
  std::vector<double> raw_rates;     ///< Ops per CPU second, untraced rounds.
  std::vector<double> wall_rates;    ///< Ops per wall second, untraced rounds.
  std::vector<double> traced_rates;  ///< Ops per reference second, traced rounds.
  std::vector<double> kernel_ns;     ///< ReferenceKernelNs() before each round.
  std::uint64_t rounds = 0;
  std::uint64_t traced_ops = 0;
  Progress final;
};

/// Set up and drive one workload. `fixed_rounds` > 0 runs exactly that
/// many rounds (the self-test); otherwise the run lasts `seconds` and at
/// least the simulated window.
RunOutput Run(const std::string& name, std::uint64_t seed, bool wrap, bool trace,
              double seconds, std::uint64_t fixed_rounds, int setups) {
  RunOutput out;
  std::unique_ptr<Workload> wl;
  for (int i = 0; i < setups; ++i) {
    wl.reset();  // one system alive at a time, so peak RSS counts one
    wl = MakeWorkload(name, seed, wrap);
    const double scale = ReferenceKernelNs() / kReferenceKernelNs;
    SetupTimes t;
    Status st = wl->Setup(&t);
    // Warm-up rounds fill the modelled caches and staging media before
    // anything is measured; they count as precondition time.
    const std::int64_t w0 = ThreadCpuNs();
    for (std::uint64_t r = 0; st.ok() && r < wl->warmup_rounds(); ++r) {
      st = wl->Round(kWarmupRound + r);
      if (st.ok()) st = wl->AfterRound();
    }
    if (st.ok() && wl->progress().failed > 0) st = Status::Internal("warm-up failed checks");
    if (!st.ok()) {
      out.error = st;
      return out;
    }
    t.precondition_s += static_cast<double>(ThreadCpuNs() - w0) / 1e9;
    t.create_s /= scale;
    t.precondition_s /= scale;
    t.mount_s /= scale;
    wl->StartWindow();
    out.setups.push_back(t);
  }
  out.start = wl->Take();
  const std::uint64_t window = wl->window_rounds();
  Tracer& tracer = GlobalTracer();
  const std::int64_t begin = NowNs();
  for (std::uint64_t r = 0;; ++r) {
    const bool stop = fixed_rounds > 0
                          ? r >= fixed_rounds
                          : r >= window && wl->enough() &&
                                static_cast<double>(NowNs() - begin) >= seconds * 1e9;
    if (stop) break;
    const bool traced = trace && r % 2 == 1;
    const double kernel_ns = ReferenceKernelNs();
    out.kernel_ns.push_back(kernel_ns);
    const std::uint64_t ops0 = wl->progress().ops;
    tracer.set_enabled(traced);
    const std::int64_t wall0 = NowNs();
    const std::int64_t t0 = ThreadCpuNs();
    Status st;
    {
      Span root(SpanKind::kRound);
      st = wl->Round(r);
    }
    const std::int64_t t1 = ThreadCpuNs();
    const std::int64_t wall1 = NowNs();
    tracer.set_enabled(false);
    if (!st.ok()) {
      out.error = st;
      break;
    }
    const std::uint64_t ops = wl->progress().ops - ops0;
    const double rate = Ratio(static_cast<double>(ops), static_cast<double>(t1 - t0) / 1e9);
    (traced ? out.traced_rates : out.rates).push_back(rate * kernel_ns / kReferenceKernelNs);
    if (!traced) {
      out.raw_rates.push_back(rate);
      out.wall_rates.push_back(
          Ratio(static_cast<double>(ops), static_cast<double>(wall1 - wall0) / 1e9));
    }
    if (traced) out.traced_ops += ops;
    if (st = wl->AfterRound(); !st.ok()) {
      out.error = st;
      break;
    }
    out.rounds = r + 1;
    if (out.rounds == window) out.window = wl->Take();
  }
  if (out.error.ok() && out.rounds < window) out.error = Status::Internal("window not reached");
  if (out.error.ok()) wl->VerifyEnd();
  out.final = wl->progress();
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const SetupTimes& MedianSetup(const RunOutput& o) {
  std::vector<std::size_t> idx(o.setups.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return o.setups[a].total() < o.setups[b].total();
  });
  return o.setups[idx[idx.size() / 2]];
}

std::vector<Metric> EndToEnd(const RunOutput& o) {
  const Progress& w = o.window.progress;
  const DeviceCounters dev = o.window.dev - o.start.dev;
  const double sim_s = (w.sim_now - w.sim_start).seconds();
  return {
      {"setup_s", MedianSetup(o).total(), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"sim_ios_per_s", Median(o.rates), "1/s"},
      {"sim_kiops", Ratio(static_cast<double>(w.ops), sim_s) / 1e3, "kIOPS"},
      {"sim_read_us_mean", w.read_lat.mean().us(), "us"},
      {"write_amp", Ratio(dev[Field::kFlashBytesWritten], w.client_bytes_written), "ratio"},
  };
}

std::vector<Metric> PerLayer(const RunOutput& o) {
  const Tracer& t = GlobalTracer();
  const Progress& w = o.window.progress;
  const DeviceCounters dev = o.window.dev - o.start.dev;
  const auto& c1 = o.window.cache;
  const auto& c0 = o.start.cache;
  const auto& r1 = o.window.red;
  const auto& r0 = o.start.red;
  const double traced_ops = static_cast<double>(o.traced_ops);
  const auto per_call = [&](SpanKind k) {
    return Ratio(t.agg(k).total_ns, t.agg(k).calls);
  };
  const auto self_per_op = [&](Layer l) {
    return Ratio(static_cast<double>(t.LayerSelfNs(l)), traced_ops);
  };
  const double host_pages = static_cast<double>(w.client_bytes_written) / 4096.0;
  const std::uint64_t device_ios =
      dev[Field::kReads] + dev[Field::kWrites] + dev[Field::kResets] + dev[Field::kHostFlushes];
  const std::uint64_t recoveries = dev[Field::kRecoveries];
  const std::uint64_t puts = c1.puts - c0.puts;
  const double untraced = Median(o.rates);
  const double traced = Median(o.traced_rates);
  const SetupTimes& s = MedianSetup(o);
  return {
      {"workload.self_ns_per_io", self_per_op(Layer::kWorkload), "ns"},
      {"sim.events_per_io", Ratio(w.events, w.ops), "count"},
      {"sim.read_us_p99", o.window.progress.read_lat.Percentile(0.99).us(), "us"},
      {"core.read_ns", per_call(SpanKind::kCoreRead), "ns"},
      {"core.write_ns", per_call(SpanKind::kCoreWrite), "ns"},
      {"core.reset_ns", per_call(SpanKind::kCoreReset), "ns"},
      {"core.flush_ns", per_call(SpanKind::kCoreFlush), "ns"},
      {"core.finish_ns", per_call(SpanKind::kCoreFinish), "ns"},
      {"core.powercut_ns", per_call(SpanKind::kCorePowerCut), "ns"},
      {"core.recover_ns", per_call(SpanKind::kCoreRecover), "ns"},
      {"core.self_ns_per_io", self_per_op(Layer::kCore), "ns"},
      {"crash.verify_ns", per_call(SpanKind::kCrashVerify), "ns"},
      {"crash.self_ns_per_io", self_per_op(Layer::kCrash), "ns"},
      {"crash.remount_ms_p50", Quantile(o.final.remount_host_ms, 0.5), "ms"},
      {"crash.remount_ms_p90", Quantile(o.final.remount_host_ms, 0.9), "ms"},
      {"crash.remounts", static_cast<double>(o.final.remount_host_ms.size()), "count"},
      {"crash.sim_remount_ms_p50", Quantile(w.sim_remount_ms, 0.5), "ms"},
      {"buffer.conflicts_per_kwrite",
       Ratio(dev[Field::kBufferConflicts], dev[Field::kWrites]) * 1e3, "count"},
      {"buffer.premature_flushes", static_cast<double>(dev[Field::kPrematureFlushes]), "count"},
      {"ftl.l2p_hit_ratio", Ratio(dev[Field::kL2pHits], dev[Field::kTranslations]), "ratio"},
      {"ftl.map_fetches_per_read", Ratio(dev[Field::kMapFetches], dev[Field::kReads]), "count"},
      {"ftl.l2p_log_flushes", static_cast<double>(dev[Field::kL2pLogFlushes]), "count"},
      {"flash.page_reads_per_io", Ratio(dev[Field::kPageReads], w.ops), "count"},
      {"flash.slc_slots_per_host_slot",
       Ratio(static_cast<double>(dev[Field::kSlcSlots]), host_pages), "ratio"},
      {"flash.normal_slots_per_host_slot",
       Ratio(static_cast<double>(dev[Field::kNormalSlots]), host_pages), "ratio"},
      {"flash.erases", static_cast<double>(dev[Field::kErases]), "count"},
      {"flash.checkpoint_bytes", static_cast<double>(dev[Field::kCheckpointBytes]), "bytes"},
      {"recovery.pages_scanned_per_remount", Ratio(dev[Field::kPagesScanned], recoveries),
       "count"},
      {"recovery.pages_skipped_per_remount", Ratio(dev[Field::kPagesSkipped], recoveries),
       "count"},
      {"recovery.checkpoint_mount_ratio", Ratio(dev[Field::kCheckpointLoads], recoveries),
       "ratio"},
      {"gc.runs", static_cast<double>(dev[Field::kGcRuns]), "count"},
      {"gc.slots_migrated_per_host_slot",
       Ratio(static_cast<double>(dev[Field::kGcSlotsMigrated]), host_pages), "ratio"},
      {"cache.get_ns", per_call(SpanKind::kCacheGet), "ns"},
      {"cache.put_ns", per_call(SpanKind::kCachePut), "ns"},
      {"cache.sync_ns", per_call(SpanKind::kCacheSync), "ns"},
      {"cache.self_ns_per_op", self_per_op(Layer::kCache), "ns"},
      {"cache.device_ios_per_op", c1.gets > 0 ? Ratio(device_ios, w.ops) : 0, "count"},
      {"cache.hit_ratio", Ratio(c1.hits - c0.hits, c1.gets - c0.gets), "ratio"},
      {"cache.evictions_per_kput", Ratio(c1.evictions - c0.evictions, puts) * 1e3, "count"},
      {"cache.migrated_slots_per_put", Ratio(c1.migrated_slots - c0.migrated_slots, puts),
       "count"},
      {"cache.journal_records_per_put", Ratio(c1.journal_records - c0.journal_records, puts),
       "count"},
      {"host.self_ns_per_io", self_per_op(Layer::kHost), "ns"},
      {"host.member_ios_per_io", w.volume_reads > 0 ? Ratio(device_ios, w.ops) : 0, "count"},
      {"host.tick_ns", per_call(SpanKind::kHostTick), "ns"},
      {"host.degraded_read_ratio", Ratio(r1.degraded_reads - r0.degraded_reads, w.volume_reads),
       "ratio"},
      {"host.rebuild_slots_copied",
       static_cast<double>(r1.rebuild_slots_copied - r0.rebuild_slots_copied), "count"},
      {"setup.create_s", s.create_s, "s"},
      {"setup.precondition_s", s.precondition_s, "s"},
      {"setup.mount_s", s.mount_s, "s"},
      {"trace.root_ns_per_io", Ratio(static_cast<double>(t.agg(SpanKind::kRound).total_ns),
                                     traced_ops),
       "ns"},
      {"trace.traced_ios_per_s", traced, "1/s"},
      {"trace.overhead_ios_per_s", traced - untraced, "1/s"},
      {"trace.overhead_pct", Ratio(untraced - traced, untraced) * 100, "%"},
      {"host.reference_kernel_ns", Median(o.kernel_ns), "ns"},
  };
}

std::uint64_t Fingerprint(const RunOutput& o) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&](std::uint64_t x) { h = (h ^ x) * 0x100000001B3ull; };
  const auto mix_d = [&](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  const Progress& w = o.window.progress;
  mix(w.ops);
  mix(w.attempted);
  mix(w.failed);
  mix(w.sim_now.ns());
  mix(w.digest);
  mix(w.read_lat.count());
  mix(w.read_lat.Percentile(0.5).ns());
  mix(w.read_lat.Percentile(0.99).ns());
  mix(w.read_lat.max().ns());
  mix(w.client_bytes_written);
  mix(w.events);
  mix(w.volume_reads);
  for (double d : w.sim_remount_ms) mix_d(d);
  for (std::uint64_t v : (o.window.dev - o.start.dev).v) mix(v);
  const auto& c = o.window.cache;
  for (std::uint64_t v : {c.gets, c.hits, c.puts, c.admitted_slots, c.evictions,
                          c.migrated_slots, c.journal_records, c.syncs}) {
    mix(v);
  }
  const auto& r = o.window.red;
  for (std::uint64_t v : {r.degraded_reads, r.degraded_writes, r.reconstructed_units,
                          r.scrub_rows, r.scrub_repaired_slots, r.rebuild_slots_copied}) {
    mix(v);
  }
  mix(o.final.failed);
  return h;
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("# %s\n", title);
  for (const Metric& m : ms) std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The wrapper changes no simulated output (raw, wrapped and traced runs
/// agree bit for bit), the same seed repeats exactly, and another seed
/// gives other outputs.
int SelfTest(const std::string& name, std::uint64_t seed) {
  struct Case {
    const char* label;
    bool wrap;
    bool trace;
    std::uint64_t seed;
  };
  const Case cases[] = {{"raw", false, false, seed},
                        {"wrapped", true, false, seed},
                        {"wrapped+traced", true, true, seed},
                        {"wrapped, next seed", true, false, seed + 1}};
  std::printf("# self-test %s seed %llu\n", name.c_str(), static_cast<unsigned long long>(seed));
  std::uint64_t fp[4] = {};
  bool ok = true;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t window = MakeWorkload(name, cases[i].seed, false)->window_rounds();
    RunOutput o = Run(name, cases[i].seed, cases[i].wrap, cases[i].trace, 0, window, 1);
    fp[i] = Fingerprint(o);
    std::printf("%-20s fingerprint %016llx  failed %llu  %s\n", cases[i].label,
                static_cast<unsigned long long>(fp[i]),
                static_cast<unsigned long long>(o.final.failed),
                o.error.ok() ? "ok" : o.error.ToString().c_str());
    ok = ok && o.error.ok() && o.final.failed == 0;
  }
  const bool wrapper_identical = fp[0] == fp[1] && fp[1] == fp[2];
  const bool seed_sensitive = fp[3] != fp[0];
  std::printf("wrapper bit-identical: %s\nseed changes outputs: %s\n",
              wrapper_identical ? "yes" : "NO", seed_sensitive ? "yes" : "NO");
  return ok && wrapper_identical && seed_sensitive ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a) || MakeWorkload(a.workload, 1, true) == nullptr) {
    std::fprintf(stderr,
                 "usage: conzone_perfbench --workload <fio_device|cache_zipf|crash_remount|"
                 "mirror_rebuild> --seed <n> --seconds <s> --trace <0|1> [--spans-out <csv>]\n"
                 "       conzone_perfbench --selftest --workload <name> --seed <n>\n");
    return 2;
  }
  if (a.selftest) return SelfTest(a.workload, a.seed);

  const RunOutput o = Run(a.workload, a.seed, true, a.trace, a.seconds, 0, kSetups);
  if (!o.error.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", a.workload.c_str(), o.error.ToString().c_str());
    return 1;
  }
  const Tracer& tracer = GlobalTracer();
  bool correct = o.final.failed == 0;
  std::printf("# workload %s seed %llu: %llu rounds (%zu traced), window %llu ops\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(o.rounds), o.traced_rates.size(),
              static_cast<unsigned long long>(o.window.progress.ops));
  const std::vector<Metric> e2e = EndToEnd(o);
  const std::vector<Metric> layers = PerLayer(o);
  PrintMetrics("end-to-end", e2e);
  std::printf("  sim_read_us_mean is over %llu reads\n",
              static_cast<unsigned long long>(o.window.progress.read_lat.count()));
  std::printf("  sim_ios_per_s before speed normalisation: %.6g per CPU second, %.6g per "
              "wall second (reference kernel %.0f ns)\n",
              Median(o.raw_rates), Median(o.wall_rates), Median(o.kernel_ns));
  // The workload-specific headline figures, under their per-layer names.
  const auto show = [&](const char* alias, const char* name) {
    for (const auto* set : {&e2e, &layers}) {
      for (const Metric& m : *set) {
        if (m.name == name) std::printf("  %-36s %16.6g %s\n", alias, m.value, m.unit.c_str());
      }
    }
  };
  show("sim_read_us_p99", "sim.read_us_p99");
  if (a.workload == "cache_zipf") {
    show("cache_ops_per_s", "sim_ios_per_s");
    show("cache_hit_ratio", "cache.hit_ratio");
  } else if (a.workload == "crash_remount") {
    show("remount_ms_p50", "crash.remount_ms_p50");
    show("remount_ms_p90", "crash.remount_ms_p90");
    show("remounts", "crash.remounts");
    show("sim_remount_ms_p50", "crash.sim_remount_ms_p50");
  }
  if (a.trace) {
    PrintMetrics("per-layer", layers);
    std::printf("# self time per layer (traced rounds)\n");
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      const std::uint64_t ns = tracer.LayerSelfNs(static_cast<Layer>(l));
      std::printf("  %-10s %10.3f ms  %5.1f%%\n", LayerName(static_cast<Layer>(l)),
                  static_cast<double>(ns) / 1e6,
                  100 * Ratio(ns, tracer.agg(SpanKind::kRound).total_ns));
    }
    // Self times partition the root spans exactly unless a span leaked.
    const bool adds_up =
        !tracer.open() && tracer.SelfNsSum() == tracer.agg(SpanKind::kRound).total_ns;
    std::printf("  self times add up to the root spans: %s\n", adds_up ? "yes" : "NO");
    correct = correct && adds_up;
    if (!a.spans_out.empty()) {
      if (tracer.WriteCsv(a.spans_out)) {
        std::printf("# %zu spans written to %s\n", tracer.kept(), a.spans_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", a.spans_out.c_str());
      }
    }
  }
  PrintJson(correct, o.final.attempted, o.final.failed, a.trace ? layers : e2e);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
