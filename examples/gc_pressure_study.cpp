// GC-pressure study: sizing the SLC secondary write buffer (§III-D).
//
// Consumer devices must choose how many blocks to program as SLC. A
// small SLC region forces the composite GC to run during host writes
// (foreground stalls, tail-latency spikes); a large region burns
// capacity. This example runs a premature-flush-heavy workload across
// SLC region sizes and reports GC activity and write tail latency.
//
//   ./build/examples/gc_pressure_study
#include <cstdio>

#include "conzone/conzone.hpp"

using namespace conzone;

namespace {

void RunWithSlcBlocks(std::uint32_t slc_blocks) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  // Keep the normal region constant at 40 zones; vary only SLC.
  cfg.geometry.slc_blocks_per_chip = slc_blocks;
  cfg.geometry.blocks_per_chip = 40 + slc_blocks;
  auto dev = ConZoneDevice::Create(cfg);
  if (!dev.ok()) {
    std::fprintf(stderr, "create: %s\n", dev.status().ToString().c_str());
    std::exit(1);
  }
  ConZoneDevice& d = **dev;

  // Conflict-heavy writes: two same-parity zones, 48 KiB granularity,
  // several rewrite rounds so staged SLC data churns and must be
  // reclaimed.
  FioRunner fio(d);
  std::vector<JobSpec> jobs;
  for (int j = 0; j < 2; ++j) {
    JobSpec s;
    s.name = "w";  // append, not "w" + ...: GCC 12 flags that with -Wrestrict
    s.name += std::to_string(j);
    s.direction = IoDirection::kWrite;
    s.block_size = 48 * kKiB;
    s.zone_list = {j == 0 ? 0ull : 2ull};
    s.io_count = 4 * CeilDiv(d.info().zone_size_bytes, s.block_size);  // 4 passes
    s.reset_zones_on_wrap = true;
    s.seed = static_cast<std::uint64_t>(j + 1);
    jobs.push_back(std::move(s));
  }
  auto r = fio.Run(jobs);
  if (!r.ok()) {
    std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  const auto& gc = d.gc().stats();
  std::printf(
      "%4u blocks (%5.1f MiB) | %7.1f MiB/s | WAF %4.2f | GC runs %3llu "
      "(migrated %5llu slots, %6.1f ms busy) | write p99.9 %8.1f us\n",
      slc_blocks,
      static_cast<double>(cfg.geometry.SlcUsableBytesPerSuperblock()) * slc_blocks /
          (1 << 20),
      r.value().MiBps(), d.Stats().WriteAmplification(),
      static_cast<unsigned long long>(gc.runs),
      static_cast<unsigned long long>(gc.slots_migrated), gc.busy_time.ms(),
      r.value().latency.Percentile(0.999).us());
}

}  // namespace

int main() {
  std::printf("GC-pressure study: SLC region size under conflict-heavy writes\n\n");
  for (std::uint32_t blocks : {3u, 4u, 6u, 8u, 12u, 16u}) {
    RunWithSlcBlocks(blocks);
  }
  std::printf(
      "\nSmaller SLC regions push the composite GC into the write path:\n"
      "watch the GC busy time climb and the p99.9 write latency spike as\n"
      "the region shrinks, while bandwidth degrades only mildly — the\n"
      "tail, not the average, is what SLC sizing buys (§III-D).\n");
  return 0;
}
