// Zone-switch study: how the number of shared write buffers and the
// host's write granularity determine premature flushing, SLC detours,
// write amplification and bandwidth (paper §II-B, §IV-C).
//
// Two writers alternate between two zones that map to the SAME buffer
// (worst case, like Fig. 6b's same-parity test). We sweep:
//   - the write granularity (16 KiB .. 384 KiB), and
//   - the number of write buffers (1, 2, 4, 6 — the paper notes F2FS
//     would want 6 but consumer SRAM affords ~2).
//
//   ./build/examples/zone_switch_study
#include <cstdio>

#include "conzone/conzone.hpp"

using namespace conzone;

namespace {

struct Cell {
  double mibps = 0;
  double waf = 0;
  std::uint64_t premature = 0;
};

Cell RunWriters(std::uint32_t num_buffers, std::uint64_t granularity) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.buffers.num_buffers = num_buffers;
  auto dev = ConZoneDevice::Create(cfg);
  if (!dev.ok()) {
    std::fprintf(stderr, "create: %s\n", dev.status().ToString().c_str());
    std::exit(1);
  }
  ConZoneDevice& d = **dev;
  FioRunner fio(d);
  // Four concurrent writers on zones 0..3: with one buffer everyone
  // collides, with two the same-parity pairs collide (the Fig. 6b
  // scenario), with four or more nobody does.
  std::vector<JobSpec> jobs;
  for (std::uint64_t j = 0; j < 4; ++j) {
    JobSpec s;
    s.name = "w";  // append, not "w" + ...: GCC 12 flags that with -Wrestrict
    s.name += std::to_string(j);
    s.direction = IoDirection::kWrite;
    s.block_size = granularity;
    s.zone_list = {j};
    s.io_count = CeilDiv(d.info().zone_size_bytes, granularity);
    s.seed = j + 1;
    jobs.push_back(std::move(s));
  }
  auto r = fio.Run(jobs);
  if (!r.ok()) {
    std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  const StatsSnapshot snap = d.Stats();
  return Cell{r.value().MiBps(), snap.WriteAmplification(), snap.premature_flushes};
}

}  // namespace

int main() {
  std::printf("Zone-switch study: four writers vs the shared buffer pool\n");
  std::printf("(bandwidth MiB/s | write amplification | premature flushes)\n\n");
  const std::uint64_t granularities[] = {16 * kKiB, 48 * kKiB, 96 * kKiB,
                                         192 * kKiB, 384 * kKiB};
  const std::uint32_t buffer_counts[] = {1, 2, 4, 6};

  std::printf("%-12s", "granularity");
  for (std::uint32_t b : buffer_counts) std::printf(" | %8u buf%s     ", b, b > 1 ? "s" : " ");
  std::printf("\n");
  for (std::uint64_t g : granularities) {
    std::printf("%9llu K ", static_cast<unsigned long long>(g / 1024));
    for (std::uint32_t b : buffer_counts) {
      const Cell c = RunWriters(b, g);
      std::printf(" | %6.0f %4.2f %4llu", c.mibps, c.waf,
                  static_cast<unsigned long long>(c.premature));
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading the table: sub-96 KiB writes are flushed prematurely on\n"
      "every zone switch and detour through SLC (WAF toward 1.5-2.0), and\n"
      "the damage scales with how many writers share a buffer — four\n"
      "buffers absorb four writers, two leave the same-parity pairs\n"
      "fighting (Fig. 6b), one serializes everyone. Past the programming\n"
      "unit the conflict flush is nearly free regardless of pool size\n"
      "(§II-B, §IV-C).\n");
  return 0;
}
