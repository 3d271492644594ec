// FEMU-model baseline (paper §II-C, §IV-B).
//
// FEMU emulates a ZNS SSD inside a QEMU/KVM guest. The paper uses it to
// show why virtualization-based emulators cannot model consumer-grade
// zoned storage; this device reproduces FEMU's *behavioral profile*
// rather than its implementation:
//
//   - no channel-bandwidth model: data transfer over the flash bus is
//     free, so sequential writes come out slightly faster than the real
//     device (§IV-B);
//   - no FTL, L2P cache, or heterogeneous media in ZNS mode (Table I):
//     zones map directly onto flash, every read costs one uniform
//     multi-level-cell page sense;
//   - KVM host/guest switching injects tens of microseconds of latency
//     fluctuation on every I/O, which swamps flash-read-scale latencies
//     and makes low-latency (SLC) media impossible to emulate.
//
// It still keeps per-zone write buffers (Table I: FEMU supports write
// buffers) and honors ZNS write-pointer semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/storage_device.hpp"
#include "flash/geometry.hpp"
#include "flash/timing.hpp"
#include "flash/timing_engine.hpp"
#include "zns/zone.hpp"

namespace conzone {

struct FemuConfig {
  FlashGeometry geometry;
  TimingConfig timing;  ///< channel_bandwidth is forced to 0 (unmodeled).
  std::uint32_t max_open_zones = 6;
  std::uint32_t max_active_zones = 12;
  /// KVM exit latency fluctuation, uniform in [min, max], per request.
  SimDuration kvm_jitter_min = SimDuration::Micros(20);
  SimDuration kvm_jitter_max = SimDuration::Micros(80);
  /// Virtio/NVMe-over-QEMU software stack overhead per request.
  SimDuration request_overhead = SimDuration::Micros(25);
  std::uint64_t seed = 42;

  Status Validate() const;
};

struct FemuStats {
  std::uint64_t host_bytes_written = 0;
  std::uint64_t host_bytes_read = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t zone_resets = 0;
  std::uint64_t host_flushes = 0;  ///< Explicit host Flush/FUA commands.
  std::uint64_t superpage_programs = 0;
};

class FemuModelDevice final : public StorageDevice {
 public:
  static Result<std::unique_ptr<FemuModelDevice>> Create(const FemuConfig& config);

  DeviceInfo info() const override;
  Result<IoResult> Write(const IoRequest& req) override;
  Result<IoResult> Read(const IoRequest& req) override;
  Result<SimTime> ResetZone(ZoneId zone, SimTime now) override;
  Result<SimTime> Flush(SimTime now) override;
  StatsSnapshot Stats() const override;

  const FemuStats& stats() const { return stats_; }
  const FemuConfig& config() const { return cfg_; }

 private:
  explicit FemuModelDevice(const FemuConfig& config);

  /// The pre-IoRequest write/read bodies; the virtual overrides unpack
  /// the request and delegate here.
  Result<SimTime> WriteImpl(std::uint64_t offset, std::uint64_t len, SimTime now,
                            std::span<const std::uint64_t> tokens);
  Result<SimTime> ReadImpl(std::uint64_t offset, std::uint64_t len, SimTime now,
                           std::vector<std::uint64_t>* tokens_out);

  SimDuration Jitter();

  FemuConfig cfg_;
  std::uint64_t zone_bytes_;
  std::uint32_t num_zones_;
  FlashTimingEngine engine_;
  ZoneManager zones_;
  Rng rng_;
  std::vector<std::uint64_t> tokens_;    ///< Flat per-LPN payload store.
  std::vector<std::uint64_t> buffered_;  ///< Per-zone bytes not yet programmed.
  std::vector<SimTime> buffer_ready_;    ///< Per-zone flush completion.
  FemuStats stats_;
  /// Successful reads/writes bucketed by IoRequest::io_class.
  std::array<std::uint64_t, kNumIoClasses> class_reads_{};
  std::array<std::uint64_t, kNumIoClasses> class_writes_{};
};

}  // namespace conzone
