// Abstract storage device driven by the workload runner.
//
// All devices in this repository (ConZone, the Legacy baseline, the
// FEMU-model baseline, and host-side compositions such as StripedVolume)
// implement this synchronous simulated-time interface: an operation
// submitted at simulated time `now` returns its completion time.
// Concurrency (multi-threaded FIO jobs) is created by the caller
// interleaving submissions in time order; the devices' internal resource
// timelines serialize contended hardware.
//
// Capability discovery is data, not error codes: a host layer decides
// how to place and route I/O from `DeviceInfo` (zoned vs conventional,
// zone geometry, open/active limits, SLC staging capacity) — it must
// never probe by issuing an op and sniffing for kUnimplemented.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"

namespace conzone {

/// Coarse serviceability of a device, surfaced through DeviceInfo so a
/// redundancy layer can route around a dead or write-refusing member
/// without probing by error code. Like the zoned() capability, this is
/// data the host plans against, not a status to sniff mid-IO.
enum class DeviceHealth {
  kHealthy,   ///< Accepts reads and writes.
  kReadOnly,  ///< Reads serve; writes are refused (e.g. spare floor hit).
  kOffline,   ///< No ops serve (e.g. powered off awaiting Recover()).
};

struct DeviceInfo {
  std::string name;
  std::uint64_t capacity_bytes = 0;   ///< Host-visible logical capacity.
  /// 0 for conventional devices — the one conventional signal callers
  /// gate zone handling on (never on ResetZone's error code).
  std::uint64_t zone_size_bytes = 0;
  std::uint32_t num_zones = 0;
  /// Leading zones that accept in-place updates (ConZone §III-E
  /// extension); 0 on purely sequential or purely conventional devices.
  std::uint32_t num_conventional_zones = 0;
  /// Zone-resource limits a host must plan placement around; 0 means
  /// unlimited (or non-zoned).
  std::uint32_t max_open_zones = 0;
  std::uint32_t max_active_zones = 0;
  /// Usable SLC staging capacity (secondary write buffer); 0 when the
  /// device has no low-latency staging media (e.g. the FEMU model).
  std::uint64_t slc_bytes = 0;
  std::uint64_t io_alignment = 4096;  ///< Required offset/length alignment.
  /// Current serviceability; devices without a failure model are always
  /// healthy.
  DeviceHealth health = DeviceHealth::kHealthy;

  bool zoned() const { return zone_size_bytes != 0; }
};

/// Who issued an I/O. Host layers tag their internal traffic so device
/// counters can attribute it instead of blending everything into the
/// foreground stream: a ZoneCache eviction that migrates live entries is
/// real device load, but it is not host load, and capacity planning needs
/// to see the two separately. Devices bucket per-class counters in
/// StatsSnapshot; the class never changes scheduling or timing.
enum class IoClass : std::uint8_t {
  kHostForeground = 0,  ///< Ordinary host I/O (the default).
  kCacheMigration = 1,  ///< Cache eviction/migration rewrites.
  kMaintenance = 2,     ///< Journals, scrub, verify, mount-time reads.
};
inline constexpr std::size_t kNumIoClasses = 3;

/// One host I/O, fully described. Replaces the growing default-argument
/// tail on Write/Read: future fields (priority, deadline, async
/// completion hooks) extend this struct instead of every signature.
struct IoRequest {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  SimTime now;  ///< Submission time.
  /// Writes: one integrity token per 4 KiB page (tests use this to
  /// verify end-to-end data paths); empty = the device stores a default
  /// token derived from the LPN.
  std::span<const std::uint64_t> tokens = {};
  /// Reads: fill IoResult::tokens with the stored token of each 4 KiB
  /// page. Off by default — the hot path stays allocation-free.
  bool want_tokens = false;
  /// Attribution class (see IoClass). Default-constructed requests are
  /// foreground and behave bit-identically to requests that predate the
  /// tag.
  IoClass io_class = IoClass::kHostForeground;
};

/// Completion of one host I/O.
struct IoResult {
  SimTime done;  ///< Completion time.
  /// Reads with want_tokens: stored token per 4 KiB page, request order.
  std::vector<std::uint64_t> tokens;
  /// Stripe units a redundancy layer had to serve from a fallback peer for
  /// this request (0 on bare devices and clean reads): the per-IO
  /// degraded-mode signal, mirrored in aggregate by RedundancyStats.
  std::uint32_t reconstructed_units = 0;
};

/// Uniform device counters every StorageDevice can report, so hosts,
/// examples and harnesses aggregate heterogeneous members without
/// downcasting to concrete device types. Counters a device does not
/// model stay zero.
struct StatsSnapshot {
  std::uint64_t host_bytes_written = 0;
  std::uint64_t host_bytes_read = 0;
  /// Bytes programmed to flash media (write amplification numerator).
  std::uint64_t flash_bytes_written = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t zone_resets = 0;
  std::uint64_t host_flushes = 0;    ///< Explicit host Flush/FUA commands.
  std::uint64_t buffer_flushes = 0;  ///< Write-buffer drain events.
  std::uint64_t premature_flushes = 0;
  std::uint64_t overwrites = 0;  ///< In-place updates (conventional space).
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_slots_migrated = 0;
  /// Per-IoClass breakdown of successful reads/writes (indexed by
  /// IoClass). Devices that predate the tag leave these zero. The sums
  /// stay <= the blended `reads`/`writes`, which also count requests
  /// that fail after admission (e.g. reads past a write pointer).
  std::array<std::uint64_t, kNumIoClasses> class_reads{};
  std::array<std::uint64_t, kNumIoClasses> class_writes{};

  double WriteAmplification() const {
    return host_bytes_written == 0
               ? 0.0
               : static_cast<double>(flash_bytes_written) /
                     static_cast<double>(host_bytes_written);
  }

  /// Fold another device's snapshot into this one (host-layer merge).
  void Merge(const StatsSnapshot& o) {
    host_bytes_written += o.host_bytes_written;
    host_bytes_read += o.host_bytes_read;
    flash_bytes_written += o.flash_bytes_written;
    writes += o.writes;
    reads += o.reads;
    zone_resets += o.zone_resets;
    host_flushes += o.host_flushes;
    buffer_flushes += o.buffer_flushes;
    premature_flushes += o.premature_flushes;
    overwrites += o.overwrites;
    gc_runs += o.gc_runs;
    gc_slots_migrated += o.gc_slots_migrated;
    for (std::size_t c = 0; c < kNumIoClasses; ++c) {
      class_reads[c] += o.class_reads[c];
      class_writes[c] += o.class_writes[c];
    }
  }

  bool operator==(const StatsSnapshot&) const = default;
};

class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  virtual DeviceInfo info() const = 0;

  /// Write req.len bytes at byte req.offset, submitted at req.now.
  virtual Result<IoResult> Write(const IoRequest& req) = 0;

  /// Read req.len bytes at req.offset; with req.want_tokens the result
  /// carries the stored token of each 4 KiB page.
  virtual Result<IoResult> Read(const IoRequest& req) = 0;

  /// Zoned devices: reset one zone. Conventional devices never implement
  /// this — but callers must decide zone handling from
  /// DeviceInfo::zone_size_bytes, not by probing for this error.
  virtual Result<SimTime> ResetZone(ZoneId zone, SimTime now) {
    (void)zone;
    (void)now;
    return Status::Unimplemented("device has no zones");
  }

  /// Flush all volatile write buffers to media.
  virtual Result<SimTime> Flush(SimTime now) { return now; }

  /// Uniform counters; see StatsSnapshot. Default: a device that tracks
  /// nothing reports zeros.
  virtual StatsSnapshot Stats() const { return {}; }

  /// Fault/recovery accounting; zero-filled on devices without a
  /// reliability model.
  virtual ReliabilityStats Reliability() const { return {}; }

  /// Power-loss/remount accounting (cuts survived, remount latency,
  /// checkpoint counters); zero-filled on devices without power-loss
  /// emulation. Hosts and harnesses aggregate this uniformly — no
  /// downcast to a concrete device type.
  virtual RecoveryStats Recovery() const { return {}; }
};

}  // namespace conzone
