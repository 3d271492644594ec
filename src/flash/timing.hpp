// Media timing model (paper Table II) and channel transfer model.
//
// Latencies default to the published numbers the paper adopts:
//
//              SLC          TLC            QLC
//   Program    75 us [27]   937.5 us [28]  6400 us [29]
//   Read       20 us        32 us [28]     85 us [29]
//
// Erase times are not in Table II; we use typical 3D NAND block erase
// figures (3.5 ms) — they only matter for GC and zone-reset costs.
// The channel model is a shared bus per channel at a configurable
// bandwidth (default 3200 MiB/s, the UFS 4.0-derived figure from §IV-A).
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "common/units.hpp"
#include "flash/cell.hpp"

namespace conzone {

/// Program-suspend-to-read: mobile NAND lets a read preempt an ongoing
/// program or erase pulse at this fixed penalty instead of queueing
/// behind it, so the fold-back path (§III-B ③) does not serialize behind
/// every in-flight one-shot program.
inline constexpr SimDuration kReadSuspendPenalty = SimDuration::Micros(40);

/// The host link (UFS) of ConZone and Legacy: the bandwidth request
/// payloads cross it at, and the fixed firmware/submission overhead
/// charged per request.
inline constexpr std::uint64_t kHostLinkBandwidthBps = 4200 * kMiB;
inline constexpr SimDuration kRequestOverhead = SimDuration::Micros(15);

/// Time to move `bytes` over the host link. Request sizes keep
/// bytes * 1e9 inside 64 bits, where dividing by the constant bandwidth
/// compiles to a multiply; only absurd sizes take the 128-bit path.
constexpr SimDuration HostTransferTime(std::uint64_t bytes) {
  if (bytes <= UINT64_MAX / 1000000000ull) {
    return SimDuration::Nanos(bytes * 1000000000ull / kHostLinkBandwidthBps);
  }
  return SimDuration::Nanos(static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(bytes) * 1000000000ull / kHostLinkBandwidthBps));
}

struct MediaTiming {
  SimDuration read_latency;
  SimDuration program_latency;
  SimDuration erase_latency;
};

struct TimingConfig {
  MediaTiming slc{SimDuration::Micros(20), SimDuration::Micros(75),
                  SimDuration::Millis(3)};
  MediaTiming tlc{SimDuration::Micros(32), SimDuration::MicrosF(937.5),
                  SimDuration::MicrosF(3500)};
  MediaTiming qlc{SimDuration::Micros(85), SimDuration::Micros(6400),
                  SimDuration::MicrosF(3500)};

  /// Channel (flash bus) bandwidth in bytes/second. §IV-A: 3200 MiB/s.
  std::uint64_t channel_bandwidth_bps = 3200 * kMiB;

  const MediaTiming& For(CellType t) const {
    switch (t) {
      case CellType::kSlc: return slc;
      case CellType::kTlc: return tlc;
      case CellType::kQlc: return qlc;
    }
    return slc;
  }

  /// Time to move `bytes` over one channel.
  SimDuration TransferTime(std::uint64_t bytes) const {
    if (channel_bandwidth_bps == 0) return SimDuration();  // ideal bus (FEMU mode)
    // ns = bytes / (B/s) * 1e9. Transfers are at most a few MiB, so the
    // product fits in 64 bits and the (much cheaper) 64-bit divider
    // gives the same result; only absurd sizes take the 128-bit path.
    if (bytes <= UINT64_MAX / 1000000000ull) {
      return SimDuration::Nanos(bytes * 1000000000ull / channel_bandwidth_bps);
    }
    const unsigned __int128 ns =
        static_cast<unsigned __int128>(bytes) * 1000000000ull / channel_bandwidth_bps;
    return SimDuration::Nanos(static_cast<std::uint64_t>(ns));
  }
};

}  // namespace conzone
