// Flash operation scheduling on contended chip/channel resources.
//
// Each die and each channel bus is a ResourceTimeline. Operations are
// scheduled with the classic ordering:
//
//   read:    [chip: sense tR] -> [channel: transfer out] (chip holds its
//            data register until the transfer drains);
//   program: [channel: transfer in] -> [chip: program tPROG];
//   erase:   [chip: tERASE].
//
// Ops on different chips overlap freely; the two chips of one channel
// contend for the bus — which is exactly the mechanism that lets a
// superpage flush engage all four chips in parallel (paper §II-A) while
// the 3200 MiB/s UFS-class bus still bounds burst transfer rates.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "flash/geometry.hpp"
#include "flash/timing.hpp"
#include "sim/resource.hpp"

namespace conzone {

class FlashTimingEngine {
 public:
  FlashTimingEngine(const FlashGeometry& geometry, const TimingConfig& timing);

  /// Reliability sink for recovery-time accounting (read-retry re-senses,
  /// burned pulses). Null (default) skips the bookkeeping.
  void AttachReliability(ReliabilityStats* rel) { rel_ = rel; }

  /// Sense one page of `cell` media on `chip` and stream `bytes` out over
  /// the chip's channel. Returns the completion time. `retries` is the
  /// page's read-retry level: each step repeats the sense with shifted
  /// reference voltages, so the die stays busy (1 + retries) x tR.
  SimTime ReadPage(ChipId chip, CellType cell, std::uint64_t bytes, SimTime issue,
                   std::uint32_t retries = 0);

  struct ProgramResult {
    /// When the source buffer is drained (data fully streamed into the
    /// die's register) — the write-buffer SRAM is reusable from here.
    SimTime data_in;
    /// When the program pulse finishes (data durable on media).
    SimTime end;
  };
  /// Stream `bytes` to `chip` and run one program pulse of `cell` media.
  ProgramResult Program(ChipId chip, CellType cell, std::uint64_t bytes, SimTime issue);

  /// Fold-back program (§III-B ③): `fresh_bytes` come from the write
  /// buffer (available at `fresh_ready`, and releasing it at data_in),
  /// the rest from SLC read-back completing at `staged_ready`.
  ProgramResult ProgramFold(ChipId chip, CellType cell, std::uint64_t total_bytes,
                            std::uint64_t fresh_bytes, SimTime fresh_ready,
                            SimTime staged_ready);

  SimTime Erase(ChipId chip, CellType cell, SimTime issue);

  const TimingConfig& timing() const { return timing_; }

 private:
  /// Channel bus serving `chip` (chip→channel mapping is fixed at
  /// construction; indexing a table beats re-dividing per operation).
  ResourceTimeline& BusOf(ChipId chip) {
    return channels_[bus_of_chip_[static_cast<std::size_t>(chip.value())]];
  }

  /// TimingConfig::TransferTime with the bandwidth division answered by
  /// the precomputed reciprocal (one transfer per flash op adds up).
  SimDuration XferTime(std::uint64_t bytes) const {
    if (timing_.channel_bandwidth_bps == 0) return SimDuration();
    if (bytes <= UINT64_MAX / 1000000000ull) {
      return SimDuration::Nanos(div_bw_.Div(bytes * 1000000000ull));
    }
    return timing_.TransferTime(bytes);
  }

  FlashGeometry geo_;
  TimingConfig timing_;
  std::vector<ResourceTimeline> chips_;       ///< Program/erase path per die.
  std::vector<ResourceTimeline> chip_reads_;  ///< Suspend-mode read path per die.
  std::vector<ResourceTimeline> channels_;
  std::vector<std::uint32_t> bus_of_chip_;    ///< chip -> index in channels_
  FastDiv div_bw_;                            ///< timing_.channel_bandwidth_bps
  ReliabilityStats* rel_ = nullptr;           ///< Recovery-time sink (optional).
  /// Start time of each die's most recent program pulse. The die's single
  /// cache register frees when the pulse latches it into the array, so
  /// the *next* program's transfer may begin then — one-deep pipelining,
  /// which is what bounds host-visible write throughput to the pulse
  /// cadence instead of RAM speed.
  std::vector<SimTime> last_pulse_start_;
};

}  // namespace conzone
