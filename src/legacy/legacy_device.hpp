// Legacy baseline — traditional consumer-grade flash storage (§II-A,
// §IV-A).
//
// The paper's evaluation re-implements the conventional device described
// by ZMS to quantify what the zone abstraction buys. Differences from
// ConZone:
//
//   - no zones: the host may update any 4 KiB page in place; the FTL is
//     a pure page-mapping table over a log-structured normal region;
//   - the L2P cache holds only page-granularity entries, with a
//     sequential prefetch window (1023 entries, §IV-C) to help streaming
//     reads;
//   - the device runs full garbage collection over BOTH regions: valid
//     data must be migrated before any block is erased — the lifetime
//     cost the zone abstraction eliminates (§I, Fig. 1 E.1/E.2);
//   - over-provisioning: only part of the normal region is host-visible,
//     the rest is GC headroom.
//
// The write buffer, SLC secondary buffer, media, and timing model are
// identical to ConZone's, as in the paper's comparison; the FTL is the
// page log ConZone's conventional zones use (gc/page_log.hpp), here over
// the whole normal region.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/write_buffer.hpp"
#include "core/storage_device.hpp"
#include "flash/array.hpp"
#include "flash/page_groups.hpp"
#include "flash/slc_allocator.hpp"
#include "flash/superblock.hpp"
#include "flash/timing_engine.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/mapping.hpp"
#include "ftl/translator.hpp"
#include "gc/page_log.hpp"
#include "sim/resource.hpp"

namespace conzone {

struct LegacyConfig {
  FlashGeometry geometry;
  TimingConfig timing;
  /// Same buffer SRAM budget as ConZone (two superpage buffers); the
  /// Legacy controller assigns them to detected write streams.
  WriteBufferConfig buffers{/*num_buffers=*/2, /*buffer_bytes=*/384 * kKiB};
  L2pCacheConfig l2p;

  Status Validate() const;
};

struct LegacyStats {
  std::uint64_t host_bytes_written = 0;
  std::uint64_t host_bytes_read = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t host_flushes = 0;  ///< Explicit host Flush/FUA commands.
  // The page log counts the rest (PageLogStats).
  std::uint64_t flushes = 0;
  std::uint64_t premature_flushes = 0;
  std::uint64_t buffer_ram_reads = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_slots_migrated = 0;
  std::uint64_t overwrites = 0;  ///< In-place updates (invalidations).
};

class LegacyDevice final : public StorageDevice {
 public:
  static Result<std::unique_ptr<LegacyDevice>> Create(const LegacyConfig& config);

  DeviceInfo info() const override;
  Result<IoResult> Write(const IoRequest& req) override;
  Result<IoResult> Read(const IoRequest& req) override;
  Result<SimTime> Flush(SimTime now) override;
  StatsSnapshot Stats() const override;
  ReliabilityStats Reliability() const override { return array_.reliability(); }

  const LegacyConfig& config() const { return cfg_; }
  /// Device counters, the page log's folded in.
  LegacyStats stats() const;
  const MediaCounters& media_counters() const { return array_.counters(); }
  const Translator& translator() const { return translator_; }
  const L2PCache& l2p_cache() const { return cache_; }
  void ResetStats();

 private:
  explicit LegacyDevice(const LegacyConfig& config);

  /// The pre-IoRequest write/read bodies; the virtual overrides unpack
  /// the request and delegate here.
  Result<SimTime> WriteImpl(std::uint64_t offset, std::uint64_t len, SimTime now,
                            std::span<const std::uint64_t> tokens);
  Result<SimTime> ReadImpl(std::uint64_t offset, std::uint64_t len, SimTime now,
                           std::vector<std::uint64_t>* tokens_out);

  /// Place a buffer extent into the log, then run GC where it is due.
  Result<FlushTimes> FlushExtent(const BufferedExtent& extent, SimTime now);

  /// No aggregated entries exist under page mapping.
  class NullResolver : public PhysicalResolver {
   public:
    std::optional<Ppn> ResolveAggregated(MapGranularity, std::uint64_t,
                                         Lpn) const override {
      return std::nullopt;
    }
  };

  LegacyConfig cfg_;
  std::uint64_t usable_bytes_;
  FlashArray array_;
  FlashTimingEngine engine_;
  SuperblockPool pool_;
  SlcAllocator slc_alloc_;
  WriteBufferPool buffers_;
  MappingTable table_;
  L2PCache cache_;
  NullResolver resolver_;
  Translator translator_;
  ResourceTimeline host_link_;
  std::vector<SimTime> buffer_ready_;
  PageLog log_;  ///< The page-mapped FTL over the normal region.
  PageGrouper read_groups_;  ///< Read() scratch, reused across requests
  LegacyStats stats_;  ///< Device-level counters; stats() adds log_'s.
  /// Successful reads/writes bucketed by IoRequest::io_class.
  std::array<std::uint64_t, kNumIoClasses> class_reads_{};
  std::array<std::uint64_t, kNumIoClasses> class_writes_{};
};

}  // namespace conzone
