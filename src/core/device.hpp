// ConZoneDevice — the consumer-grade zoned flash storage emulator
// (paper §III, Fig. 2).
//
// Wires every substrate together into the three paths:
//
//   Write (§III-B, Fig. 3): requests land in the zone's shared write
//   buffer (zone mod #buffers). A write to a zone whose buffer holds
//   another zone's data forces a *premature flush* of that data. Flushes
//   program whole one-shot units into the zone's reserved normal blocks
//   (①); sub-unit remainders are partial-programmed into the SLC
//   secondary buffer (②); once enough data accumulates, staged SLC data
//   is read back, invalidated and folded into a normal-block program
//   (③). The zone tail past the reserved capacity — the non-power-of-two
//   patch (§III-E) — is written as a contiguous SLC run when the zone
//   completes.
//
//   Read (§III-C, Fig. 4): the L2P cache is probed LZA → LCA → LPA; on a
//   miss the mapping entries are fetched from metadata flash pages
//   according to the configured search strategy, the data page is read,
//   and the cache is refilled. Data still in the volatile write buffer is
//   served from RAM.
//
//   Erase (§III-D): zone reset directly erases the zone's reserved
//   normal blocks and invalidates its SLC-resident slots; the SLC region
//   itself is reclaimed by the composite garbage collector.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "buffer/write_buffer.hpp"
#include "common/fastdiv.hpp"
#include "core/config.hpp"
#include "core/recovery.hpp"
#include "core/storage_device.hpp"
#include "core/zone_layout.hpp"
#include "fault/fault_model.hpp"
#include "flash/array.hpp"
#include "flash/page_groups.hpp"
#include "flash/slc_allocator.hpp"
#include "flash/superblock.hpp"
#include "flash/timing_engine.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/l2p_log.hpp"
#include "ftl/mapping.hpp"
#include "ftl/translator.hpp"
#include "gc/page_log.hpp"
#include "gc/slc_gc.hpp"
#include "sim/resource.hpp"
#include "zns/zone.hpp"

namespace conzone {

/// Device-level counters beyond the per-module statistics.
struct ConZoneStats {
  std::uint64_t host_bytes_written = 0;
  std::uint64_t host_bytes_read = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t zone_resets = 0;
  std::uint64_t host_flushes = 0;  ///< Explicit host Flush/FUA commands.
  std::uint64_t flushes = 0;            ///< Write-buffer extents flushed.
  std::uint64_t premature_flushes = 0;  ///< Flushes that staged data to SLC.
  std::uint64_t conflict_flushes = 0;   ///< Forced by zone-buffer conflicts.
  std::uint64_t folds = 0;              ///< SLC read-back + normal program events.
  std::uint64_t fold_slots_read = 0;    ///< 4 KiB slots read back from SLC.
  std::uint64_t buffer_ram_reads = 0;   ///< Read slots served from the write buffer.
  std::uint64_t patch_runs = 0;         ///< Zone-tail SLC patch programs (§III-E).
  std::uint64_t aggregates_chunk = 0;
  std::uint64_t aggregates_zone = 0;
  std::uint64_t aggregation_breaks = 0;  ///< Aggregates undone by GC moves.
  std::uint64_t conventional_writes = 0;   ///< In-place writes (§III-E ext.).
  // The conventional zones' page log counts these (PageLogStats).
  std::uint64_t conventional_overwrites = 0;
  std::uint64_t conventional_gc_runs = 0;
  std::uint64_t conventional_gc_migrated = 0;
};

class ConZoneDevice final : public StorageDevice, private PhysicalResolver {
 public:
  static Result<std::unique_ptr<ConZoneDevice>> Create(const ConZoneConfig& config);

  DeviceInfo info() const override;

  Result<IoResult> Write(const IoRequest& req) override;
  Result<IoResult> Read(const IoRequest& req) override;
  Result<SimTime> ResetZone(ZoneId zone, SimTime now) override;
  Result<SimTime> Flush(SimTime now) override;
  StatsSnapshot Stats() const override;
  ReliabilityStats Reliability() const override { return array_.reliability(); }
  RecoveryStats Recovery() const override { return recovery_; }

  /// Zone management of sequential zones. All three refuse while powered
  /// off and on conventional zones, which have no zone state.
  Result<SimTime> FinishZone(ZoneId zone, SimTime now);
  Status OpenZone(ZoneId zone);
  Status CloseZone(ZoneId zone);

  // --- Power loss (requires fault.power_loss / a cut schedule) ---

  /// Cut power at simulated time `cut_time`. All volatile state dies:
  /// write-buffer SRAM, the unflushed (or in-flight) L2P log tail, the
  /// L2P cache, and every media batch whose program had not completed on
  /// the die — per the journal's point-of-no-return rule (see
  /// FlashArray). `cut_time` must not precede the last host submission
  /// (the device cannot retroactively lose an op it has not issued yet).
  /// After PowerCut only Recover() is accepted.
  Status PowerCut(SimTime cut_time);

  /// Remount after a cut (recovery.hpp): re-erase torn blocks, rebuild
  /// the L2P table from the newest checkpoint image and the OOB of the
  /// blocks programmed after it (replaying the lost log), reconcile every
  /// zone's write pointer with durable content, drop unreachable orphan
  /// slots, rebuild free lists / allocators, and recompute read-only
  /// state. Returns the simulated remount completion time; the device
  /// accepts host ops again from then on.
  Result<SimTime> Recover(SimTime now);

  /// True between PowerCut() and a successful Recover().
  bool powered_off() const { return powered_off_; }
  const RecoveryStats& recovery_stats() const { return recovery_; }

  /// Latest host submission time — the earliest instant PowerCut()
  /// accepts (it refuses to retroactively lose an op already issued).
  /// Cut schedulers clamp forward with Later(cut, last_submit()).
  SimTime last_submit() const { return last_submit_; }

  /// Force a checkpoint image right now (tests and studies; the policy
  /// hooks in MaybeFlushL2pLog / Flush cover normal operation). Flushes
  /// the L2P log tail first so the interval accounting stays coherent.
  /// Requires checkpoint.enabled.
  Result<SimTime> CheckpointNow(SimTime now);
  const CheckpointStore& checkpoint_store() const { return ckpt_; }
  /// Test hook (round-trip/corruption suites mutate slots directly).
  CheckpointStore& mutable_checkpoint_store() { return ckpt_; }
  /// The image the device would commit now under sequence number `seq`,
  /// built from scratch: one ForEachMapped walk of the whole table and
  /// one reconcile per zone. The incremental builder in WriteCheckpoint
  /// must match it byte for byte; tests hold it to that.
  std::vector<std::uint8_t> CheckpointBlobForTest(std::uint64_t seq) const;

  // --- Introspection (tests, benches, examples) ---
  const ConZoneConfig& config() const { return cfg_; }
  const ZoneLayout& layout() const { return layout_; }
  const ZoneManager& zones() const { return zones_; }
  const WriteBufferPool& buffers() const { return buffers_; }
  const MappingTable& mapping() const { return table_; }
  const L2PCache& l2p_cache() const { return cache_; }
  const Translator& translator() const { return translator_; }
  const SlcGarbageCollector& gc() const { return gc_; }
  const L2pLog& l2p_log() const { return l2p_log_; }
  std::uint32_t num_conventional_zones() const { return cfg_.num_conventional_zones; }
  const FlashArray& array() const { return array_; }
  /// Device counters, the conventional zones' page log folded in.
  ConZoneStats stats() const;
  const MediaCounters& media_counters() const { return array_.counters(); }
  const FaultModel& fault_model() const { return fault_; }
  /// True once the device has latched read-only mode (healthy SLC spare
  /// fell below the configured floor). Writes fail, reads keep working.
  bool read_only() const { return read_only_; }

  /// Current L2P miss rate as seen by the translator.
  double L2pMissRate() const { return translator_.stats().MissRate(); }
  void ResetStats();

 private:
  explicit ConZoneDevice(const ConZoneConfig& config);

  /// The pre-IoRequest write/read bodies; the virtual overrides unpack
  /// the request and delegate here.
  Result<SimTime> WriteImpl(std::uint64_t offset, std::uint64_t len, SimTime now,
                            std::span<const std::uint64_t> tokens);
  Result<SimTime> ReadImpl(std::uint64_t offset, std::uint64_t len, SimTime now,
                           std::vector<std::uint64_t>* tokens_out);
  /// Serve the slots after `lpn` (zone-relative byte `off_in_zone`,
  /// just read from `ppn` through an aggregated cache hit at `gran`) that
  /// the same entry covers, up to zone-relative byte `req_end`. Returns
  /// how many slots it served, books their translations as repeated
  /// hits, and fails like ReadImpl on a stale slot.
  Result<std::uint64_t> ReadAggregatedRun(ZoneId zone, std::uint64_t off_in_zone,
                                          std::uint64_t req_end, Lpn lpn, Ppn ppn,
                                          MapGranularity gran, SimTime t0,
                                          std::vector<std::uint64_t>* tokens_out);

  /// Where a sequential zone's durable data lives (§III-B, §III-E): what
  /// the write path keeps, a reconcile derives from the mapping and a
  /// checkpoint snapshot records.
  struct ZoneFacts {
    /// Zone-relative bytes durably placed in the reserved normal blocks
    /// (always a prefix, always unit-aligned below the patch boundary).
    std::uint64_t durable_normal_end = 0;
    /// Zone-relative bytes durable anywhere (normal + SLC staging). The
    /// half-open range [durable_normal_end, staged_end) lives in SLC.
    std::uint64_t staged_end = 0;
    /// First slot of the zone's SLC patch run, once programmed.
    Ppn patch_start;
    /// A reserved normal block failed a program (or was already retired):
    /// part of the zone's "normal" range actually lives in SLC under page
    /// mapping, so no FURTHER aggregation may be stamped. Chunks stamped
    /// before the failure remain layout-resident and stay valid.
    bool degraded = false;
    bool patch_contiguous = false;
  };

  /// Per-zone write-path runtime: the facts plus what is stamped so far.
  struct ZoneRuntime : ZoneFacts {
    /// Chunks stamped as aggregated so far (from chunk 0 upward).
    std::uint32_t chunks_aggregated = 0;
    bool zone_aggregated = false;
  };

  /// The aggregation rule (§III-C, Fig. 5 ②): whole chunks of the
  /// durable normal prefix aggregate at chunk granularity; a complete
  /// zone whose patch (if any) is one contiguous SLC run lifts to the
  /// configured maximum. A degraded zone aggregates nothing.
  Aggregation AggregationOf(const ZoneFacts& facts) const;
  /// Pin the resolver entries of chunks [from, to) of `zone` in the L2P
  /// cache; their map bits are the caller's.
  void PinChunks(ZoneId zone, std::uint32_t from, std::uint32_t to);

  // PhysicalResolver: aggregated-entry address computation over the
  // reserved layout (normal region) and the patch run (SLC).
  std::optional<Ppn> ResolveAggregated(MapGranularity gran, std::uint64_t unit_index,
                                       Lpn lpn) const override;

  SimDuration HostTransferTime(std::uint64_t bytes) const;
  Lpn ZoneBaseLpn(ZoneId zone) const;
  std::uint64_t LpnsPerZone() const { return lpns_per_zone_; }
  /// Conventional and sequential zones.
  std::uint32_t NumZones() const { return cfg_.num_conventional_zones + layout_.num_zones(); }

  using FlushResult = FlushTimes;

  /// Flush one buffer extent through the §III-B decision tree.
  Result<FlushResult> FlushExtent(BufferedExtent extent, SimTime now);
  /// Every flush ends here: keep the SLC region ahead of demand (GC is
  /// foreground: host requests wait for it), block on a full L2P log,
  /// and advance the media horizon.
  Result<FlushResult> FinishFlush(FlushResult done);

  /// Program the zone tail [normal_bytes, zone_bytes) as one contiguous
  /// SLC run, folding in any staged pieces. `extent` supplies the slots
  /// not yet staged.
  Result<FlushResult> ProgramPatchRun(ZoneId zone, ZoneRuntime& zr,
                                      const BufferedExtent& extent, SimTime now);

  /// Stage `data` in SLC under page mapping: program it issued at
  /// `issue`, remap every lpn to its new copy, and stamp the journal
  /// entries since `mark` with the window from `stamp_from` to the end of
  /// the program. The ppns stay valid until the next SLC program.
  Result<SlcAllocator::Timed> StageInSlc(std::span<const SlotWrite> data,
                                         std::uint64_t mark, SimTime stamp_from,
                                         SimTime issue);

  /// Point `lpn` at its new page-mapped copy `ppn`: the table, the L2P
  /// cache and the L2P log.
  void RemapPage(Lpn lpn, Ppn ppn) {
    table_.Set(lpn, ppn);
    cache_.Erase(L2pKey{MapGranularity::kPage, lpn.value()});
    l2p_log_.Append(1);
  }

  /// Lazily latch read-only mode when the healthy SLC spare drops below
  /// the configured floor. Called at the top of every write.
  bool InReadOnly();

  /// Read staged SLC slots for zone-relative range [begin, end); groups
  /// by flash page, invalidates them, appends their data to `out`.
  Result<SimTime> ReadBackStaged(ZoneId zone, std::uint64_t begin, std::uint64_t end,
                                 std::vector<SlotWrite>& out, SimTime now);

  /// Stamp newly completed chunks / the zone aggregate (§III-C Fig. 5 ②).
  /// With `table_prestamped`, the per-entry map bits were already written
  /// by the mount's bulk install — only the runtime counters, resolver
  /// pins and stats are (re)generated, skipping the table pass.
  void UpdateAggregation(ZoneId zone, ZoneRuntime& zr,
                         bool table_prestamped = false);

  /// GC remap hook: fix mapping, cache, and any aggregation the move broke.
  void OnGcRemap(Lpn lpn, Ppn old_ppn, Ppn new_ppn);

  /// §III-E extension: flush the L2P log to metadata flash when it is
  /// full; the caller's operation blocks until the program completes.
  /// With `force`, also drains a below-threshold tail (host Flush/FUA).
  SimTime MaybeFlushL2pLog(SimTime now, bool force = false);

  /// Serialize mapping + zone WPs + free lists into a checkpoint image,
  /// charge its media cost (slot erase + chunked programs), and commit it
  /// to the ping-pong store. Returns the image's media completion time.
  /// Only zones the table marks changed are re-walked and re-reconciled;
  /// the rest come from zone_images_.
  SimTime WriteCheckpoint(SimTime now);
  /// Append the free-list snapshots every image ends with.
  void AddFreeLists(CheckpointImage& img) const;

  /// Zone-management check: `zone` exists and is sequential (`op` names
  /// the command in the error).
  Status CheckSequentialZone(ZoneId zone, const char* op) const;

  /// Host-op prologue: refuse ops while powered off, advance the
  /// last-submission watermark, and prune journal/log state that a
  /// future cut can no longer reach.
  Status BeginHostOp(SimTime now);

  // --- Power-loss recovery (recovery.cpp) ---
  /// Image load: decode the newest valid checkpoint image into `ms` and
  /// charge its read, striped over the chips from `now`. Returns when the
  /// read ends (`now` without an image).
  SimTime LoadImage(MountState& ms, SimTime now);
  /// Zone restore: every zone takes its reconcile from its snapshot when
  /// `ms` restores it from one, else from the mapping; drops its orphans,
  /// re-stamps its aggregation and restores its zone state.
  Status RestoreZones(const MountState& ms);
  /// The mount gates: the valid slots and the per-zone mapped counts both
  /// add up to the table's mapped count.
  Status CheckMountGates() const;
  /// Pure zone reconciliation over the current mapping: the write-
  /// pointer / staging / patch facts, with no side effects. Shared by the
  /// zone restore (which additionally invalidates orphans and restores
  /// runtime) and WriteCheckpoint (which snapshots the result into
  /// ZoneSnap records).
  struct ZoneReconcile : ZoneFacts {
    /// Mapped lpns exist past staged_end (islands the mount path must
    /// invalidate); such a zone is never checkpoint-restorable.
    bool has_orphans = false;
  };
  ZoneReconcile ReconcileZoneMapping(ZoneId zone) const;
  /// Zone `zone`'s image record: its reconcile (sequential zones only)
  /// against the live write pointer.
  ZoneSnap SnapZone(ZoneId zone, const ZoneReconcile& rec) const;
  /// The facts a restorable snapshot records (its inverse): the staged
  /// extent ends at the write pointer.
  static ZoneFacts FactsOfSnap(const ZoneSnap& snap);

  // --- Conventional zones (§III-E extension) ---
  bool IsConventional(ZoneId zone) const {
    return zone.value() < cfg_.num_conventional_zones;
  }
  /// Layout index of a sequential zone (conventional zones precede them
  /// in the device's zone numbering).
  ZoneId SeqZone(ZoneId zone) const {
    return ZoneId{zone.value() - cfg_.num_conventional_zones};
  }
  /// Buffer a conventional zone's write through the page log; out of
  /// line, so the sequential write path stays compact.
  Result<SimTime> WriteInPlace(ZoneId zone, Lpn first, std::uint64_t nslots,
                               std::span<const std::uint64_t> tokens, SimTime t);
  /// Dispatch a flush by the owning zone's type.
  Result<FlushResult> FlushAny(BufferedExtent extent, SimTime now);
  /// Flush a conventional zone's extent into the page log, then collect
  /// the pool when its free list runs low.
  Result<FlushResult> FlushConventional(const BufferedExtent& extent, SimTime now);
  Result<SimTime> ResetConventionalZone(ZoneId zone, SimTime now);
  /// SLC-GC eviction target: relocate conventional slots to the pool
  /// (conventional data has no fold-back to drain it from SLC).
  Result<SimTime> EvictConventionalFromSlc(std::vector<SlotWrite> slots,
                                           SimTime reads_done);

  ConZoneConfig cfg_;
  ZoneLayout layout_;
  FaultModel fault_;  ///< Before array_: attached to it during construction.
  FlashArray array_;
  FlashTimingEngine engine_;
  SuperblockPool pool_;
  SlcAllocator slc_alloc_;
  WriteBufferPool buffers_;
  ZoneManager zones_;
  MappingTable table_;
  L2PCache cache_;
  Translator translator_;
  SlcGarbageCollector gc_;
  ResourceTimeline host_link_;
  L2pLog l2p_log_;
  std::uint32_t l2p_log_chip_ = 0;  ///< Round-robin metadata program target.
  CheckpointStore ckpt_;            ///< Ping-pong checkpoint slots (§12).
  std::uint32_t ckpt_chip_ = 0;     ///< Round-robin checkpoint program target.
  /// Per-zone image cache (§12): the zone's maximal (lpn, ppn) runs and
  /// its reconcile as of the last image that walked it, or as seeded by
  /// the mount that restored it. Valid while the table leaves the zone
  /// unchanged.
  struct ZoneImage {
    std::vector<MapRun> runs;
    ZoneReconcile rec;
  };
  std::vector<ZoneImage> zone_images_;
  /// Runs of the image the last mount replayed, until the next image
  /// takes the restored zones' runs from them.
  std::vector<MapRun> mount_runs_;
  /// L2P-log entries flushed since the last checkpoint image — the
  /// interval policy counter. Survives cuts on purpose: the un-imaged
  /// tail is still un-imaged after a remount.
  std::uint64_t flushed_entries_since_ckpt_ = 0;

  std::vector<ZoneRuntime> runtime_;
  std::vector<SimTime> buffer_ready_;  ///< Per-buffer flush completion.
  /// The conventional zones' FTL: page-mapped in-place log over the pool.
  PageLog conv_log_;
  /// Device-level counters; stats() folds in conv_log_'s.
  ConZoneStats stats_;
  /// Successful reads/writes bucketed by IoRequest::io_class.
  std::array<std::uint64_t, kNumIoClasses> class_reads_{};
  std::array<std::uint64_t, kNumIoClasses> class_writes_{};
  bool read_only_ = false;  ///< Latched by InReadOnly(); reads still serve.

  // --- Power-loss state ---
  bool powered_off_ = false;
  /// Latest host submission time seen; a PowerCut may not precede it,
  /// which is also what lets the journal prune entries older than it.
  SimTime last_submit_;
  /// Max media completion time of any program issued so far. Flush must
  /// wait for it: a buffer can be empty while its last background
  /// flush's pulse is still in flight, and durability means the pulse
  /// ended (that gap is exactly what a cut between the two exposes).
  SimTime media_horizon_;
  /// Blocks whose erase the last cut tore; Recover() re-erases them.
  std::vector<BlockId> reerase_pending_;
  /// Blocks the cut's undo pass revived older state in; a checkpoint-
  /// bounded scan must read them even below the watermark.
  std::vector<BlockId> rescan_pending_;
  /// When the last cut landed — the checkpoint-age reference point.
  SimTime last_cut_time_;
  RecoveryStats recovery_;

  // Per-request scratch buffers: Read/Write never recurse into
  // themselves, so reusing these keeps the per-IO paths allocation-free
  // after warm-up (capacity is retained across requests).
  PageGrouper read_groups_;              ///< Read()
  std::vector<SlotWrite> chunk_scratch_; ///< Write()

  // Reciprocals of the configuration constants the per-IO paths divide
  // by (the hardware divider is a measurable fraction of an emulated IO).
  FastDiv div_slot_;            ///< geometry.slot_size
  FastDiv div_zone_;            ///< zone_size_bytes
  FastDiv div_slots_per_page_;  ///< geometry.SlotsPerPage()
  FastDiv div_lpns_per_zone_;   ///< zone_size / slot_size
  FastDiv div_host_bw_;         ///< host_link_bandwidth_bps
  std::uint64_t lpns_per_zone_ = 0;
};

}  // namespace conzone
