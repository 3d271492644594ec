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
#include "core/storage_device.hpp"
#include "core/zone_layout.hpp"
#include "fault/fault_model.hpp"
#include "flash/array.hpp"
#include "flash/normal_allocator.hpp"
#include "flash/page_groups.hpp"
#include "flash/slc_allocator.hpp"
#include "flash/superblock.hpp"
#include "flash/timing_engine.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/l2p_log.hpp"
#include "ftl/mapping.hpp"
#include "ftl/translator.hpp"
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
  std::uint64_t flushes = 0;
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

  Result<SimTime> FinishZone(ZoneId zone, SimTime now);
  Status OpenZone(ZoneId zone) { return zones_.ExplicitOpen(zone); }
  Status CloseZone(ZoneId zone) { return zones_.Close(zone); }

  // --- Power loss (requires fault.power_loss / a cut schedule) ---

  /// Cut power at simulated time `cut_time`. All volatile state dies:
  /// write-buffer SRAM, the unflushed (or in-flight) L2P log tail, the
  /// L2P cache, and every media batch whose program had not completed on
  /// the die — per the journal's point-of-no-return rule (see
  /// FlashArray). `cut_time` must not precede the last host submission
  /// (the device cannot retroactively lose an op it has not issued yet).
  /// After PowerCut only Recover() is accepted.
  Status PowerCut(SimTime cut_time);

  /// Remount after a cut: re-erase torn blocks, scan used blocks' OOB to
  /// rebuild the L2P table (replaying the lost log), reconcile every
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
  const FlashTimingEngine& engine() const { return engine_; }
  const ConZoneStats& stats() const { return stats_; }
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

  /// Per-zone write-path runtime (§III-B bookkeeping).
  struct ZoneRuntime {
    /// Zone-relative bytes durably placed in the reserved normal blocks
    /// (always a prefix, always unit-aligned below the patch boundary).
    std::uint64_t durable_normal_end = 0;
    /// Zone-relative bytes durable anywhere (normal + SLC staging). The
    /// half-open range [durable_normal_end, staged_end) lives in SLC.
    std::uint64_t staged_end = 0;
    /// Chunks stamped as aggregated so far (from chunk 0 upward).
    std::uint32_t chunks_aggregated = 0;
    /// First slot of the zone's SLC patch run, once programmed.
    Ppn patch_start;
    bool patch_contiguous = false;
    bool zone_aggregated = false;
    /// A reserved normal block failed a program (or was already retired):
    /// part of the zone's "normal" range actually lives in SLC under page
    /// mapping, so no FURTHER aggregation may be stamped. Chunks stamped
    /// before the failure remain layout-resident and stay valid.
    bool degraded = false;
  };

  // PhysicalResolver: aggregated-entry address computation over the
  // reserved layout (normal region) and the patch run (SLC).
  std::optional<Ppn> ResolveAggregated(MapGranularity gran, std::uint64_t unit_index,
                                       Lpn lpn) const override;

  SimDuration HostTransferTime(std::uint64_t bytes) const;
  Lpn ZoneBaseLpn(ZoneId zone) const;
  std::uint64_t LpnsPerZone() const { return lpns_per_zone_; }

  /// Two completion horizons of a flush: the write-buffer SRAM is free to
  /// accept new data once the flash transfers drain (`sram_free`); the
  /// data is durable once every program pulse finishes (`media_done`).
  struct FlushResult {
    SimTime sram_free;
    SimTime media_done;
  };

  /// Flush one buffer extent through the §III-B decision tree.
  Result<FlushResult> FlushExtent(BufferedExtent extent, SimTime now);

  /// Program the zone tail [normal_bytes, zone_bytes) as one contiguous
  /// SLC run, folding in any staged pieces. `extent` supplies the slots
  /// not yet staged.
  Result<FlushResult> ProgramPatchRun(ZoneId zone, ZoneRuntime& zr,
                                      const BufferedExtent& extent, SimTime now);

  /// Stage extent slots in [from_byte, end) to SLC (partial programming).
  Result<FlushResult> StageSlots(ZoneId zone, ZoneRuntime& zr,
                                 const BufferedExtent& extent, std::uint64_t from_byte,
                                 SimTime now);

  /// Recovery: a reserved normal block refused (or failed) a one-shot
  /// unit — program the unit's slots into SLC under page mapping and mark
  /// the zone degraded (no further aggregation). `mark` is the caller's
  /// journal mark from before the fold's read-back, so the stamp also
  /// covers the source invalidates the re-drive supersedes.
  Result<FlushResult> RedriveUnitToSlc(ZoneRuntime& zr, std::uint64_t mark,
                                       std::span<const SlotWrite> data, SimTime now);

  /// Lazily latch read-only mode when the healthy SLC spare drops below
  /// the configured floor. Called at the top of every write.
  bool InReadOnly();

  /// Charge the die time of one-shot pulses the conventional allocator
  /// burned on failed programs (last_failed_chips) and book the recovery
  /// work. Returns when the burned transfers drain.
  SimTime ChargeNormalBurns(SimTime issue);

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
  SimTime WriteCheckpoint(SimTime now);

  /// Host-op prologue: refuse ops while powered off, advance the
  /// last-submission watermark, and prune journal/log state that a
  /// future cut can no longer reach.
  Status BeginHostOp(SimTime now);

  // --- Power-loss recovery pipeline (Recover() stages) ---
  /// Re-erase blocks whose erase was torn by the cut.
  Result<SimTime> RecoverReeraseTorn(std::span<const BlockId> blocks, SimTime now);
  /// OOB scan of all used blocks: rebuild the page-granularity mapping.
  /// Returns the scan completion time.
  Result<SimTime> RecoverScanMedia(SimTime now);
  /// Pure zone reconciliation over the current mapping: the write-
  /// pointer / staging / patch facts RecoverZone derives, with no side
  /// effects. Shared by RecoverZone (which additionally invalidates
  /// orphans and restores runtime) and WriteCheckpoint (which snapshots
  /// the result into ZoneSnap records).
  struct ZoneReconcile {
    std::uint64_t durable_normal_end = 0;
    std::uint64_t staged_end = 0;
    Ppn patch_start;
    bool degraded = false;
    bool patch_contiguous = false;
    /// Mapped lpns exist past staged_end (islands the mount path must
    /// invalidate); such a zone is never checkpoint-restorable.
    bool has_orphans = false;
  };
  ZoneReconcile ReconcileZoneMapping(ZoneId zone) const;
  /// Reconcile one zone: write pointer, staging extents, aggregation,
  /// orphan slots. `zone` is a sequential zone id.
  Status RecoverZone(ZoneId zone);

  // --- Conventional zones (§III-E extension) ---
  bool IsConventional(ZoneId zone) const {
    return zone.value() < cfg_.num_conventional_zones;
  }
  /// Layout index of a sequential zone (conventional zones precede them
  /// in the device's zone numbering).
  ZoneId SeqZone(ZoneId zone) const {
    return ZoneId{zone.value() - cfg_.num_conventional_zones};
  }
  /// Dispatch a flush by the owning zone's type.
  Result<FlushResult> FlushAny(BufferedExtent extent, SimTime now);
  Result<SimTime> WriteConventional(ZoneId zone, std::uint64_t offset,
                                    std::uint64_t len, SimTime now,
                                    std::span<const std::uint64_t> tokens);
  Result<FlushResult> FlushConventionalExtent(BufferedExtent extent, SimTime now);
  /// In-place mapping update: invalidates the previous copy.
  Status SetMappingInPlace(Lpn lpn, Ppn ppn);
  /// Device-side GC over the conventional pool (greedy, like Legacy's).
  Result<SimTime> CollectConventional(SimTime now);
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
  NormalAllocator conv_alloc_;      ///< Conventional-pool write pointer.
  CheckpointStore ckpt_;            ///< Ping-pong checkpoint slots (§12).
  std::uint32_t ckpt_chip_ = 0;     ///< Round-robin checkpoint program target.
  /// L2P-log entries flushed since the last checkpoint image — the
  /// interval policy counter. Survives cuts on purpose: the un-imaged
  /// tail is still un-imaged after a remount.
  std::uint64_t flushed_entries_since_ckpt_ = 0;

  std::vector<ZoneRuntime> runtime_;
  std::vector<SimTime> buffer_ready_;  ///< Per-buffer flush completion.
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
  /// Per-block force-rescan flags, rebuilt from rescan_pending_ at each
  /// mount (scratch, reused across remounts).
  std::vector<std::uint8_t> rescan_flags_;
  /// Per-zone mount dirt: set when anything diverged from the checkpoint
  /// image for that zone (stale entry dropped, per-entry accept path,
  /// tail-scan sense). A clean zone with a restorable snapshot restores
  /// its runtime directly instead of re-reconciling.
  std::vector<std::uint8_t> zone_dirty_;
  /// Zone snapshots from the image the current mount loaded (empty when
  /// mounting without a checkpoint).
  std::vector<ZoneSnap> mount_zone_snaps_;
  bool mount_have_snaps_ = false;
  RecoveryStats recovery_;

  // Per-request scratch buffers: Read/Write never recurse into
  // themselves, so reusing these keeps the per-IO paths allocation-free
  // after warm-up (capacity is retained across requests).
  PageGrouper read_groups_;              ///< Read()
  std::vector<SlotWrite> chunk_scratch_; ///< Write()/WriteConventional()

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
