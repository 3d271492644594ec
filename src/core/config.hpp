// ConZone device configuration and the paper's evaluation preset.
#pragma once

#include <cstdint>

#include "buffer/write_buffer.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "fault/fault_model.hpp"
#include "flash/checkpoint_store.hpp"
#include "flash/geometry.hpp"
#include "flash/timing.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/l2p_log.hpp"
#include "ftl/translator.hpp"

namespace conzone {

struct ConZoneConfig {
  FlashGeometry geometry;
  TimingConfig timing;

  // --- Zones ---
  /// Host-visible zone size. Each zone reserves as many normal
  /// superblocks as fit in it; when it is larger than their data
  /// capacity, the tail ("patched data", §III-E) is written to SLC pages
  /// — the paper's workaround for TLC's non-power-of-two natural zone
  /// sizes.
  std::uint64_t zone_size_bytes = 16 * kMiB;
  std::uint32_t max_open_zones = 6;
  std::uint32_t max_active_zones = 12;

  // --- Write path ---
  WriteBufferConfig buffers;

  // --- Read path ---
  L2pCacheConfig l2p;
  TranslatorConfig translator;
  /// Cap on aggregation level: kZone (full hybrid mapping) or kChunk
  /// (§IV-C uses chunk-only for fairness against Legacy's prefetch).
  MapGranularity max_aggregation = MapGranularity::kZone;
  std::uint32_t lpns_per_chunk = 1024;  ///< 4 MiB chunks.
  /// Media holding the L2P mapping table pages (miss fetch latency).
  CellType map_media = CellType::kTlc;
  /// Optional §III-E extension: persist mapping updates through an L2P
  /// log whose flush-back blocks host requests. Off by default (the
  /// paper defers this to future work).
  L2pLogConfig l2p_log;
  /// Durable L2P checkpoints bounding the mount-time OOB scan to the
  /// post-checkpoint tail (DESIGN.md §12). Requires the L2P log.
  CheckpointConfig checkpoint;

  // --- Conventional zones (§III-E extension) ---
  /// The first `num_conventional_zones` zones accept in-place updates —
  /// the region F2FS needs for metadata. The paper leaves their design
  /// open; this implementation backs them with a dynamically allocated
  /// pool of normal superblocks (page-mapped, device-side GC) that sits
  /// between the SLC region and the sequential zones' reservations, and
  /// lets them share the write buffers and the SLC secondary buffer with
  /// the sequential zones.
  std::uint32_t num_conventional_zones = 0;

  /// Physical superblocks backing the conventional zones: their capacity
  /// rounded up, plus two superblocks of GC headroom (0 without them).
  std::uint64_t ConventionalSuperblocks() const;

  // --- Reliability ---
  /// NAND fault injection (all-zero default = no faults, zero hot-path
  /// cost). See FaultConfig for rates, determinism and the read-only
  /// spare floor.
  FaultConfig fault;

  Status Validate() const;

  /// The §IV-A evaluation configuration: TLC, 2 channels x 2 chips,
  /// 96 KiB programming unit (=> 384 KiB superpage), two shared 384 KiB
  /// write buffers, 1.5 GB flash, 12 KiB L2P cache, 3200 MiB/s channels.
  static ConZoneConfig PaperConfig();

  /// Derive the configuration of shard `shard_id` in a sharded run: the
  /// same device with a decorrelated fault-RNG stream. Shard 0 is the
  /// identity — a 1-shard run is bit-identical to driving this config
  /// directly. Deterministic in (this config, shard_id, master_seed).
  ConZoneConfig ForShard(std::uint32_t shard_id, std::uint64_t master_seed) const;
};

}  // namespace conzone
