// Latency and throughput statistics.
//
// `LatencyHistogram` is an HDR-style log-linear histogram over simulated
// durations: each power-of-two band is split into 64 linear sub-buckets,
// bounding relative quantile error to ~1.6% while staying O(1) per record
// and a few KiB of memory — good enough to report the p99/p99.9 tail
// latencies the paper's figures use.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace conzone {

class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(SimDuration d);
  /// Merge another histogram into this one (for multi-job aggregation).
  void Merge(const LatencyHistogram& other);
  void Reset();

  std::uint64_t count() const { return count_; }
  SimDuration min() const { return count_ ? min_ : SimDuration(); }
  SimDuration max() const { return max_; }
  SimDuration mean() const {
    return count_ ? SimDuration::Nanos(sum_ns_ / count_) : SimDuration();
  }

  /// Value at quantile q in [0,1]; returns the upper edge of the bucket
  /// containing the q-th sample. q=0.5 → median, q=0.999 → p99.9.
  SimDuration Percentile(double q) const;

  /// "mean=52.1us p50=49us p99=86us ..." one-line summary.
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per band.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kBands = 40;  // covers up to ~2^45 ns ≈ 9.7 hours.

  static int BucketIndex(std::uint64_t ns);
  static std::uint64_t BucketUpperEdge(int index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  SimDuration min_ = SimDuration::Nanos(~0ull);
  SimDuration max_;
};

/// Fixed-bucket power-of-two histogram over durations: bucket i counts
/// samples with ns in [2^(i-1), 2^i); bucket 0 counts zero-length
/// samples. 64 buckets cover the full uint64 nanosecond range in a flat
/// 520-byte POD — cheap enough to live inside ReliabilityStats and be
/// merged across shards. Coarser than LatencyHistogram on purpose:
/// recovery events are rare and span six decades (a one-step read retry
/// is ~50 us, a multi-unit re-drive can be tens of ms), so order-of-
/// magnitude buckets are the readable unit.
class Log2Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(SimDuration d) {
    ++buckets_[static_cast<std::size_t>(BucketIndex(d.ns()))];
    ++count_;
    sum_ns_ += d.ns();
  }
  void Merge(const Log2Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }
  void Reset() { *this = Log2Histogram{}; }

  std::uint64_t count() const { return count_; }
  std::uint64_t bucket(int i) const { return buckets_[static_cast<std::size_t>(i)]; }
  SimDuration mean() const {
    return count_ ? SimDuration::Nanos(sum_ns_ / count_) : SimDuration();
  }
  /// Inclusive lower edge of bucket i (0 for bucket 0, else 2^(i-1) ns).
  static std::uint64_t BucketLowerEdgeNs(int i) {
    return i == 0 ? 0 : 1ull << (i - 1);
  }
  static int BucketIndex(std::uint64_t ns);

  /// Non-empty buckets as "[512us,1ms):12" pairs, or "(empty)".
  std::string Summary() const;

  bool operator==(const Log2Histogram&) const = default;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

/// Reliability accounting across the fault-injection and recovery paths.
/// Owned by the media layer (FlashArray) and shared — by reference — with
/// the allocators, the timing engine and the device, so every layer's
/// recovery work lands in one reconcilable snapshot.
struct ReliabilityStats {
  // Faults observed at the media layer, by kind and region.
  std::uint64_t program_failures_slc = 0;
  std::uint64_t program_failures_normal = 0;
  std::uint64_t erase_failures_slc = 0;
  std::uint64_t erase_failures_normal = 0;

  // Read-retry activity (per ReadSlot draw; the timing engine charges the
  // per-page maximum).
  std::uint64_t reads_with_retry = 0;
  std::uint64_t read_retries = 0;  ///< Sum of retry levels.

  // Recovery work.
  std::uint64_t rewrite_slots = 0;  ///< Slots re-driven after a failed program.
  std::uint64_t retired_blocks_slc = 0;
  std::uint64_t retired_blocks_normal = 0;
  std::uint64_t read_only_trips = 0;  ///< Times the device latched read-only.

  /// Nominal simulated time spent on recovery work: burned program
  /// pulses, failed erases, and extra read-retry senses.
  SimDuration recovery_time;

  // Per-event recovery duration distributions (ROADMAP: expose
  // recovery-induced tail modes, not just the aggregate).
  Log2Histogram read_retry_hist;  ///< Extra sense time per retried read.
  Log2Histogram redrive_hist;     ///< Program time per re-drive/burn event.

  /// Fold another device's stats into this one — shard aggregation.
  void Merge(const ReliabilityStats& other);

  std::uint64_t TotalFaults() const {
    return program_failures_slc + program_failures_normal + erase_failures_slc +
           erase_failures_normal + reads_with_retry;
  }
  std::uint64_t RetiredBlocks() const {
    return retired_blocks_slc + retired_blocks_normal;
  }

  /// One-line "faults=... retries=... retired=slc:x,normal:y ..." summary.
  std::string Summary() const;
};

/// Power-loss accounting: what each cut destroyed and what the remount
/// pipeline did to bring the device back. Owned by the device; merged
/// across shards like ReliabilityStats.
struct RecoveryStats {
  std::uint64_t power_cuts = 0;   ///< PowerCut() calls survived.
  std::uint64_t recoveries = 0;   ///< Recover() remounts completed.

  // Volatile state destroyed by the cut.
  std::uint64_t buffered_slots_lost = 0;   ///< SRAM write-buffer slots dropped.
  std::uint64_t torn_program_slots = 0;    ///< Programs in flight at the cut.
  std::uint64_t unissued_program_slots = 0;///< Programs queued, never started.
  std::uint64_t l2p_log_bytes_lost = 0;    ///< Unflushed/in-flight L2P log bytes.

  // Remount pipeline work.
  std::uint64_t resurrected_slots = 0;  ///< Old copies revived under torn supersedes.
  std::uint64_t orphaned_slots = 0;     ///< Valid-but-unreachable slots invalidated.
  std::uint64_t pages_scanned = 0;      ///< OOB pages sensed by the mount scan.
  std::uint64_t pages_skipped = 0;      ///< Used pages the checkpoint let the scan skip.
  std::uint64_t reerased_blocks = 0;    ///< Blocks re-erased after a torn erase.
  std::uint64_t replayed_mappings = 0;  ///< L2P entries rebuilt from the scan.

  // Checkpoint activity (DESIGN.md §12).
  std::uint64_t checkpoints_written = 0;  ///< Images committed to a slot.
  std::uint64_t checkpoint_bytes = 0;     ///< Serialized bytes programmed.
  std::uint64_t checkpoints_torn = 0;     ///< Slots invalidated by a cut mid-write.
  std::uint64_t checkpoint_loaded = 0;    ///< Mounts served by a valid image.
  std::uint64_t checkpoint_mappings = 0;  ///< L2P entries replayed from images.
  std::uint64_t checkpoint_stale_dropped = 0;  ///< Image entries rejected at mount.
  std::uint64_t zones_restored = 0;  ///< Zones restored from a snapshot, no re-walk.

  /// Total simulated time spent remounting, and its per-event spread.
  SimDuration remount_time;
  /// Where the remount time went, per pass. The image load and the tail
  /// scan both start when the re-erase ends, so each mount's remount time
  /// is reerase_time + max(image_load_time, tail_scan_time).
  SimDuration reerase_time;
  SimDuration image_load_time;
  SimDuration tail_scan_time;
  Log2Histogram remount_hist;
  /// Checkpoint age at each image-served mount: simulated time between
  /// the image's media completion and the cut it recovered from.
  Log2Histogram checkpoint_age_hist;

  /// Fold another device's stats into this one — shard aggregation.
  void Merge(const RecoveryStats& other);

  /// One-line "cuts=... lost=... replayed=... remount=..." summary.
  std::string Summary() const;
};

/// Redundancy accounting for host-side mirrored volumes: degraded
/// serving, scrub verification/repair, and member rebuild progress.
/// Owned by RedundantVolume; merged across shards like the other stats.
struct RedundancyStats {
  // Degraded foreground service.
  std::uint64_t degraded_reads = 0;   ///< Reads served by a fallback replica.
  std::uint64_t degraded_writes = 0;  ///< Writes acknowledged with missing legs.
  std::uint64_t reconstructed_units = 0;  ///< Stripe units served from peers.
  std::uint64_t member_failures = 0;      ///< Members latched failed.
  std::uint64_t members_readmitted = 0;   ///< Failed members resynced by a clean scrub.

  // Online scrub.
  std::uint64_t scrub_rows = 0;        ///< Stripe rows verified.
  std::uint64_t scrub_mismatches = 0;  ///< Rows with replica disagreement.
  std::uint64_t scrub_repaired_slots = 0;  ///< 4 KiB slots repaired/completed.
  std::uint64_t scrubs_completed = 0;      ///< Full volume passes finished.

  // Live member rebuild.
  std::uint64_t rebuild_slots_copied = 0;  ///< Slots written to the fresh member.
  std::uint64_t rebuild_zone_restarts = 0; ///< Member zones restarted after a torn copy.
  std::uint64_t rebuilds_completed = 0;

  /// Fold another volume's stats into this one — shard aggregation.
  void Merge(const RedundancyStats& other);

  /// One-line "degraded=r:x,w:y rebuilt_units=... scrub=..." summary.
  std::string Summary() const;

  bool operator==(const RedundancyStats&) const = default;
};

/// Throughput over a measured interval.
struct Throughput {
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  SimDuration elapsed;

  double MiBps() const {
    double s = elapsed.seconds();
    return s > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) / s : 0.0;
  }
  double Iops() const {
    double s = elapsed.seconds();
    return s > 0 ? static_cast<double>(ops) / s : 0.0;
  }
  double Kiops() const { return Iops() / 1000.0; }
};

}  // namespace conzone
