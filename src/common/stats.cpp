#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace conzone {

LatencyHistogram::LatencyHistogram() : buckets_(kBands * kSubBuckets, 0) {}

int LatencyHistogram::BucketIndex(std::uint64_t ns) {
  // Values below kSubBuckets land in band 0 linearly.
  if (ns < kSubBuckets) return static_cast<int>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const int band = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>((ns >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  int idx = band * kSubBuckets + sub;
  const int last = kBands * kSubBuckets - 1;
  return std::min(idx, last);
}

std::uint64_t LatencyHistogram::BucketUpperEdge(int index) {
  const int band = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (band == 0) return static_cast<std::uint64_t>(sub);
  const int shift = band - 1;
  // Band b (b>=1) spans [2^(b+5), 2^(b+6)) split into 64 pieces.
  const std::uint64_t base = (static_cast<std::uint64_t>(kSubBuckets) + static_cast<std::uint64_t>(sub)) << shift;
  const std::uint64_t width = 1ull << shift;
  return base + width - 1;
}

void LatencyHistogram::Record(SimDuration d) {
  const std::uint64_t ns = d.ns();
  buckets_[static_cast<std::size_t>(BucketIndex(ns))]++;
  count_++;
  sum_ns_ += ns;
  if (d < min_) min_ = d;
  if (d > max_) max_ = d;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  if (other.count_ > 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ns_ = 0;
  min_ = SimDuration::Nanos(~0ull);
  max_ = SimDuration();
}

SimDuration LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return SimDuration();
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Exact min/max beat bucket edges at the extremes.
      std::uint64_t edge = BucketUpperEdge(static_cast<int>(i));
      edge = std::min(edge, max_.ns());
      edge = std::max(edge, min_.ns());
      return SimDuration::Nanos(edge);
    }
  }
  return max_;
}

std::string LatencyHistogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
                static_cast<unsigned long long>(count_), mean().us(),
                Percentile(0.50).us(), Percentile(0.95).us(), Percentile(0.99).us(),
                Percentile(0.999).us(), max().us());
  return buf;
}

int Log2Histogram::BucketIndex(std::uint64_t ns) {
  if (ns == 0) return 0;
  return std::min<int>(kBuckets - 1, 64 - std::countl_zero(ns));
}

namespace {
// "512ns", "4us", "32ms" — power-of-two edges render exactly in at most
// one unit; keep them integral for readability.
std::string EdgeLabel(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull && ns % 1000000000ull == 0) {
    std::snprintf(buf, sizeof(buf), "%llus", static_cast<unsigned long long>(ns / 1000000000ull));
  } else if (ns >= 1000000ull && ns % 1000000ull == 0) {
    std::snprintf(buf, sizeof(buf), "%llums", static_cast<unsigned long long>(ns / 1000000ull));
  } else if (ns >= 1000ull && ns % 1000ull == 0) {
    std::snprintf(buf, sizeof(buf), "%lluus", static_cast<unsigned long long>(ns / 1000ull));
  } else if (ns >= 1048576ull) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1024ull) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns", static_cast<unsigned long long>(ns));
  }
  return buf;
}
}  // namespace

std::string Log2Histogram::Summary() const {
  if (count_ == 0) return "(empty)";
  std::string out;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[static_cast<std::size_t>(i)] == 0) continue;
    if (!out.empty()) out += ' ';
    char buf[96];
    std::snprintf(buf, sizeof(buf), "[%s,%s):%llu",
                  EdgeLabel(BucketLowerEdgeNs(i)).c_str(),
                  EdgeLabel(i + 1 < kBuckets ? BucketLowerEdgeNs(i + 1) : ~0ull).c_str(),
                  static_cast<unsigned long long>(buckets_[static_cast<std::size_t>(i)]));
    out += buf;
  }
  return out;
}

void ReliabilityStats::Merge(const ReliabilityStats& other) {
  program_failures_slc += other.program_failures_slc;
  program_failures_normal += other.program_failures_normal;
  erase_failures_slc += other.erase_failures_slc;
  erase_failures_normal += other.erase_failures_normal;
  reads_with_retry += other.reads_with_retry;
  read_retries += other.read_retries;
  rewrite_slots += other.rewrite_slots;
  retired_blocks_slc += other.retired_blocks_slc;
  retired_blocks_normal += other.retired_blocks_normal;
  read_only_trips += other.read_only_trips;
  recovery_time += other.recovery_time;
  read_retry_hist.Merge(other.read_retry_hist);
  redrive_hist.Merge(other.redrive_hist);
}

std::string ReliabilityStats::Summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "pfail=slc:%llu,normal:%llu efail=slc:%llu,normal:%llu "
      "retried_reads=%llu retry_steps=%llu rewrites=%llu "
      "retired=slc:%llu,normal:%llu ro_trips=%llu recovery=%.1fus",
      static_cast<unsigned long long>(program_failures_slc),
      static_cast<unsigned long long>(program_failures_normal),
      static_cast<unsigned long long>(erase_failures_slc),
      static_cast<unsigned long long>(erase_failures_normal),
      static_cast<unsigned long long>(reads_with_retry),
      static_cast<unsigned long long>(read_retries),
      static_cast<unsigned long long>(rewrite_slots),
      static_cast<unsigned long long>(retired_blocks_slc),
      static_cast<unsigned long long>(retired_blocks_normal),
      static_cast<unsigned long long>(read_only_trips), recovery_time.us());
  return buf;
}

void RecoveryStats::Merge(const RecoveryStats& other) {
  power_cuts += other.power_cuts;
  recoveries += other.recoveries;
  buffered_slots_lost += other.buffered_slots_lost;
  torn_program_slots += other.torn_program_slots;
  unissued_program_slots += other.unissued_program_slots;
  l2p_log_bytes_lost += other.l2p_log_bytes_lost;
  resurrected_slots += other.resurrected_slots;
  orphaned_slots += other.orphaned_slots;
  pages_scanned += other.pages_scanned;
  pages_skipped += other.pages_skipped;
  reerased_blocks += other.reerased_blocks;
  replayed_mappings += other.replayed_mappings;
  checkpoints_written += other.checkpoints_written;
  checkpoint_bytes += other.checkpoint_bytes;
  checkpoints_torn += other.checkpoints_torn;
  checkpoint_loaded += other.checkpoint_loaded;
  checkpoint_mappings += other.checkpoint_mappings;
  checkpoint_stale_dropped += other.checkpoint_stale_dropped;
  zones_restored += other.zones_restored;
  remount_time += other.remount_time;
  reerase_time += other.reerase_time;
  image_load_time += other.image_load_time;
  tail_scan_time += other.tail_scan_time;
  remount_hist.Merge(other.remount_hist);
  checkpoint_age_hist.Merge(other.checkpoint_age_hist);
}

std::string RecoveryStats::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "cuts=%llu lost=buf:%llu,torn:%llu,queued:%llu,log:%lluB "
      "replayed=%llu resurrected=%llu orphaned=%llu pages=scan:%llu,skip:%llu "
      "reerased=%llu ckpt=written:%llu,torn:%llu,loaded:%llu,replayed:%llu,"
      "stale:%llu zones_restored=%llu remount=%.1fms (mean %.1fms over %llu)",
      static_cast<unsigned long long>(power_cuts),
      static_cast<unsigned long long>(buffered_slots_lost),
      static_cast<unsigned long long>(torn_program_slots),
      static_cast<unsigned long long>(unissued_program_slots),
      static_cast<unsigned long long>(l2p_log_bytes_lost),
      static_cast<unsigned long long>(replayed_mappings),
      static_cast<unsigned long long>(resurrected_slots),
      static_cast<unsigned long long>(orphaned_slots),
      static_cast<unsigned long long>(pages_scanned),
      static_cast<unsigned long long>(pages_skipped),
      static_cast<unsigned long long>(reerased_blocks),
      static_cast<unsigned long long>(checkpoints_written),
      static_cast<unsigned long long>(checkpoints_torn),
      static_cast<unsigned long long>(checkpoint_loaded),
      static_cast<unsigned long long>(checkpoint_mappings),
      static_cast<unsigned long long>(checkpoint_stale_dropped),
      static_cast<unsigned long long>(zones_restored),
      remount_time.ms(), remount_hist.mean().ms(),
      static_cast<unsigned long long>(remount_hist.count()));
  return buf;
}

void RedundancyStats::Merge(const RedundancyStats& other) {
  degraded_reads += other.degraded_reads;
  degraded_writes += other.degraded_writes;
  reconstructed_units += other.reconstructed_units;
  member_failures += other.member_failures;
  members_readmitted += other.members_readmitted;
  scrub_rows += other.scrub_rows;
  scrub_mismatches += other.scrub_mismatches;
  scrub_repaired_slots += other.scrub_repaired_slots;
  scrubs_completed += other.scrubs_completed;
  rebuild_slots_copied += other.rebuild_slots_copied;
  rebuild_zone_restarts += other.rebuild_zone_restarts;
  rebuilds_completed += other.rebuilds_completed;
}

std::string RedundancyStats::Summary() const {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "degraded=r:%llu,w:%llu reconstructed_units=%llu failed_members=%llu "
      "readmitted=%llu scrub=rows:%llu,mismatch:%llu,repaired:%llu,passes:%llu "
      "rebuild=slots:%llu,restarts:%llu,done:%llu",
      static_cast<unsigned long long>(degraded_reads),
      static_cast<unsigned long long>(degraded_writes),
      static_cast<unsigned long long>(reconstructed_units),
      static_cast<unsigned long long>(member_failures),
      static_cast<unsigned long long>(members_readmitted),
      static_cast<unsigned long long>(scrub_rows),
      static_cast<unsigned long long>(scrub_mismatches),
      static_cast<unsigned long long>(scrub_repaired_slots),
      static_cast<unsigned long long>(scrubs_completed),
      static_cast<unsigned long long>(rebuild_slots_copied),
      static_cast<unsigned long long>(rebuild_zone_restarts),
      static_cast<unsigned long long>(rebuilds_completed));
  return buf;
}

}  // namespace conzone
