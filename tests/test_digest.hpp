// FNV-1a digest of simulated outputs, for bit-for-bit pin tests.
//
// A pin test feeds every completion time (or error code), read-back
// token and counter of a seeded run into one Digest and compares the
// value with a recorded one, so any change to what the simulator
// computes moves it.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/storage_device.hpp"
#include "flash/array.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/translator.hpp"

namespace conzone {

class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(const Result<SimTime>& r) {
    Add(r.ok() ? r.value().ns() : 0xE000u + static_cast<std::uint64_t>(r.status().code()));
  }
  void Add(const MediaCounters& m) {
    for (std::uint64_t v : {m.slots_programmed_slc, m.slots_programmed_normal, m.page_reads,
                            m.erases_slc, m.erases_normal}) {
      Add(v);
    }
  }
  void Add(const TranslatorStats& s) {
    for (std::uint64_t v : {s.translations, s.cache_hits, s.map_fetches, s.hits_by_gran[0],
                            s.hits_by_gran[1], s.hits_by_gran[2]}) {
      Add(v);
    }
  }
  void Add(const L2pCacheStats& s) {
    for (std::uint64_t v : {s.lookups, s.hits, s.insertions, s.evictions,
                            s.rejected_insertions}) {
      Add(v);
    }
  }
  /// Every StatsSnapshot field but host_flushes and zone_resets, which
  /// the baselines did not always count.
  void Add(const StatsSnapshot& s) {
    for (std::uint64_t v : {s.host_bytes_written, s.host_bytes_read, s.flash_bytes_written,
                            s.writes, s.reads, s.buffer_flushes, s.premature_flushes,
                            s.overwrites, s.gc_runs, s.gc_slots_migrated}) {
      Add(v);
    }
  }
  void Add(const Log2Histogram& h) {
    Add(h.count());
    Add(h.mean().ns());
    for (int i = 0; i < Log2Histogram::kBuckets; ++i) Add(h.bucket(i));
  }
  void Add(const ReliabilityStats& r) {
    for (std::uint64_t v :
         {r.program_failures_slc, r.program_failures_normal, r.erase_failures_slc,
          r.erase_failures_normal, r.reads_with_retry, r.read_retries, r.rewrite_slots,
          r.retired_blocks_slc, r.retired_blocks_normal, r.read_only_trips,
          r.recovery_time.ns()}) {
      Add(v);
    }
    Add(r.read_retry_hist);
    Add(r.redrive_hist);
  }
  void Add(const RecoveryStats& r) {
    for (std::uint64_t v :
         {r.power_cuts, r.recoveries, r.buffered_slots_lost, r.torn_program_slots,
          r.unissued_program_slots, r.l2p_log_bytes_lost, r.resurrected_slots,
          r.orphaned_slots, r.pages_scanned, r.pages_skipped, r.reerased_blocks,
          r.replayed_mappings, r.checkpoints_written, r.checkpoint_bytes,
          r.checkpoints_torn, r.checkpoint_loaded, r.checkpoint_mappings,
          r.checkpoint_stale_dropped, r.zones_restored, r.remount_time.ns()}) {
      Add(v);
    }
    Add(r.remount_hist);
    Add(r.checkpoint_age_hist);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace conzone
