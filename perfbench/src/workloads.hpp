// The benchmark's four closed-loop workloads (README.md gives the
// rationale and sizes of each).
//
// A workload is set up once, then driven in rounds. Every round is the
// same kind of work with inputs drawn from (seed, round), so a host-time
// rate per round is comparable across rounds and its median is steady.
// Simulated outputs are read over a fixed window of the first rounds,
// which makes them a pure function of the seed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "conzone/conzone.hpp"

namespace perfbench {

/// Device-internal counters, summed over a workload's ConZone devices.
struct DeviceCounters {
  enum Field : std::size_t {
    kFlashBytesWritten,
    kReads,
    kWrites,
    kResets,
    kHostFlushes,
    kPrematureFlushes,
    kBufferConflicts,
    kTranslations,
    kL2pHits,
    kMapFetches,
    kL2pLogFlushes,
    kPageReads,
    kSlcSlots,
    kNormalSlots,
    kErases,
    kGcRuns,
    kGcSlotsMigrated,
    kRecoveries,
    kPagesScanned,
    kPagesSkipped,
    kCheckpointLoads,
    kCheckpointBytes,
    kNumFields
  };
  std::array<std::uint64_t, kNumFields> v{};

  static DeviceCounters Of(const conzone::ConZoneDevice& d);
  std::uint64_t operator[](Field f) const { return v[f]; }
  DeviceCounters& operator+=(const DeviceCounters& o);
  DeviceCounters operator-(const DeviceCounters& base) const;
};

/// What a workload has done since set-up, host-side and simulated.
struct Progress {
  std::uint64_t ops = 0;        ///< Top-level operations completed.
  std::uint64_t attempted = 0;  ///< Operations issued, checks included.
  std::uint64_t failed = 0;     ///< Errors plus failed correctness checks.
  conzone::SimTime sim_start;   ///< Simulated time when the rounds began.
  conzone::SimTime sim_now;
  conzone::LatencyHistogram read_lat;       ///< Simulated foreground reads.
  std::uint64_t client_bytes_written = 0;  ///< Write-amplification base.
  std::uint64_t events = 0;                 ///< Event-queue events (FIO only).
  std::uint64_t digest = 0xCBF29CE484222325ull;  ///< FNV over completions.
  // crash_remount
  std::vector<double> remount_host_ms;  ///< PowerCut+Recover, every cut.
  std::vector<double> sim_remount_ms;   ///< Simulated remount, every cut.
  // mirror_rebuild
  std::uint64_t volume_reads = 0;

  void Mix(std::uint64_t x) { digest = (digest ^ x) * 0x100000001B3ull; }
};

struct Snapshot {
  Progress progress;
  DeviceCounters dev;
  conzone::ZoneCacheStats cache;
  conzone::RedundancyStats red;
};

struct SetupTimes {
  double create_s = 0;
  double precondition_s = 0;
  double mount_s = 0;
  double total() const { return create_s + precondition_s + mount_s; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the system under test and write its starting data. The benchmark
  /// then runs the warm-up rounds, counted as precondition time.
  virtual conzone::Status Setup(SetupTimes* times) = 0;
  /// One round of closed-loop work: the timed part.
  virtual conzone::Status Round(std::uint64_t round) = 0;
  /// Untimed work between rounds: result checks, spare devices.
  virtual conzone::Status AfterRound() { return conzone::Status::Ok(); }
  /// Untimed read-back checks after the last round; failures are added
  /// to progress().failed.
  virtual void VerifyEnd() {}
  /// Warm-up rounds run after Setup, before the window.
  virtual std::uint64_t warmup_rounds() const = 0;
  /// Rounds whose simulated outputs form the reported window.
  virtual std::uint64_t window_rounds() const = 0;
  /// Extra stop condition on top of the run time (crash_remount's
  /// minimum remount count).
  virtual bool enough() const { return true; }
  virtual Snapshot Take() const = 0;

  const Progress& progress() const { return p_; }
  /// Forget the progress of set-up and warm-up work; the simulated
  /// window starts at the current simulated time.
  void StartWindow() {
    const conzone::SimTime now = p_.sim_now;
    p_ = Progress{};
    p_.sim_start = p_.sim_now = now;
  }

 protected:
  Progress p_;
};

/// Null for an unknown name. With `wrap` false the workload drives its
/// devices directly instead of through TimedDevice (the self-test's
/// reference).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool wrap);

}  // namespace perfbench
