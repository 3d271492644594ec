// FIO-like micro-benchmark workload runner (paper §IV-A).
//
// The evaluation drives every device with flexible-I/O-tester style jobs:
// sequential or random, read or write, fixed block size, one or more
// simulated threads. At the default iodepth=1 a job is synchronous — the
// next request issues when the previous one completes — which is how
// consumer I/O stacks behave (§II-A: frequent synchronous writes). With
// iodepth=N a job keeps up to N requests outstanding: N independent
// self-pacing submission chains share the job's cursor/RNG/stop state,
// and the runner steps the chains in simulated-time order, earliest
// first and in arming order at equal times. Concurrency (across chains
// and across jobs) is resolved by the device's internal resource model,
// which serializes contended hardware. iodepth=1 reduces exactly to the
// synchronous behavior. Each chain step is one event: a run of N IOs
// over jobs of total depth D executes N + D events (every chain ends
// with one step that issues nothing or fails).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/storage_device.hpp"

namespace conzone {

enum class IoPattern : std::uint8_t { kSequential = 0, kRandom = 1 };
enum class IoDirection : std::uint8_t { kRead = 0, kWrite = 1 };

struct JobSpec {
  std::string name = "job";
  IoPattern pattern = IoPattern::kSequential;
  IoDirection direction = IoDirection::kRead;
  std::uint64_t block_size = 4096;
  /// Byte range the job operates on: [region_offset, region_offset+region_size).
  std::uint64_t region_offset = 0;
  std::uint64_t region_size = 0;
  /// Zoned devices only: operate on exactly these zones, in order — the
  /// job's address space is their concatenation (region_offset/size are
  /// then derived, not read). This is how consumer stacks present work to
  /// the device: F2FS allocates whole segments/zones per log, so a
  /// writer's stream hops zones in allocation order, not LBA order. The
  /// Fig. 6b conflict experiment uses this to pin two writers to zones of
  /// equal or opposite parity.
  std::vector<std::uint64_t> zone_list;
  /// With zone_list: operate only on the first `zone_span_bytes` of each
  /// listed zone (0 = the whole zone; otherwise aligned, at most the zone
  /// size and at least one block). Lets read jobs target the written
  /// prefix of partially-filled zones.
  std::uint64_t zone_span_bytes = 0;
  /// The job stops after this many IOs (at least 1), or at its first
  /// per-IO error.
  std::uint64_t io_count = 0;
  /// Sequential jobs wrap to the region start when they reach the end;
  /// zoned write jobs must reset the zones they wrap into.
  bool reset_zones_on_wrap = false;
  std::uint64_t seed = 1;
  /// Outstanding requests the job keeps in flight (fio's iodepth). 1 =
  /// fully synchronous; N>1 runs N submission chains that each issue the
  /// job's next IO as soon as their previous one completes.
  std::uint32_t iodepth = 1;
};

struct JobResult {
  std::string name;
  Throughput throughput;
  LatencyHistogram latency;
  SimTime first_issue;
  SimTime last_completion;
  /// IOs that failed with a per-IO condition (media error, device gone
  /// read-only). Such failures end the job but not the run: a real fio
  /// job reports the error and the remaining jobs keep running.
  std::uint64_t io_errors = 0;
  Status first_error;  ///< First per-IO failure (Ok when io_errors == 0).
};

/// Aggregate over all jobs of a run (the "MT" rows of the paper).
struct RunResult {
  std::vector<JobResult> jobs;
  Throughput total;           ///< Sum of bytes/ops over the wall-clock span.
  LatencyHistogram latency;   ///< Merged across jobs.
  SimTime end_time;           ///< Completion of the last job — pass as the
                              ///< `start` of the next phase so a fresh run
                              ///< does not queue behind still-busy media.
  std::uint64_t events = 0;   ///< Simulator events executed by the run
                              ///< (wall-clock benchmarking: events/s).
  std::uint64_t io_errors = 0;  ///< Sum of per-IO failures across jobs.

  double MiBps() const { return total.MiBps(); }
  double Kiops() const { return total.Kiops(); }
};

class FioRunner {
 public:
  explicit FioRunner(StorageDevice& device)
      : device_(device), info_(device.info()), div_zone_(info_.zone_size_bytes) {}

  /// Run all jobs concurrently starting at simulated time `start`.
  Result<RunResult> Run(const std::vector<JobSpec>& jobs,
                        SimTime start = SimTime::Zero());

  /// Sequentially fill [offset, offset+size) with `block_size` writes and
  /// flush — the preconditioning step before read experiments.
  static Status Precondition(StorageDevice& device, std::uint64_t offset,
                             std::uint64_t size, std::uint64_t block_size = 512 * kKiB,
                             SimTime* end_time = nullptr);

 private:
  struct JobState {
    JobSpec spec;
    Rng rng;
    std::uint64_t virtual_size = 0;  // region_size or zone_list span
    std::uint64_t position = 0;      // sequential cursor
    std::uint64_t ios_done = 0;
    JobResult result;
    // Per-IO constants hoisted out of PickOffset (random jobs draw one
    // offset per IO; the divisions would otherwise dominate the draw).
    std::uint64_t rand_slots = 0;      // virtual_size / block_size
    std::uint64_t rand_threshold = 0;  // Rng::RejectionThreshold(rand_slots)
    FastDiv div_span_;                 // zone_list span (zone_span_bytes or zone size)
  };

  Status ValidateSpec(const JobSpec& spec) const;
  /// Issue one IO for `job` at time `t`; returns completion time or the
  /// error that aborted the run.
  Result<SimTime> IssueOne(JobState& job, SimTime t);
  std::uint64_t PickOffset(JobState& job, std::uint64_t* len);
  /// One step of a job's submission chain at time `t`: issue the job's
  /// next IO and return its completion, at which Run steps the chain
  /// again. Returns nothing when the job is done or this IO failed; a
  /// failure that is not per-IO is kept in run_error_ and ends the run.
  std::optional<SimTime> Step(JobState& job, SimTime t);

  StorageDevice& device_;
  /// Cached at construction: info() builds a fresh DeviceInfo (including
  /// a std::string) per call, which is too expensive for the issue path.
  DeviceInfo info_;
  FastDiv div_zone_;  ///< info_.zone_size_bytes (hardware div when 0)
  Status run_error_;
};

}  // namespace conzone
