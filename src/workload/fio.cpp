#include "workload/fio.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

namespace conzone {
namespace {

/// One chain of job `job`, due to step at `when`. Steps run earliest
/// first; steps due together run in arming order (`seq`).
struct PendingStep {
  SimTime when;
  std::uint64_t seq;
  std::size_t job;
  auto operator<=>(const PendingStep&) const = default;
};

}  // namespace

Status FioRunner::ValidateSpec(const JobSpec& spec) const {
  const DeviceInfo& di = info_;
  if (spec.iodepth == 0) {
    return Status::InvalidArgument(spec.name + ": iodepth must be >= 1");
  }
  if (spec.block_size == 0 || spec.block_size % di.io_alignment != 0) {
    return Status::InvalidArgument(spec.name + ": block size must be a multiple of " +
                                   std::to_string(di.io_alignment));
  }
  if (!spec.zone_list.empty()) {
    if (di.zone_size_bytes == 0) {
      return Status::InvalidArgument(spec.name + ": zone_list on a non-zoned device");
    }
    for (std::uint64_t z : spec.zone_list) {
      if (z >= di.num_zones) {
        return Status::OutOfRange(spec.name + ": zone " + std::to_string(z) +
                                  " out of range");
      }
    }
    if (spec.zone_span_bytes % di.io_alignment != 0 ||
        spec.zone_span_bytes > di.zone_size_bytes) {
      return Status::InvalidArgument(spec.name +
                                     ": zone span must be aligned and fit in a zone");
    }
    const std::uint64_t span =
        spec.zone_span_bytes != 0 ? spec.zone_span_bytes : di.zone_size_bytes;
    if (spec.block_size > span) {
      return Status::InvalidArgument(spec.name + ": block larger than zone span");
    }
  } else {
    if (spec.region_size == 0) {
      return Status::InvalidArgument(spec.name + ": empty region");
    }
    if (spec.region_offset % di.io_alignment != 0 ||
        spec.region_size % di.io_alignment != 0) {
      return Status::InvalidArgument(spec.name + ": region must be aligned");
    }
    if (spec.region_offset + spec.region_size > di.capacity_bytes) {
      return Status::OutOfRange(spec.name + ": region beyond device capacity");
    }
    if (spec.block_size > spec.region_size) {
      return Status::InvalidArgument(spec.name + ": block larger than region");
    }
  }
  if (spec.io_count == 0) {
    return Status::InvalidArgument(spec.name + ": io_count must be >= 1");
  }
  return Status::Ok();
}

std::uint64_t FioRunner::PickOffset(JobState& job, std::uint64_t* len) {
  const JobSpec& s = job.spec;
  const std::uint64_t zs = info_.zone_size_bytes;
  *len = s.block_size;

  // Virtual position within the job's address space.
  std::uint64_t vpos;
  if (s.pattern == IoPattern::kRandom) {
    vpos = job.rng.NextBelow(job.rand_slots, job.rand_threshold) * s.block_size;
  } else {
    vpos = job.position;
    *len = std::min(*len, job.virtual_size - vpos);
  }

  // Map the virtual position to a device offset.
  std::uint64_t off;
  if (!s.zone_list.empty()) {
    const std::uint64_t zi = job.div_span_.Div(vpos);
    const std::uint64_t in_zone = vpos - zi * job.div_span_.value();
    off = s.zone_list[static_cast<std::size_t>(zi)] * zs + in_zone;
    // Stay within the written span.
    *len = std::min(*len, job.div_span_.value() - in_zone);
  } else {
    off = s.region_offset + vpos;
    if (zs != 0) *len = std::min(*len, zs - div_zone_.Mod(off));
  }

  if (s.pattern == IoPattern::kSequential) {
    job.position += *len;
    if (job.position >= job.virtual_size) job.position = 0;
  }
  return off;
}

Result<SimTime> FioRunner::IssueOne(JobState& job, SimTime t) {
  std::uint64_t len = 0;
  const bool wrapped = (job.spec.pattern == IoPattern::kSequential &&
                        job.position == 0 && job.ios_done > 0);
  if (wrapped && job.spec.direction == IoDirection::kWrite &&
      job.spec.reset_zones_on_wrap) {
    // Rewriting a zoned region requires resetting its zones first. The
    // zone set is iterated in place (no temporary list) — this runs on
    // the issue path.
    const std::uint64_t zs = info_.zone_size_bytes;
    if (zs != 0) {
      auto reset = [&](std::uint64_t z) -> Status {
        auto r = device_.ResetZone(ZoneId{z}, t);
        if (!r.ok()) return r.status();
        t = r.value();
        return Status::Ok();
      };
      if (!job.spec.zone_list.empty()) {
        for (std::uint64_t z : job.spec.zone_list) {
          if (Status st = reset(z); !st.ok()) return st;
        }
      } else {
        const std::uint64_t z0 = job.spec.region_offset / zs;
        const std::uint64_t z1 =
            (job.spec.region_offset + job.spec.region_size + zs - 1) / zs;
        for (std::uint64_t z = z0; z < z1; ++z) {
          if (Status st = reset(z); !st.ok()) return st;
        }
      }
    }
  }
  const std::uint64_t off = PickOffset(job, &len);
  // IoRequest form: no token traffic on the issue path, so the returned
  // IoResult never allocates.
  auto r = job.spec.direction == IoDirection::kWrite
               ? device_.Write(IoRequest{off, len, t})
               : device_.Read(IoRequest{off, len, t});
  if (!r.ok()) return r.status();
  return r.value().done;
}

// One step of a job's submission chain. Each job runs `iodepth` chains
// that share its cursor, RNG and stop state; a chain issues the job's
// next IO and steps again at that IO's completion, so no job ever has
// more than iodepth IOs outstanding. iodepth=1 is exactly the
// synchronous loop.
std::optional<SimTime> FioRunner::Step(JobState& job, SimTime t) {
  if (job.ios_done >= job.spec.io_count || job.result.io_errors != 0) return std::nullopt;
  const std::uint64_t pos_before = job.position;
  auto comp = IssueOne(job, t);
  if (!comp.ok()) {
    // Media errors and read-only rejection are per-IO conditions: the job
    // records them and stops, the other jobs keep running (fio semantics).
    // Anything else is a runner/device bug and aborts the whole run.
    const StatusCode code = comp.status().code();
    if (code == StatusCode::kMediaError || code == StatusCode::kResourceExhausted) {
      job.result.first_error = comp.status();
      ++job.result.io_errors;
    } else {
      run_error_ = comp.status();
    }
    return std::nullopt;
  }
  // Reconstruct the issued length for accounting.
  std::uint64_t len = job.spec.block_size;
  if (job.spec.pattern == IoPattern::kSequential) {
    len = (job.position == 0 ? job.virtual_size : job.position) - pos_before;
  }
  job.ios_done++;
  job.result.throughput.bytes += len;
  job.result.throughput.ops += 1;
  job.result.latency.Record(comp.value() - t);
  // Chains can complete out of order; keep the latest completion.
  if (comp.value() > job.result.last_completion) {
    job.result.last_completion = comp.value();
  }
  return comp.value();
}

Result<RunResult> FioRunner::Run(const std::vector<JobSpec>& jobs, SimTime start) {
  for (const JobSpec& s : jobs) {
    if (Status st = ValidateSpec(s); !st.ok()) return st;
  }
  run_error_ = Status::Ok();

  std::vector<JobState> states;
  states.reserve(jobs.size());
  const std::uint64_t zs = info_.zone_size_bytes;
  for (const JobSpec& s : jobs) {
    JobState js;
    js.spec = s;
    js.virtual_size =
        s.zone_list.empty()
            ? s.region_size
            : s.zone_list.size() * (s.zone_span_bytes ? s.zone_span_bytes : zs);
    js.rng.Seed(s.seed * 0x9E3779B97F4A7C15ull + 1);
    js.rand_slots = s.block_size ? js.virtual_size / s.block_size : 0;
    js.rand_threshold = Rng::RejectionThreshold(js.rand_slots);
    js.div_span_ = FastDiv(s.zone_span_bytes ? s.zone_span_bytes : zs);
    js.result.name = s.name;
    js.result.first_issue = start;
    states.push_back(std::move(js));
  }

  // Arm every chain at `start`, job by job, then step the earliest chain
  // until none is left. A completion before its submission steps the
  // chain again at once, after the steps already due then.
  std::priority_queue<PendingStep, std::vector<PendingStep>, std::greater<>> pending;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::uint32_t d = 0; d < states[i].spec.iodepth; ++d) pending.push({start, seq++, i});
  }
  RunResult out;
  while (!pending.empty() && run_error_.ok()) {
    const PendingStep step = pending.top();
    pending.pop();
    ++out.events;
    if (const auto done = Step(states[step.job], step.when)) {
      pending.push({Later(*done, step.when), seq++, step.job});
    }
  }
  if (!run_error_.ok()) return run_error_;

  SimTime span_start = SimTime::Max();
  SimTime span_end = start;
  for (JobState& js : states) {
    // A job that failed on its first IO has no completions; guard the span.
    js.result.throughput.elapsed =
        js.result.last_completion > js.result.first_issue
            ? js.result.last_completion - js.result.first_issue
            : SimDuration();
    out.total.bytes += js.result.throughput.bytes;
    out.total.ops += js.result.throughput.ops;
    out.latency.Merge(js.result.latency);
    out.io_errors += js.result.io_errors;
    span_start = std::min(span_start, js.result.first_issue);
    span_end = std::max(span_end, js.result.last_completion);
    out.jobs.push_back(std::move(js.result));
  }
  out.total.elapsed = span_end - span_start;
  out.end_time = span_end;
  return out;
}

Status FioRunner::Precondition(StorageDevice& device, std::uint64_t offset,
                               std::uint64_t size, std::uint64_t block_size,
                               SimTime* end_time) {
  const std::uint64_t zs = device.info().zone_size_bytes;
  SimTime t = end_time ? *end_time : SimTime::Zero();
  std::uint64_t off = offset;
  const std::uint64_t end = offset + size;
  while (off < end) {
    std::uint64_t len = std::min(block_size, end - off);
    if (zs != 0) len = std::min(len, zs - (off % zs));
    auto r = device.Write(IoRequest{off, len, t});
    if (!r.ok()) return r.status();
    t = r.value().done;
    off += len;
  }
  auto f = device.Flush(t);
  if (!f.ok()) return f.status();
  if (end_time) *end_time = f.value();
  return Status::Ok();
}

}  // namespace conzone
