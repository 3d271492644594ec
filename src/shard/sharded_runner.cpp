#include "shard/sharded_runner.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "core/device.hpp"
#include "shard/shard_runner.hpp"

namespace conzone {

namespace {

Result<ShardResult> RunOneShard(const ShardPlan& plan, std::uint32_t shard_id) {
  auto devr = ConZoneDevice::Create(plan.config.ForShard(shard_id, plan.master_seed));
  if (!devr.ok()) return devr.status();
  ConZoneDevice& dev = **devr;

  SimTime start = SimTime::Zero();
  if (plan.precondition_bytes > 0) {
    Status st = FioRunner::Precondition(dev, 0, plan.precondition_bytes,
                                        512 * kKiB, &start);
    if (!st.ok()) return st;
  }

  FioRunner fio(dev);
  auto run = fio.Run(ShardedRunner::JobsForShard(plan, shard_id), start);
  if (!run.ok()) return run.status();
  ShardResult out;
  out.shard_id = shard_id;
  out.run = std::move(run).value();
  out.reliability = dev.Reliability();
  out.recovery = dev.Recovery();
  out.device = dev.Stats();
  return out;
}

}  // namespace

ShardedRunner::ShardedRunner(ShardPlan plan) : plan_(std::move(plan)) {}

std::vector<JobSpec> ShardedRunner::JobsForShard(const ShardPlan& plan,
                                                 std::uint32_t shard_id) {
  std::vector<JobSpec> jobs = plan.jobs;
  if (shard_id == 0) return jobs;  // identity: 1-shard == single-device
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Salt with the job index too: jobs sharing a template seed must not
    // collapse into one stream on every shard.
    jobs[j].seed = MixSeeds(jobs[j].seed + j, plan.master_seed, shard_id);
  }
  return jobs;
}

Result<ShardedResult> ShardedRunner::Run() {
  auto shards = RunShards<ShardResult>(
      plan_.shards, plan_.threads, plan_.executor,
      [this](std::uint32_t id) { return RunOneShard(plan_, id); });
  if (!shards.ok()) return shards.status();

  ShardedResult merged;
  merged.shards = std::move(shards).value();
  SimDuration longest;
  for (const ShardResult& s : merged.shards) {
    merged.total.bytes += s.run.total.bytes;
    merged.total.ops += s.run.total.ops;
    longest = std::max(longest, s.run.total.elapsed);
    merged.latency.Merge(s.run.latency);
    merged.reliability.Merge(s.reliability);
    merged.recovery.Merge(s.recovery);
    merged.events += s.run.events;
    merged.io_errors += s.run.io_errors;
    merged.end_time = std::max(merged.end_time, s.run.end_time);
  }
  merged.total.elapsed = longest;
  return merged;
}

}  // namespace conzone
