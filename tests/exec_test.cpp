// Executor tests: the determinism contract of the fork-join substrate
// (DESIGN.md §7) and its one consumer, the shard runner.
//
//   * Core contract: Run(n, fn) invokes fn exactly once per task id in
//     [0, n), at every thread count, including n == 0 and n much larger
//     than the lane count, and a batch can be reused thousands of times
//     (workers park between batches, they don't exit).
//   * Nesting: a Run() issued from inside a task executes inline on the
//     calling lane — no deadlock, every nested task still runs once.
//   * Steal stress: skewed task costs (one lane's deque loaded with the
//     expensive tasks) still complete exactly once each. Steal *counts*
//     are scheduling-dependent, so the test asserts completion, not that
//     stealing happened — on a single-hardware-thread host the workers
//     may never wake in time to steal.
//   * ShardedRunner cross-check: an external executor passed through
//     ShardPlan::executor yields the same fingerprint as the runner's
//     own pool at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "conzone/conzone.hpp"

namespace conzone {
namespace {

// ---------------------------------------------------------------------------
// Core contract
// ---------------------------------------------------------------------------

TEST(ExecutorTest, EveryTaskRunsExactlyOnce) {
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    WorkStealingExecutor exec(threads);
    EXPECT_EQ(exec.threads(), threads);
    for (const std::size_t tasks : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{64},
                                    std::size_t{1000}}) {
      std::vector<std::atomic<std::uint32_t>> hits(tasks);
      for (auto& h : hits) h.store(0);
      exec.Run(tasks, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < tasks; ++i) {
        ASSERT_EQ(hits[i].load(), 1u)
            << "threads=" << threads << " tasks=" << tasks << " id=" << i;
      }
    }
  }
}

TEST(ExecutorTest, SerialExecutorRunsInSubmissionOrder) {
  SerialExecutor exec;
  EXPECT_EQ(exec.threads(), 1u);
  std::vector<std::size_t> order;
  exec.Run(16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecutorTest, BatchesAreReusableManyTimes) {
  // Workers park between batches; thousands of small batches must not
  // leak, wedge or double-run (this is the per-IO fan-out pattern).
  WorkStealingExecutor exec(4);
  std::atomic<std::uint64_t> total{0};
  for (int batch = 0; batch < 2000; ++batch) {
    exec.Run(3, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 6000u);
}

TEST(ExecutorTest, NestedRunExecutesInlineWithoutDeadlock) {
  WorkStealingExecutor exec(4);
  EXPECT_FALSE(Executor::InTask());
  std::vector<std::atomic<std::uint32_t>> inner_hits(8 * 5);
  for (auto& h : inner_hits) h.store(0);
  std::atomic<std::uint32_t> nested_inline{0};
  exec.Run(8, [&](std::size_t outer) {
    EXPECT_TRUE(Executor::InTask());
    // A nested fork-join from a worker must not block the pool. It runs
    // inline on this lane; InTask() stays set throughout.
    exec.Run(5, [&](std::size_t inner) {
      EXPECT_TRUE(Executor::InTask());
      inner_hits[outer * 5 + inner].fetch_add(1);
    });
    nested_inline.fetch_add(1);
  });
  EXPECT_FALSE(Executor::InTask());
  EXPECT_EQ(nested_inline.load(), 8u);
  for (std::size_t i = 0; i < inner_hits.size(); ++i) {
    EXPECT_EQ(inner_hits[i].load(), 1u) << "slot " << i;
  }
}

TEST(ExecutorTest, StealStressSkewedTaskCosts) {
  // Round-robin dealing puts tasks 0, L, 2L, ... on lane 0 — make those
  // the expensive ones so other lanes drain instantly and must steal to
  // help (when the OS actually runs them in parallel). The assertable
  // contract is exactly-once completion with correct per-task results.
  constexpr std::size_t kTasks = 256;
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    WorkStealingExecutor exec(threads);
    std::vector<std::uint64_t> out(kTasks, 0);
    exec.Run(kTasks, [&](std::size_t i) {
      // Lane-0-dealt tasks spin ~100x longer than the rest.
      const bool expensive = (i % threads) == 0;
      std::uint64_t acc = i;
      const int spins = expensive ? 20000 : 200;
      for (int s = 0; s < spins; ++s) acc = acc * 6364136223846793005ull + 1;
      out[i] = acc;
    });
    // Recompute serially and compare: catches lost, duplicated and
    // cross-wired tasks in one shot.
    for (std::size_t i = 0; i < kTasks; ++i) {
      const bool expensive = (i % threads) == 0;
      std::uint64_t acc = i;
      const int spins = expensive ? 20000 : 200;
      for (int s = 0; s < spins; ++s) acc = acc * 6364136223846793005ull + 1;
      ASSERT_EQ(out[i], acc) << "threads=" << threads << " task=" << i;
    }
    // steals() is monotonic bookkeeping; just touch it for coverage.
    (void)exec.steals();
  }
}

// ---------------------------------------------------------------------------
// ShardedRunner on an external executor
// ---------------------------------------------------------------------------

ShardPlan ShardPlanForTest() {
  ShardPlan plan;
  plan.config = ConZoneConfig::PaperConfig();
  plan.config.geometry.blocks_per_chip = 20;
  plan.config.geometry.slc_blocks_per_chip = 4;
  JobSpec rd;
  rd.name = "randread";
  rd.pattern = IoPattern::kRandom;
  rd.direction = IoDirection::kRead;
  rd.block_size = 4096;
  rd.region_size = 8 * kMiB;
  rd.io_count = 600;
  rd.iodepth = 2;
  rd.seed = 7;
  plan.jobs = {rd};
  plan.shards = 4;
  plan.master_seed = 42;
  plan.precondition_bytes = 8 * kMiB;
  return plan;
}

std::string Fingerprint(const ShardedResult& r) {
  std::string fp;
  for (const ShardResult& s : r.shards) {
    fp += std::to_string(s.shard_id) + ":" + std::to_string(s.run.total.bytes) +
          "," + std::to_string(s.run.total.ops) + "," +
          std::to_string(s.run.end_time.ns()) + "," + s.run.latency.Summary() + ";";
  }
  fp += "total=" + std::to_string(r.total.bytes) + "," +
        std::to_string(r.total.ops) + "," + std::to_string(r.events) + "," +
        std::to_string(r.end_time.ns());
  return fp;
}

TEST(ExecutorShardedRunnerTest, ExternalExecutorMatchesInternalPool) {
  ShardPlan plan = ShardPlanForTest();
  plan.threads = 1;
  auto ref = ShardedRunner(plan).Run();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string reference = Fingerprint(ref.value());

  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    WorkStealingExecutor exec(threads);
    ShardPlan p = ShardPlanForTest();
    p.executor = &exec;
    p.threads = 0;  // must be ignored when an executor is supplied
    auto res = ShardedRunner(p).Run();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(Fingerprint(res.value()), reference) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace conzone
