// Deterministic fork-join executor with work stealing (DESIGN.md §7).
//
// It has one consumer: the shard runner (shard/shard_runner.hpp), which
// runs whole device shards as its tasks. Parallelism stays at shard
// granularity because one simulated device cannot be sped up by host
// threads, and per-request fork/join measured slower than the serial
// member loop it replaced. The contract:
//
//   * Tasks are submitted in a fixed order with stable ids 0..n-1.
//   * A task writes only to state it owns (its result slot, its shard);
//     tasks never communicate.
//   * Run() is a join barrier: it returns only after every task of the
//     batch has completed, and the caller merges results strictly in
//     submission (task-id) order afterwards.
//
// Under that contract the thread count, the stealing order and the OS
// scheduler can change only wall-clock time — never an output bit. The
// tests in tests/exec_test.cpp cross-check parallel execution against
// the SerialExecutor reference backend at several thread counts.
//
// Scheduling. WorkStealingExecutor keeps `threads` lanes: the calling
// thread is lane 0 and `threads - 1` persistent workers are lanes
// 1..threads-1 (parked on a condition variable between batches, so a
// reused executor does not pay thread creation per batch). Run() deals task ids
// round-robin into per-lane deques in submission order; a lane pops its
// own deque front (FIFO — lane 0 alone degenerates to exactly the
// serial order) and steals from the back of other lanes' deques when
// its own runs dry.
//
// Nesting. A Run() issued from inside a task — e.g. a shard body that
// starts a shard run of its own — executes inline and serially on the
// calling lane. This guard is deadlock protection: blocking a worker on
// a nested join could wedge the pool, and the determinism contract
// makes inline execution indistinguishable from parallel execution.
//
// Tasks must not throw: the emulator's failure vocabulary is Status,
// carried out through the task's result slot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace conzone {

/// Non-owning reference to the batch's task body: Run(n, fn) invokes
/// fn(i) once for every i in [0, n). Two raw pointers — submitting a
/// batch never allocates. The referenced callable must outlive Run(),
/// which holds until the join barrier anyway.
class TaskRef {
 public:
  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, TaskRef>>>
  TaskRef(F&& f)  // NOLINT: implicit by design, mirrors function_ref.
      : ctx_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* ctx, std::size_t task) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(task);
        }) {}

  void operator()(std::size_t task) const { call_(ctx_, task); }

 private:
  void* ctx_;
  void (*call_)(void*, std::size_t);
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Lanes that can execute tasks concurrently (1 = serial).
  virtual std::uint32_t threads() const = 0;

  /// Run tasks 0..n-1 and join: returns only after every task has
  /// completed. fn may be invoked concurrently from several threads
  /// with distinct task ids. Not reentrant from different threads on
  /// the same executor; a nested call from inside a task runs inline.
  virtual void Run(std::size_t tasks, TaskRef fn) = 0;

  /// True while the calling thread is executing a task of any executor
  /// (the nested-Run guard).
  static bool InTask();
};

/// The reference backend: runs every task inline on the calling thread,
/// in submission order. Parallel backends are asserted bit-identical to
/// this one.
class SerialExecutor final : public Executor {
 public:
  std::uint32_t threads() const override { return 1; }
  void Run(std::size_t tasks, TaskRef fn) override;
};

class WorkStealingExecutor final : public Executor {
 public:
  /// `threads` lanes including the caller; 0 = hardware_concurrency.
  explicit WorkStealingExecutor(std::uint32_t threads = 0);
  ~WorkStealingExecutor() override;

  WorkStealingExecutor(const WorkStealingExecutor&) = delete;
  WorkStealingExecutor& operator=(const WorkStealingExecutor&) = delete;

  std::uint32_t threads() const override { return num_lanes_; }
  void Run(std::size_t tasks, TaskRef fn) override;

  /// Tasks executed by a lane other than the one they were dealt to
  /// (introspection for the steal-stress tests; monotonic).
  std::uint64_t steals() const;

 private:
  /// One lane's deque of dealt task ids. The owner pops head (FIFO in
  /// submission order), thieves pop tail. Guarded by `mu`: batches are
  /// small (one task per shard), so a plain mutex costs less than it
  /// looks and keeps the executor trivially TSan-clean.
  struct Lane {
    std::mutex mu;
    std::vector<std::uint32_t> tasks;
    std::size_t head = 0;
  };

  void WorkerMain(std::uint32_t lane);
  /// Pop own deque or steal, run one task. False = batch drained.
  bool RunOneTask(std::uint32_t lane);
  bool PopOwn(std::uint32_t lane, std::uint32_t* task);
  bool Steal(std::uint32_t thief, std::uint32_t* task);

  std::uint32_t num_lanes_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Signals a new batch (epoch bump).
  std::condition_variable done_cv_;  ///< Signals remaining_ hit zero.
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;
  std::optional<TaskRef> fn_;  ///< Valid while remaining_ > 0.
  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace conzone
