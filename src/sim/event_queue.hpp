// Discrete-event queue.
//
// Drives the multi-job workload runner: each simulated job is a chain of
// events ("issue next request at time t"). Events at equal timestamps run
// in FIFO order of scheduling, which keeps runs deterministic.
//
// The queue is a binary min-heap over (when, seq) entries. FioRunner,
// its only caller, keeps at most one pending event per submission
// chain, so the heap never holds more than the sum of the jobs'
// iodepths (10 on the paper's FIO mix, at most 16 in any bench or
// example) and a schedule or pop sifts an entry at most four levels. A
// hierarchical timing wheel measured slower than this heap on that
// traffic (EXPERIMENTS.md, "Event queue: timing wheel vs binary heap").
// tests/sim_test.cpp keeps a second (when, seq) queue as the oracle and
// cross-checks the two over randomized schedules.
//
// Hot-path layout: callbacks live in a recycling slot pool of
// small-buffer-optimized `InlineFunction`s, and the heap holds 24-byte
// {when, seq, slot} entries. On the steady-state path
// (schedule/run/schedule...) nothing allocates: both vectors only grow
// to the high-water mark of simultaneously pending events.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "sim/inline_function.hpp"

namespace conzone {

class EventQueue {
 public:
  using Callback = InlineFunction<void(SimTime), 48>;

  /// Schedule `cb` to run at simulated time `t`. An event cannot run in
  /// the simulated past: a `t` earlier than now() is clamped to now() (it
  /// then runs FIFO after the events already due at now()) and counted
  /// in clamped_schedules().
  void Schedule(SimTime t, Callback cb);

  /// Pop and run the earliest event. Returns false if the queue is empty.
  bool RunNext();

  /// Run events until the queue drains or `deadline` is passed. Events
  /// scheduled exactly at `deadline` run.
  void RunUntil(SimTime deadline);

  /// Drain the queue completely.
  void RunAll();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the most recently executed event.
  SimTime now() const { return now_; }

  /// Total events executed so far (wall-clock benchmarking: events/s).
  std::uint64_t executed() const { return executed_; }

  /// Schedules whose timestamp was clamped forward to now().
  std::uint64_t clamped_schedules() const { return clamped_schedules_; }

 private:
  /// One pending event.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;   // tie-break: FIFO among equal timestamps
    std::uint32_t slot;  // index into the callback pool
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  static void SiftUp(std::vector<HeapEntry>& heap, std::size_t i);
  static void SiftDown(std::vector<HeapEntry>& heap, std::size_t i);

  std::uint32_t AcquireCallbackSlot(Callback cb);

  std::vector<HeapEntry> heap_;  // min-heap on (when, seq)
  std::vector<Callback> pool_;   // slot storage, recycled via free_slots_
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t clamped_schedules_ = 0;
  SimTime now_;
};

}  // namespace conzone
