// Discrete-event queue.
//
// Drives the multi-job workload runner: each simulated job is a chain of
// events ("issue next request at time t"). Events at equal timestamps run
// in FIFO order of scheduling, which keeps runs deterministic.
//
// The queue is a hierarchical timing wheel: kLevels levels of kSlots
// slots each, level l covering an aligned 2^(kSlotBits*(l+1)) ns window
// around the wheel cursor, plus an overflow min-heap for events beyond
// the top level's horizon (~4.3 s). Schedule and pop are O(1) amortized
// for the near-future horizon where virtually all simulator events live
// (inter-event gaps are micro- to milliseconds). Execution order is
// exactly that of a (when, seq) priority queue, FIFO tie-break among
// equal timestamps included; tests/sim_test.cpp keeps such a queue as
// the reference and cross-checks the wheel against it over randomized
// schedules.
//
// Hot-path layout: callbacks live in a recycling slot pool of
// small-buffer-optimized `InlineFunction`s; wheel nodes, overflow
// entries and the expiry batch are recycled flat vectors. On the
// steady-state path (schedule/run/schedule...) nothing allocates: the
// containers only grow to the high-water mark of simultaneously pending
// events.
#pragma once

#include <array>
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

  bool empty() const { return pending_ == 0; }
  std::size_t size() const { return pending_; }

  /// Timestamp of the most recently executed event.
  SimTime now() const { return now_; }

  /// Total events executed so far (wall-clock benchmarking: events/s).
  std::uint64_t executed() const { return executed_; }

  /// Schedules whose timestamp was clamped forward to now().
  std::uint64_t clamped_schedules() const { return clamped_schedules_; }

 private:
  // --- Timing-wheel geometry ---
  static constexpr std::size_t kSlotBits = 8;
  static constexpr std::size_t kSlots = 1 << kSlotBits;  // 256 slots per level
  static constexpr std::size_t kLevels = 4;              // horizon 2^32 ns
  static constexpr std::uint64_t kHorizonNs = 1ull << (kSlotBits * kLevels);
  static constexpr std::uint32_t kNil = ~0u;

  /// A pending event outside the wheel lists: an overflow-heap entry, or
  /// one being re-placed by Resync.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;   // tie-break: FIFO among equal timestamps
    std::uint32_t slot;  // index into the callback pool
  };

  /// Intrusive singly-linked node of one pending wheel event.
  struct WheelNode {
    std::uint64_t when_ns;
    std::uint64_t seq;
    std::uint32_t cb;    // index into the callback pool
    std::uint32_t next;  // next node in the slot list, kNil at tail
  };

  struct SlotList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// One expiring event: all entries of a batch share `batch_when_`.
  struct BatchEntry {
    std::uint64_t seq;
    std::uint32_t cb;
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  static void SiftUp(std::vector<HeapEntry>& heap, std::size_t i);
  static void SiftDown(std::vector<HeapEntry>& heap, std::size_t i);

  std::uint32_t AcquireCallbackSlot(Callback cb);
  void RunCallback(std::uint32_t cb_slot, SimTime when);

  // --- Wheel internals ---
  std::uint32_t AcquireNode(std::uint64_t when_ns, std::uint64_t seq, std::uint32_t cb);
  void PushSlot(std::size_t level, std::size_t slot, std::uint32_t node);
  /// Place one pending event at the level its distance from the wheel
  /// cursor dictates, or in the overflow heap past the horizon.
  void InsertEvent(std::uint64_t when_ns, std::uint64_t seq, std::uint32_t cb);
  /// Pull overflow events whose aligned top-level window the cursor has
  /// reached down into the wheel.
  void PromoteOverflow();
  /// Re-anchor the wheel at an earlier cursor (only reachable when a
  /// RunUntil peek advanced the cursor past `t` without executing; rare).
  void Resync(std::uint64_t t_ns);
  /// Advance the cursor to the next pending event and stage its
  /// timestamp's events into the sorted expiry batch. False = empty.
  bool WheelAdvance();
  /// Timestamp of the next pending event without executing anything
  /// user-visible (may advance the wheel cursor). False = queue empty.
  bool PeekNextTime(SimTime* out);
  /// Lowest occupied slot index >= `from` at `level`, or kSlots if none.
  std::size_t NextOccupied(std::size_t level, std::size_t from) const;

  // --- Shared state ---
  std::vector<Callback> pool_;  // slot storage, recycled via free_slots_
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t clamped_schedules_ = 0;
  std::size_t pending_ = 0;
  SimTime now_;

  // --- Timing wheel ---
  std::uint64_t wheel_time_ns_ = 0;  ///< Cursor: <= every pending `when`.
  std::array<std::array<SlotList, kSlots>, kLevels> slots_{};
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> occupied_{};
  std::vector<WheelNode> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::vector<HeapEntry> overflow_;  // min-heap for events past the horizon
  /// Events expiring at batch_when_, sorted by seq; batch_pos_ consumed.
  std::vector<BatchEntry> batch_;
  std::size_t batch_pos_ = 0;
  std::uint64_t batch_when_ns_ = 0;
};

}  // namespace conzone
