// Unit tests for the discrete-event engine: busy-until resource
// timelines and the event queue. The scheduler contract — time order,
// FIFO among equal timestamps, clamp semantics — is checked on two
// queues: EventQueue and ReferenceQueue, a separately written
// (when, seq) heap on std::push_heap kept here as the oracle. The
// randomized cross-check at the bottom proves EventQueue executes
// bit-identical event orders to the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"

namespace conzone {
namespace {

TEST(ResourceTimelineTest, IdleResourceStartsImmediately) {
  ResourceTimeline r;
  const auto res = r.Reserve(SimTime::FromNanos(100), SimDuration::Nanos(50));
  EXPECT_EQ(res.start.ns(), 100u);
  EXPECT_EQ(res.end.ns(), 150u);
  EXPECT_EQ(r.busy_until().ns(), 150u);
}

TEST(ResourceTimelineTest, BusyResourceQueues) {
  ResourceTimeline r;
  r.Reserve(SimTime::Zero(), SimDuration::Nanos(100));
  const auto second = r.Reserve(SimTime::FromNanos(10), SimDuration::Nanos(20));
  EXPECT_EQ(second.start.ns(), 100u);  // waits for the first
  EXPECT_EQ(second.end.ns(), 120u);
}

TEST(ResourceTimelineTest, GapLeavesResourceIdle) {
  ResourceTimeline r;
  r.Reserve(SimTime::Zero(), SimDuration::Nanos(10));
  const auto late = r.Reserve(SimTime::FromNanos(1000), SimDuration::Nanos(10));
  EXPECT_EQ(late.start.ns(), 1000u);
}

// The queue API the contract tests drive, so one test body checks both
// EventQueue and the reference.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual void Schedule(SimTime t, EventQueue::Callback cb) = 0;
  virtual bool RunNext() = 0;
  virtual void RunUntil(SimTime deadline) = 0;
  virtual SimTime now() const = 0;
  virtual std::size_t size() const = 0;
  virtual std::uint64_t executed() const = 0;
  virtual std::uint64_t clamped_schedules() const = 0;

  void RunAll() {
    while (RunNext()) {
    }
  }
  bool empty() const { return size() == 0; }
};

class QueueUnderTest final : public Scheduler {
 public:
  void Schedule(SimTime t, EventQueue::Callback cb) override {
    q_.Schedule(t, std::move(cb));
  }
  bool RunNext() override { return q_.RunNext(); }
  void RunUntil(SimTime deadline) override { q_.RunUntil(deadline); }
  SimTime now() const override { return q_.now(); }
  std::size_t size() const override { return q_.size(); }
  std::uint64_t executed() const override { return q_.executed(); }
  std::uint64_t clamped_schedules() const override { return q_.clamped_schedules(); }

 private:
  EventQueue q_;
};

// The reference: a binary min-heap over (when, seq), clamping past
// requests to now() like EventQueue.
class ReferenceQueue final : public Scheduler {
 public:
  void Schedule(SimTime t, EventQueue::Callback cb) override {
    if (t < now_) {
      t = now_;
      ++clamped_;
    }
    heap_.push_back(Entry{t, seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), RunsAfter);
  }
  bool RunNext() override {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), RunsAfter);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.when;
    ++executed_;
    e.cb(now_);
    return true;
  }
  void RunUntil(SimTime deadline) override {
    while (!heap_.empty() && heap_.front().when <= deadline) RunNext();
  }
  SimTime now() const override { return now_; }
  std::size_t size() const override { return heap_.size(); }
  std::uint64_t executed() const override { return executed_; }
  std::uint64_t clamped_schedules() const override { return clamped_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventQueue::Callback cb;
  };
  static bool RunsAfter(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t clamped_ = 0;
  SimTime now_;
};

enum class QueueKind : std::uint8_t { kReference, kEventQueue };

std::unique_ptr<Scheduler> MakeQueue(QueueKind kind) {
  if (kind == QueueKind::kEventQueue) return std::make_unique<QueueUnderTest>();
  return std::make_unique<ReferenceQueue>();
}

class EventQueueBackendTest : public ::testing::TestWithParam<QueueKind> {
 protected:
  std::unique_ptr<Scheduler> queue_ = MakeQueue(GetParam());
  Scheduler& q = *queue_;
};

TEST_P(EventQueueBackendTest, RunsInTimeOrder) {
  std::vector<int> order;
  q.Schedule(SimTime::FromNanos(300), [&](SimTime) { order.push_back(3); });
  q.Schedule(SimTime::FromNanos(100), [&](SimTime) { order.push_back(1); });
  q.Schedule(SimTime::FromNanos(200), [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().ns(), 300u);
}

TEST_P(EventQueueBackendTest, EqualTimestampsRunFifo) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(SimTime::FromNanos(10), [&, i](SimTime) { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(EventQueueBackendTest, EventsMayScheduleMoreEvents) {
  int count = 0;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    if (++count < 10) q.Schedule(t + SimDuration::Nanos(5), chain);
  };
  q.Schedule(SimTime::Zero(), chain);
  q.RunAll();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(q.now().ns(), 45u);
}

TEST_P(EventQueueBackendTest, RunUntilStopsAtDeadline) {
  int ran = 0;
  q.Schedule(SimTime::FromNanos(10), [&](SimTime) { ran++; });
  q.Schedule(SimTime::FromNanos(20), [&](SimTime) { ran++; });
  q.Schedule(SimTime::FromNanos(30), [&](SimTime) { ran++; });
  q.RunUntil(SimTime::FromNanos(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST_P(EventQueueBackendTest, RunUntilExactlyAtEventTimestampRunsIt) {
  // Deadline == event time is inclusive: the event at the deadline runs,
  // the next one (1 ns later) does not.
  std::vector<std::uint64_t> ran;
  q.Schedule(SimTime::FromNanos(100), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(100), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(101), [&](SimTime t) { ran.push_back(t.ns()); });
  q.RunUntil(SimTime::FromNanos(100));
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{100, 100}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.now().ns(), 100u);
  q.RunUntil(SimTime::FromNanos(101));
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{100, 100, 101}));
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueBackendTest, ScheduleAfterRunUntilPeekedPastDeadline) {
  // RunUntil must not "use up" the timeline: after it stops at a deadline
  // short of the next event, scheduling between the deadline and that
  // event must still run in correct order.
  std::vector<int> order;
  q.Schedule(SimTime::FromNanos(1000), [&](SimTime) { order.push_back(2); });
  q.RunUntil(SimTime::FromNanos(100));  // next event at 1000: runs nothing
  EXPECT_EQ(q.now().ns(), 0u);
  q.Schedule(SimTime::FromNanos(500), [&](SimTime) { order.push_back(1); });
  q.Schedule(SimTime::FromNanos(1000), [&](SimTime) { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().ns(), 1000u);
}

TEST_P(EventQueueBackendTest, RunNextOnEmptyReturnsFalse) {
  EXPECT_FALSE(q.RunNext());
}

TEST_P(EventQueueBackendTest, SchedulingIntoThePastClampsToNow) {
  // An event cannot run in the simulated past: the queue clamps it
  // forward to now() and counts the violation.
  std::vector<int> order;
  q.Schedule(SimTime::FromNanos(100), [&](SimTime) {
    order.push_back(1);
    // now() == 100; asking for t=40 must not run in the simulated past.
    q.Schedule(SimTime::FromNanos(40), [&](SimTime t) {
      order.push_back(2);
      EXPECT_EQ(t.ns(), 100u);  // clamped to now()
    });
  });
  q.Schedule(SimTime::FromNanos(100), [&](SimTime) { order.push_back(3); });
  q.RunAll();
  // The clamped event lands at now()=100 and runs FIFO *after* the event
  // already queued at 100.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(q.clamped_schedules(), 1u);
  EXPECT_EQ(q.now().ns(), 100u);
}

TEST_P(EventQueueBackendTest, ClampingNeverRewindsNow) {
  q.Schedule(SimTime::FromNanos(50), [&](SimTime) {
    q.Schedule(SimTime::FromNanos(10), [](SimTime) {});
  });
  q.RunAll();
  EXPECT_EQ(q.now().ns(), 50u);  // monotone despite the past request
  EXPECT_EQ(q.clamped_schedules(), 1u);
}

TEST_P(EventQueueBackendTest, CountsExecutedEvents) {
  for (int i = 0; i < 7; ++i) {
    q.Schedule(SimTime::FromNanos(static_cast<std::uint64_t>(i)), [](SimTime) {});
  }
  q.RunAll();
  EXPECT_EQ(q.executed(), 7u);
}

TEST_P(EventQueueBackendTest, SteadyStateChainRecyclesSlots) {
  // A long self-scheduling chain keeps exactly one event pending; the
  // slot pool must not grow with chain length (recycling, not leaking).
  int count = 0;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    if (++count < 10000) q.Schedule(t + SimDuration::Nanos(1), chain);
  };
  q.Schedule(SimTime::Zero(), chain);
  q.RunAll();
  EXPECT_EQ(count, 10000);
  EXPECT_EQ(q.executed(), 10000u);
}

TEST_P(EventQueueBackendTest, OversizedCapturesStillRun) {
  // Callables beyond the inline buffer take the heap fallback but behave
  // identically.
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  std::uint64_t got = 0;
  q.Schedule(SimTime::FromNanos(5), [big, &got](SimTime) { got = big[15]; });
  q.RunAll();
  EXPECT_EQ(got, 42u);
}

TEST_P(EventQueueBackendTest, FarFutureEventsBeyondWheelHorizon) {
  // Events many 2^32 ns windows apart, interleaved with near events,
  // keep time order and equal-timestamp FIFO.
  constexpr std::uint64_t kHorizon = 1ull << 32;
  std::vector<std::uint64_t> ran;
  std::vector<std::uint64_t> expect;
  // Two equal far timestamps (FIFO check), plus scattered window hops.
  const std::uint64_t far = 3 * kHorizon + 12345;
  q.Schedule(SimTime::FromNanos(far), [&](SimTime t) { ran.push_back(t.ns() + 0); });
  q.Schedule(SimTime::FromNanos(far), [&](SimTime t) { ran.push_back(t.ns() + 1); });
  q.Schedule(SimTime::FromNanos(7), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(kHorizon - 1), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(kHorizon + 1), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(10 * kHorizon), [&](SimTime t) {
    ran.push_back(t.ns());
    // A far event scheduling another far event (fresh overflow window).
    q.Schedule(t + SimDuration::Nanos(kHorizon + 5),
               [&](SimTime t2) { ran.push_back(t2.ns()); });
  });
  expect = {7, kHorizon - 1, kHorizon + 1, far + 0, far + 1,
            10 * kHorizon, 11 * kHorizon + 5};
  q.RunAll();
  EXPECT_EQ(ran, expect);
  EXPECT_EQ(q.executed(), 7u);
}

// The instance names date from when EventQueue was a timing wheel; they
// stay so the test IDs stay stable. BinaryHeap runs ReferenceQueue and
// TimingWheel runs EventQueue.
INSTANTIATE_TEST_SUITE_P(AllBackends, EventQueueBackendTest,
                         ::testing::Values(QueueKind::kReference,
                                           QueueKind::kEventQueue),
                         [](const ::testing::TestParamInfo<QueueKind>& info) {
                           return info.param == QueueKind::kReference ? "BinaryHeap"
                                                                      : "TimingWheel";
                         });

// --- EventQueue-vs-reference property test -------------------------------
//
// Randomized schedules driven through EventQueue and the reference must
// execute the exact same (timestamp, id) sequence — including FIFO order
// among equal timestamps. The generator mixes dense equal-timestamp
// bursts, nested scheduling from inside callbacks, clamped past
// requests, far-future events and RunUntil stops short of the next
// event.

struct TraceEvent {
  std::uint64_t when;
  std::uint64_t id;
  bool operator==(const TraceEvent&) const = default;
};

std::vector<TraceEvent> RunRandomSchedule(QueueKind kind, std::uint64_t seed) {
  const std::unique_ptr<Scheduler> queue = MakeQueue(kind);
  Scheduler& q = *queue;
  Rng rng(seed);
  std::vector<TraceEvent> trace;
  std::uint64_t next_id = 0;

  // Each executed event may reschedule children; cap total work.
  constexpr std::size_t kMaxEvents = 4000;
  auto schedule_one = [&](SimTime at) {
    const std::uint64_t id = next_id++;
    q.Schedule(at, [&, id](SimTime t) {
      trace.push_back(TraceEvent{t.ns(), id});
      if (trace.size() >= kMaxEvents) return;
      // 0-2 children at adversarial offsets.
      const std::uint64_t kids = rng.NextBelow(3);
      for (std::uint64_t k = 0; k < kids; ++k) {
        std::uint64_t off;
        switch (rng.NextBelow(6)) {
          case 0: off = 0; break;                        // same timestamp
          case 1: off = 1 + rng.NextBelow(4); break;     // very near
          case 2: off = 1 + rng.NextBelow(1 << 16); break;
          case 3: off = 1 + rng.NextBelow(1 << 30); break;
          case 4: off = (1ull << 32) + rng.NextBelow(1ull << 33); break;
          default: off = 1 + rng.NextBelow(256); break;
        }
        const std::uint64_t id2 = next_id++;
        q.Schedule(t + SimDuration::Nanos(off), [&, id2](SimTime t2) {
          trace.push_back(TraceEvent{t2.ns(), id2});
        });
      }
      // Occasionally request the simulated past (clamped to now, FIFO).
      if (rng.NextBelow(8) == 0 && t.ns() > 0) {
        const std::uint64_t id3 = next_id++;
        q.Schedule(SimTime::FromNanos(rng.NextBelow(t.ns())), [&, id3](SimTime t3) {
          trace.push_back(TraceEvent{t3.ns(), id3});
        });
      }
    });
  };

  // Seed schedule: bursts of equal timestamps plus scattered times.
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t base = rng.NextBelow(1ull << 34);
    const std::uint64_t burst = 1 + rng.NextBelow(4);
    for (std::uint64_t b = 0; b < burst; ++b) {
      schedule_one(SimTime::FromNanos(base));
    }
  }
  // Alternate RunUntil (stopping short of pending events) with more
  // scheduling, then drain.
  for (int round = 0; round < 4; ++round) {
    q.RunUntil(SimTime::FromNanos((round + 1) * (1ull << 32)));
    schedule_one(SimTime::FromNanos(q.now().ns() + rng.NextBelow(1ull << 33)));
  }
  q.RunAll();
  return trace;
}

TEST(EventQueueCrossCheckTest, WheelMatchesHeapOnRandomizedSchedules) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto ref_trace = RunRandomSchedule(QueueKind::kReference, seed);
    const auto trace = RunRandomSchedule(QueueKind::kEventQueue, seed);
    ASSERT_EQ(ref_trace.size(), trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref_trace.size(); ++i) {
      ASSERT_EQ(ref_trace[i].when, trace[i].when)
          << "seed " << seed << " event " << i;
      ASSERT_EQ(ref_trace[i].id, trace[i].id)
          << "seed " << seed << " event " << i;
    }
    // Sanity: timestamps monotone (no event ran in the past).
    for (std::size_t i = 1; i < trace.size(); ++i) {
      ASSERT_GE(trace[i].when, trace[i - 1].when);
    }
  }
}

}  // namespace
}  // namespace conzone
