// Unit tests for the busy-until resource timelines every contended
// hardware unit is modeled with.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace conzone
