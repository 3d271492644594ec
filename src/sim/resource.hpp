// Busy-until resource timelines.
//
// Every contended hardware unit in the emulator — a flash die, a channel
// bus, the host interface — is modeled as a `ResourceTimeline`: a single
// server that executes reservations back-to-back in arrival order. A
// reservation made at `earliest` starts at max(earliest, busy_until) and
// occupies the resource for its duration. This is the same scheduling
// model NVMeVirt/FEMU use for their delay emulation, reproduced here in
// simulated time.
#pragma once

#include "common/time.hpp"

namespace conzone {

class ResourceTimeline {
 public:
  struct Reservation {
    SimTime start;
    SimTime end;
  };

  /// Reserve the resource for `dur` no earlier than `earliest`.
  Reservation Reserve(SimTime earliest, SimDuration dur) {
    const SimTime start = Later(earliest, busy_until_);
    const SimTime end = start + dur;
    busy_until_ = end;
    return {start, end};
  }

  /// When the resource next becomes idle.
  SimTime busy_until() const { return busy_until_; }

 private:
  SimTime busy_until_;
};

}  // namespace conzone
