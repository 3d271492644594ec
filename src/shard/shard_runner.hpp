// The shard runner: the one place the emulator spreads work over host
// threads (DESIGN.md §5d).
//
// A shard is a fully independent simulated device: its own config, its
// own seeded fault and workload streams, its own event queue. One
// simulated device cannot be sped up by host threads — its concurrency
// lives in the modelled channels, chips and buffers of one timeline —
// so the emulator scales out by running whole shards in parallel.
// RunShards runs a shard body once per shard id on plain threads that
// claim ids from one atomic counter, and returns the results in
// shard-id order. Its two callers are ShardedRunner (one FIO job list
// per shard) and FleetSoakRunner (one crash-harness soak per shard);
// each keeps only its own seed derivation and merge.
//
// Determinism contract:
//   * A body is a pure function of its shard id and the read-only plan
//     it captures; shards share no mutable state.
//   * Each shard's outcome lands in its own preallocated slot, and the
//     slots are read only after every thread has joined, in shard-id
//     order.
//   * Any failing shard fails the run with the lowest failing shard id's
//     status, never with whichever failed first in wall-clock time.
// So the thread count and the scheduler change only wall-clock time,
// never an output bit.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace conzone {

/// Runs `body(shard_id)` -> Result<T> for every shard id in [0, shards)
/// and returns the values in shard-id order, or the status of the
/// lowest-numbered failing shard.
///
/// `threads` counts the calling thread; 0 means hardware threads, and
/// more threads than shards are never started. At one thread the bodies
/// run on the calling thread in shard-id order. Bodies must not throw.
template <class T, class Body>
Result<std::vector<T>> RunShards(std::uint32_t shards, std::uint32_t threads,
                                 Body&& body) {
  if (shards == 0) {
    return Status::InvalidArgument("shard runner: need at least one shard");
  }
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1u : static_cast<std::uint32_t>(hw);
  }
  threads = std::min(threads, shards);

  std::vector<std::optional<Result<T>>> slots(shards);
  std::atomic<std::uint32_t> next_id{0};
  auto lane = [&] {
    for (std::uint32_t id = next_id++; id < shards; id = next_id++) {
      slots[id].emplace(body(id));
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::uint32_t i = 1; i < threads; ++i) helpers.emplace_back(lane);
    lane();
  }  // join: every slot is written

  std::vector<T> results;
  results.reserve(shards);
  for (std::optional<Result<T>>& slot : slots) {
    if (!slot->ok()) return slot->status();
    results.push_back(std::move(*slot).value());
  }
  return results;
}

}  // namespace conzone
