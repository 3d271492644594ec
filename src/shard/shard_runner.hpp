// The shard runner: the one place the emulator spreads work over host
// threads (DESIGN.md §5d, §7).
//
// A shard is a fully independent simulated device: its own config, its
// own seeded fault and workload streams, its own event queue. One
// simulated device cannot be sped up by host threads — its concurrency
// lives in the modelled channels, chips and buffers of one timeline —
// so the emulator scales out by running whole shards in parallel.
// RunShards runs a shard body once per shard id on the work-stealing
// executor (src/exec) and returns the results in shard-id order. Its
// two callers are ShardedRunner (one FIO job list per shard) and
// FleetSoakRunner (one crash-harness soak per shard); each keeps only
// its own seed derivation and merge.
//
// Determinism contract:
//   * A body is a pure function of its shard id and the read-only plan
//     it captures; shards share no mutable state.
//   * Each shard's outcome lands in its own preallocated slot, and the
//     slots are read only after the executor's join barrier, in shard-id
//     order.
//   * Any failing shard fails the run with the lowest failing shard id's
//     status, never with whichever failed first in wall-clock time.
// So the thread count and the scheduler change only wall-clock time,
// never an output bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "exec/executor.hpp"

namespace conzone {

/// Runs `body(shard_id)` -> Result<T> for every shard id in [0, shards)
/// and returns the values in shard-id order, or the status of the
/// lowest-numbered failing shard.
///
/// Execution: on `executor` when it is non-null (non-owning; `threads`
/// is then ignored). Otherwise `threads` lanes, where 0 means
/// min(shards, hardware threads) and more lanes than shards are never
/// started; one lane runs the shards inline on the calling thread.
template <class T, class Body>
Result<std::vector<T>> RunShards(std::uint32_t shards, std::uint32_t threads,
                                 Executor* executor, Body&& body) {
  if (shards == 0) {
    return Status::InvalidArgument("shard runner: need at least one shard");
  }
  std::vector<std::optional<Result<T>>> slots(shards);
  auto task = [&](std::size_t id) {
    slots[id].emplace(body(static_cast<std::uint32_t>(id)));
  };
  if (executor != nullptr) {
    executor->Run(shards, task);
  } else {
    if (threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = hw == 0 ? 1u : static_cast<std::uint32_t>(hw);
    }
    threads = std::min(threads, shards);
    if (threads <= 1) {
      SerialExecutor().Run(shards, task);
    } else {
      WorkStealingExecutor(threads).Run(shards, task);
    }
  }

  std::vector<T> results;
  results.reserve(shards);
  for (std::optional<Result<T>>& slot : slots) {
    if (!slot->ok()) return slot->status();
    results.push_back(std::move(*slot).value());
  }
  return results;
}

}  // namespace conzone
