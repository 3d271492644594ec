#include "sim/event_queue.hpp"

#include <utility>

namespace conzone {

// --- Heap primitives ---

void EventQueue::SiftUp(std::vector<HeapEntry>& heap, std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Earlier(heap[i], heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

void EventQueue::SiftDown(std::vector<HeapEntry>& heap, std::size_t i) {
  const std::size_t n = heap.size();
  while (true) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    std::size_t best = (r < n && Earlier(heap[r], heap[l])) ? r : l;
    if (!Earlier(heap[best], heap[i])) break;
    std::swap(heap[i], heap[best]);
    i = best;
  }
}

// --- Callback pool ---

std::uint32_t EventQueue::AcquireCallbackSlot(Callback cb) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::move(cb));
  }
  return slot;
}

// --- Public API ---

void EventQueue::Schedule(SimTime t, Callback cb) {
  if (t < now_) {
    t = now_;
    ++clamped_schedules_;
  }
  const std::uint32_t slot = AcquireCallbackSlot(std::move(cb));
  heap_.push_back(HeapEntry{t, next_seq_++, slot});
  SiftUp(heap_, heap_.size() - 1);
}

bool EventQueue::RunNext() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(heap_, 0);
  // Move the callback out of its slot and recycle the slot *before*
  // running: the callback may schedule new events.
  Callback cb = std::move(pool_[top.slot]);
  free_slots_.push_back(top.slot);
  now_ = top.when;
  ++executed_;
  cb(now_);
  return true;
}

void EventQueue::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) RunNext();
}

void EventQueue::RunAll() {
  while (RunNext()) {
  }
}

}  // namespace conzone
