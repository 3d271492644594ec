#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace conzone {

// --- Heap primitives (the wheel's overflow_) ---

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

void EventQueue::RunCallback(std::uint32_t cb_slot, SimTime when) {
  // Move the callback out of its slot and recycle the slot *before*
  // running: the callback may schedule new events.
  Callback cb = std::move(pool_[cb_slot]);
  free_slots_.push_back(cb_slot);
  now_ = when;
  ++executed_;
  --pending_;
  cb(now_);
}

// --- Wheel node pool / slot lists ---

std::uint32_t EventQueue::AcquireNode(std::uint64_t when_ns, std::uint64_t seq,
                                      std::uint32_t cb) {
  std::uint32_t n;
  if (!free_nodes_.empty()) {
    n = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[n] = WheelNode{when_ns, seq, cb, kNil};
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(WheelNode{when_ns, seq, cb, kNil});
  }
  return n;
}

void EventQueue::PushSlot(std::size_t level, std::size_t slot, std::uint32_t node) {
  SlotList& list = slots_[level][slot];
  if (list.head == kNil) {
    list.head = list.tail = node;
    occupied_[level][slot >> 6] |= 1ull << (slot & 63);
  } else {
    nodes_[list.tail].next = node;
    list.tail = node;
  }
}

std::size_t EventQueue::NextOccupied(std::size_t level, std::size_t from) const {
  if (from >= kSlots) return kSlots;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupied_[level][word] & (~0ull << (from & 63));
  while (true) {
    if (bits != 0) {
      return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
    if (++word >= kSlots / 64) return kSlots;
    bits = occupied_[level][word];
  }
}

// Place one event relative to the current cursor. d == 0 means "due
// exactly at the cursor": it joins the expiry batch (callers keep the
// batch seq-sorted — Schedule appends a max seq; WheelAdvance/Resync
// sort after bulk inserts).
void EventQueue::InsertEvent(std::uint64_t when_ns, std::uint64_t seq,
                             std::uint32_t cb) {
  const std::uint64_t d = when_ns ^ wheel_time_ns_;
  if (d == 0) {
    batch_.push_back(BatchEntry{seq, cb});
    batch_when_ns_ = when_ns;
    return;
  }
  if (d >= kHorizonNs) {
    // `when` lies in a later 2^32-aligned window than the cursor: the
    // wheel cannot index it yet. Strictly later than every wheel event
    // (which all share the cursor's window), so a min-heap suffices.
    overflow_.push_back(HeapEntry{SimTime::FromNanos(when_ns), seq, cb});
    SiftUp(overflow_, overflow_.size() - 1);
    return;
  }
  const std::size_t level = static_cast<std::size_t>(63 - std::countl_zero(d)) >> 3;
  const std::size_t slot =
      static_cast<std::size_t>((when_ns >> (level * kSlotBits)) & (kSlots - 1));
  PushSlot(level, slot, AcquireNode(when_ns, seq, cb));
}

void EventQueue::PromoteOverflow() {
  while (!overflow_.empty() &&
         (overflow_.front().when.ns() ^ wheel_time_ns_) < kHorizonNs) {
    const HeapEntry top = overflow_.front();
    overflow_.front() = overflow_.back();
    overflow_.pop_back();
    if (!overflow_.empty()) SiftDown(overflow_, 0);
    InsertEvent(top.when.ns(), top.seq, top.slot);
  }
}

// The cursor only moves forward, and Schedule only ever targets
// t >= now(). The one way those can disagree: RunUntil peeks the next
// event (advancing the cursor to its timestamp) and finds it beyond the
// deadline — then a later Schedule lands in [now, cursor). Re-anchor the
// wheel at t and re-place everything pending. Rare, O(pending).
void EventQueue::Resync(std::uint64_t t_ns) {
  std::vector<HeapEntry> moved;
  moved.reserve(pending_);
  for (std::size_t level = 0; level < kLevels; ++level) {
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      std::uint32_t n = slots_[level][slot].head;
      while (n != kNil) {
        const WheelNode& node = nodes_[n];
        moved.push_back(
            HeapEntry{SimTime::FromNanos(node.when_ns), node.seq, node.cb});
        const std::uint32_t next = node.next;
        free_nodes_.push_back(n);
        n = next;
      }
      slots_[level][slot] = SlotList{};
    }
    occupied_[level].fill(0);
  }
  for (std::size_t i = batch_pos_; i < batch_.size(); ++i) {
    moved.push_back(HeapEntry{SimTime::FromNanos(batch_when_ns_),
                              batch_[i].seq, batch_[i].cb});
  }
  batch_.clear();
  batch_pos_ = 0;
  wheel_time_ns_ = t_ns;
  batch_when_ns_ = t_ns;
  for (const HeapEntry& e : moved) InsertEvent(e.when.ns(), e.seq, e.slot);
  std::sort(batch_.begin(), batch_.end(),
            [](const BatchEntry& a, const BatchEntry& b) { return a.seq < b.seq; });
}

// Advance the cursor to the earliest pending timestamp and stage every
// event due at it into batch_ (sorted by seq). Precondition: the current
// batch is fully consumed.
bool EventQueue::WheelAdvance() {
  batch_.clear();
  batch_pos_ = 0;
  if (pending_ == 0) return false;
  while (true) {
    // Events placed at the cursor itself (by a cascade or an overflow
    // promotion below) are the earliest pending: finalize them.
    if (!batch_.empty()) {
      std::sort(
          batch_.begin(), batch_.end(),
          [](const BatchEntry& a, const BatchEntry& b) { return a.seq < b.seq; });
      batch_when_ns_ = wheel_time_ns_;
      return true;
    }
    // Level 0: each occupied slot holds one exact timestamp; the nearest
    // occupied slot above the cursor's own index is the next due time.
    // (Occupied indexes are strictly above the cursor byte at every
    // level — an event equal at that byte would have sat a level lower.)
    const std::size_t cur0 = static_cast<std::size_t>(wheel_time_ns_ & (kSlots - 1));
    const std::size_t s0 = NextOccupied(0, cur0 + 1);
    if (s0 < kSlots) {
      wheel_time_ns_ = (wheel_time_ns_ & ~static_cast<std::uint64_t>(kSlots - 1)) |
                       static_cast<std::uint64_t>(s0);
      std::uint32_t n = slots_[0][s0].head;
      while (n != kNil) {
        batch_.push_back(BatchEntry{nodes_[n].seq, nodes_[n].cb});
        const std::uint32_t next = nodes_[n].next;
        free_nodes_.push_back(n);
        n = next;
      }
      slots_[0][s0] = SlotList{};
      occupied_[0][s0 >> 6] &= ~(1ull << (s0 & 63));
      continue;  // finalized at loop top
    }
    // Levels 1..k: advance to the nearest occupied slot's window start
    // and cascade its events down (they re-insert at lower levels or,
    // if due exactly at the new cursor, into the batch).
    bool cascaded = false;
    for (std::size_t level = 1; level < kLevels; ++level) {
      const std::size_t shift = level * kSlotBits;
      const std::size_t cur =
          static_cast<std::size_t>((wheel_time_ns_ >> shift) & (kSlots - 1));
      const std::size_t s = NextOccupied(level, cur + 1);
      if (s == kSlots) continue;
      const std::uint64_t window = (1ull << (shift + kSlotBits)) - 1;
      wheel_time_ns_ = (wheel_time_ns_ & ~window) |
                       (static_cast<std::uint64_t>(s) << shift);
      std::uint32_t n = slots_[level][s].head;
      slots_[level][s] = SlotList{};
      occupied_[level][s >> 6] &= ~(1ull << (s & 63));
      while (n != kNil) {
        const WheelNode node = nodes_[n];
        free_nodes_.push_back(n);
        InsertEvent(node.when_ns, node.seq, node.cb);
        n = node.next;
      }
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    // Wheel empty: jump to the earliest overflow event's timestamp and
    // pull its whole 2^32 window in. pending_ > 0 guarantees non-empty.
    wheel_time_ns_ = overflow_.front().when.ns();
    PromoteOverflow();
  }
}

bool EventQueue::PeekNextTime(SimTime* out) {
  if (batch_pos_ >= batch_.size() && !WheelAdvance()) return false;
  *out = SimTime::FromNanos(batch_when_ns_);
  return true;
}

// --- Public API ---

void EventQueue::Schedule(SimTime t, Callback cb) {
  if (t < now_) {
    t = now_;
    ++clamped_schedules_;
  }
  const std::uint32_t slot = AcquireCallbackSlot(std::move(cb));
  const std::uint64_t seq = next_seq_++;
  ++pending_;
  if (t.ns() < wheel_time_ns_) Resync(t.ns());
  InsertEvent(t.ns(), seq, slot);
}

bool EventQueue::RunNext() {
  if (batch_pos_ >= batch_.size() && !WheelAdvance()) return false;
  const BatchEntry e = batch_[batch_pos_++];
  RunCallback(e.cb, SimTime::FromNanos(batch_when_ns_));
  return true;
}

void EventQueue::RunUntil(SimTime deadline) {
  SimTime t;
  while (PeekNextTime(&t) && t <= deadline) RunNext();
}

void EventQueue::RunAll() {
  while (RunNext()) {
  }
}

}  // namespace conzone
