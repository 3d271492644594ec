#include "buffer/write_buffer.hpp"

#include <cassert>
#include <string>

namespace conzone {

Status WriteBufferConfig::Validate(std::uint64_t slot_bytes) const {
  if (num_buffers == 0) return Status::InvalidArgument("buffers: need at least one");
  if (slot_bytes == 0 || buffer_bytes == 0 || buffer_bytes % slot_bytes != 0) {
    return Status::InvalidArgument("buffers: size must be a multiple of the slot size");
  }
  return Status::Ok();
}

WriteBufferPool::WriteBufferPool(const WriteBufferConfig& config, std::uint64_t slot_bytes)
    : cfg_(config),
      slot_capacity_(config.buffer_bytes / slot_bytes),
      div_num_buffers_(config.num_buffers) {
  assert(cfg_.Validate(slot_bytes).ok());
  buffers_.resize(cfg_.num_buffers);
  last_append_.resize(cfg_.num_buffers, 0);
}

WriteBufferId WriteBufferPool::BufferForZone(ZoneId zone) const {
  return WriteBufferId(div_num_buffers_.Mod(zone.value()));
}

bool WriteBufferPool::HasConflict(ZoneId zone) const {
  const BufferedExtent& b =
      buffers_[static_cast<std::size_t>(BufferForZone(zone).value())];
  return !b.empty() && b.owner != zone;
}

const BufferedExtent& WriteBufferPool::Contents(WriteBufferId buffer) const {
  return buffers_[static_cast<std::size_t>(buffer.value())];
}

std::uint64_t WriteBufferPool::FreeSlots(WriteBufferId buffer) const {
  return SlotCapacity() - buffers_[static_cast<std::size_t>(buffer.value())].slot_count();
}

Status WriteBufferPool::Append(ZoneId zone, Lpn first_lpn,
                               std::span<const SlotWrite> slots) {
  return AppendTo(BufferForZone(zone), zone, first_lpn, slots);
}

Status WriteBufferPool::AppendTo(WriteBufferId id, ZoneId owner, Lpn first_lpn,
                                 std::span<const SlotWrite> slots) {
  BufferedExtent& b = buffers_[static_cast<std::size_t>(id.value())];
  if (!b.empty() && b.owner != owner) {
    return Status::FailedPrecondition("buffer " + std::to_string(id.value()) +
                                      " still holds zone " +
                                      std::to_string(b.owner.value()) + " data");
  }
  if (slots.size() > FreeSlots(id)) {
    return Status::ResourceExhausted("buffer overflow: flush before appending");
  }
  if (b.empty()) {
    b.owner = owner;
    b.first_lpn = first_lpn;
  } else if (Lpn(b.first_lpn.value() + b.slot_count()) != first_lpn) {
    return Status::InvalidArgument("non-contiguous append to write buffer");
  }
  b.slots.insert(b.slots.end(), slots.begin(), slots.end());
  last_append_[static_cast<std::size_t>(id.value())] = ++append_clock_;
  ++stats_.appends;
  return Status::Ok();
}

WriteBufferId WriteBufferPool::PickBufferForStream(Lpn next_lpn) const {
  // 1. A buffer whose extent this write continues.
  for (std::uint32_t i = 0; i < cfg_.num_buffers; ++i) {
    const BufferedExtent& b = buffers_[i];
    if (!b.empty() && Lpn(b.first_lpn.value() + b.slot_count()) == next_lpn) {
      return WriteBufferId{i};
    }
  }
  // 2. An empty buffer.
  for (std::uint32_t i = 0; i < cfg_.num_buffers; ++i) {
    if (buffers_[i].empty()) return WriteBufferId{i};
  }
  // 3. The least recently appended buffer (caller flushes it first).
  std::uint32_t victim = 0;
  for (std::uint32_t i = 1; i < cfg_.num_buffers; ++i) {
    if (last_append_[i] < last_append_[victim]) victim = i;
  }
  return WriteBufferId{victim};
}

WriteBufferId WriteBufferPool::OverlappingBuffer(Lpn first, std::uint64_t n,
                                                 WriteBufferId except) const {
  for (std::uint32_t i = 0; i < cfg_.num_buffers; ++i) {
    const BufferedExtent& b = buffers_[i];
    if (WriteBufferId{i} == except || b.empty()) continue;
    if (first.value() < b.first_lpn.value() + b.slot_count() &&
        first.value() + n > b.first_lpn.value()) {
      return WriteBufferId{i};
    }
  }
  return WriteBufferId::Invalid();
}

const std::uint64_t* WriteBufferPool::BufferedToken(Lpn lpn) const {
  for (const BufferedExtent& b : buffers_) {
    if (!b.empty() && lpn >= b.first_lpn &&
        lpn.value() < b.first_lpn.value() + b.slot_count()) {
      return &b.slots[static_cast<std::size_t>(lpn.value() - b.first_lpn.value())]
                  .token;
    }
  }
  return nullptr;
}

BufferedExtent WriteBufferPool::Take(WriteBufferId buffer, bool conflict) {
  BufferedExtent& b = buffers_[static_cast<std::size_t>(buffer.value())];
  BufferedExtent out = std::move(b);
  b = BufferedExtent{};
  ++stats_.takes;
  if (conflict) ++stats_.conflicts;
  return out;
}

void WriteBufferPool::Discard(ZoneId zone) {
  for (auto& b : buffers_) {
    if (!b.empty() && b.owner == zone) b = BufferedExtent{};
  }
}

std::uint64_t WriteBufferPool::DiscardAll() {
  std::uint64_t lost = 0;
  for (auto& b : buffers_) {
    lost += b.slot_count();
    b = BufferedExtent{};
  }
  return lost;
}

}  // namespace conzone
