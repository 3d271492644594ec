// Limited volatile write buffers (paper §II-B, §III-B).
//
// Consumer-grade storage cannot give every open zone its own
// superpage-sized aggregation buffer: F2FS opens up to 6 zones but the
// device has ~1 MiB of buffer SRAM, so all zones share a small pool
// (§IV-A: two 384 KiB buffers). A zone is assigned the buffer
// `zone_index mod num_buffers`; when the host switches to writing a zone
// whose buffer currently holds another zone's data, that data is flushed
// *prematurely* — usually with less than a programming unit of content —
// which is what pushes writes through the SLC secondary buffer and
// inflates write amplification (Fig. 6b).
//
// The pool is pure bookkeeping: it tracks which zone owns each buffer
// and the 4 KiB slots accumulated so far. The flush policy and flush
// timing live in the core device. In-place writes (conventional zones,
// Legacy) keep one rule the pool answers for: at most one buffered copy
// of an LPN (OverlappingBuffer).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "flash/array.hpp"

namespace conzone {

struct WriteBufferConfig {
  std::uint32_t num_buffers = 2;
  std::uint64_t buffer_bytes = 384 * kKiB;  ///< One superpage (§II-A).
  std::uint64_t slot_bytes = 4 * kKiB;

  Status Validate() const;
};

/// The content of one buffer: a run of consecutive logical slots of a
/// single zone.
struct BufferedExtent {
  ZoneId owner;
  Lpn first_lpn;                   ///< Device-absolute LPN of slots[0].
  std::vector<SlotWrite> slots;    ///< In logical order.

  bool empty() const { return slots.empty(); }
  std::uint64_t slot_count() const { return slots.size(); }
};

struct WriteBufferStats {
  std::uint64_t appends = 0;
  std::uint64_t takes = 0;
  std::uint64_t conflicts = 0;  ///< Takes forced by a different zone's arrival.
};

class WriteBufferPool {
 public:
  explicit WriteBufferPool(const WriteBufferConfig& config);

  const WriteBufferConfig& config() const { return cfg_; }

  /// The buffer a zone writes through: zone index mod pool size (the
  /// paper's rule).
  WriteBufferId BufferForZone(ZoneId zone) const;

  /// Whether appending for `zone` first requires flushing another zone's
  /// data out of its buffer (the §III-B conflicting mapping).
  bool HasConflict(ZoneId zone) const;

  /// Current content of a buffer (owner invalid when empty).
  const BufferedExtent& Contents(WriteBufferId buffer) const;

  std::uint64_t SlotCapacity() const { return cfg_.buffer_bytes / cfg_.slot_bytes; }
  std::uint64_t FreeSlots(WriteBufferId buffer) const;

  /// Append consecutive slots for `zone`. Preconditions (caller enforces
  /// by flushing first): the buffer is empty or already owned by `zone`
  /// with `first_lpn` continuing its run; the slots fit.
  Status Append(ZoneId zone, Lpn first_lpn, std::span<const SlotWrite> slots);

  /// Stream-keyed variant (Legacy: no zones, the controller detects
  /// write streams instead). Same preconditions, explicit buffer.
  Status AppendTo(WriteBufferId buffer, ZoneId owner, Lpn first_lpn,
                  std::span<const SlotWrite> slots);

  /// Buffer for a stream whose next slot is `next_lpn`: prefer the buffer
  /// whose extent it continues, then an empty buffer, then the least
  /// recently appended one (which the caller must flush first).
  WriteBufferId PickBufferForStream(Lpn next_lpn) const;

  /// A buffer other than `except` whose extent overlaps the slots
  /// [first, first + n), or an invalid id when none does. In-place
  /// writers take and flush every such buffer before appending those
  /// slots to `except`, so at most one buffered copy of any LPN exists
  /// and copies reach media in host-write order.
  WriteBufferId OverlappingBuffer(Lpn first, std::uint64_t n,
                                  WriteBufferId except) const;

  /// The buffered token of `lpn`, or null when no buffer holds it. At
  /// most one buffered copy of an LPN exists (OverlappingBuffer), so
  /// the search order does not matter.
  const std::uint64_t* BufferedToken(Lpn lpn) const;

  /// Remove and return a buffer's content for flushing. `conflict` marks
  /// a flush forced by another zone's write (statistics).
  BufferedExtent Take(WriteBufferId buffer, bool conflict);

  /// Drop any buffered data of `zone` without flushing (zone reset).
  void Discard(ZoneId zone);

  /// Power cut: drop every buffer's content (SRAM is volatile). Returns
  /// the number of 4 KiB slots destroyed, for RecoveryStats.
  std::uint64_t DiscardAll();

  const WriteBufferStats& stats() const { return stats_; }

 private:
  WriteBufferConfig cfg_;
  FastDiv div_num_buffers_;  ///< BufferForZone runs once per write IO.
  std::vector<BufferedExtent> buffers_;
  std::vector<std::uint64_t> last_append_;  ///< Recency for stream picking.
  std::uint64_t append_clock_ = 0;
  WriteBufferStats stats_;
};

}  // namespace conzone
