// Flash media state.
//
// `FlashArray` owns the logical state of every 4 KiB slot in the device:
// free / valid / invalid, the payload token stored there, and the OOB
// (out-of-band) back-pointer to the logical page that wrote it — which is
// what real FTLs use during GC to find the forward-map entry to fix up.
//
// It enforces the NAND programming contract:
//   - a block must be erased before it is reprogrammed;
//   - programming within a block is strictly sequential;
//   - normal (TLC/QLC) blocks program in whole one-shot units
//     (`program_unit`, §II-A) — partial programming is an error;
//   - SLC blocks may partial-program at slot (4 KiB) granularity, but
//     only their derated capacity (1/bits-per-cell of the block) is
//     usable.
//
// FlashArray is purely functional state — the time each operation takes
// is the job of FlashTimingEngine.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/zeroed_alloc.hpp"
#include "fault/fault_model.hpp"
#include "flash/geometry.hpp"

namespace conzone {

enum class SlotState : std::uint8_t { kFree = 0, kValid = 1, kInvalid = 2 };

/// Per-block media health. A block that fails a program or an erase is
/// grown bad and retired: it refuses further programs/erases but its
/// already-valid slots stay readable until the FTL drains them.
enum class BlockHealth : std::uint8_t { kGood = 0, kRetired = 1 };

/// One 4 KiB unit of data to program. `lpn` is recorded in the slot's OOB
/// area; padding slots (alignment filler) carry an invalid lpn.
struct SlotWrite {
  Lpn lpn;
  std::uint64_t token = 0;  ///< Payload fingerprint for integrity checks.
};

struct SlotRead {
  SlotState state = SlotState::kFree;
  Lpn lpn;
  std::uint64_t token = 0;
  /// Read-retry steps this sense needed before it ECC-corrected
  /// (0 = clean). Drawn from the attached FaultModel; always 0 without one.
  std::uint32_t retry_level = 0;
};

/// Cumulative media counters, split by cell type — the denominator and
/// numerator of write amplification live here.
struct MediaCounters {
  std::uint64_t slots_programmed_slc = 0;
  std::uint64_t slots_programmed_normal = 0;
  std::uint64_t page_reads = 0;
  std::uint64_t erases_slc = 0;
  std::uint64_t erases_normal = 0;

  std::uint64_t TotalSlotsProgrammed() const {
    return slots_programmed_slc + slots_programmed_normal;
  }

  /// Per-field delta against an earlier snapshot, saturating at zero so a
  /// stale baseline (taken before a mid-run ResetCounters) can never make
  /// derived metrics such as write amplification go negative.
  MediaCounters Since(const MediaCounters& base) const;
};

class FlashArray {
 public:
  explicit FlashArray(const FlashGeometry& geometry);

  const FlashGeometry& geometry() const { return geo_; }

  /// Attach a fault model. Null (default) means the fault paths below are
  /// never taken and no RNG is consumed. The model must outlive the array.
  void AttachFaultModel(FaultModel* fault) { fault_ = fault; }
  bool FaultsEnabled() const { return fault_ != nullptr && fault_->enabled(); }

  /// Program `writes.size()` consecutive slots of `block`, starting at the
  /// block's internal write position. Normal blocks additionally require
  /// the write to be a whole number of program units.
  ///
  /// With a fault model attached this may return MediaError: the attempted
  /// slots are burned (left kInvalid, cursor advanced) and the block is
  /// retired. The caller must re-drive the payload into a healthy block.
  Status ProgramSlots(BlockId block, std::span<const SlotWrite> writes);

  /// State + OOB + payload of one slot (any state; callers check). With a
  /// fault model attached, `retry_level` reports how many read-retry steps
  /// this sense needed — the timing engine turns that into latency.
  SlotRead ReadSlot(Ppn ppn) const;

  /// What ReadPageRun served: its leading good slots and the worst
  /// read-retry level among them.
  struct PageRun {
    std::uint32_t good = 0;
    std::uint32_t retries = 0;
  };

  /// n ReadSlot calls in one, for `n` consecutive slots of one flash page
  /// from `first` that should hold lpns `lpn`, `lpn` + 1, ...: walks them
  /// in order, appending each token to `tokens` (when non-null), and stops
  /// at the first slot that is not valid or holds another lpn. Every
  /// valid-state slot reached draws its read-retry level in slot order,
  /// the one it stops at included, exactly as ReadSlot does. Slots past
  /// the array read as free.
  PageRun ReadPageRun(Ppn first, std::uint32_t n, Lpn lpn,
                      std::vector<std::uint64_t>* tokens) const;

  /// Record a physical page read (for MediaCounters only; timing is the
  /// engine's job).
  void CountPageRead() {
    counters_.page_reads++;
    lifetime_.page_reads++;
  }

  /// Mark a previously valid slot invalid (host overwrite / zone reset /
  /// GC migration source).
  Status InvalidateSlot(Ppn ppn);

  /// With a fault model attached this may return MediaError: the erase
  /// count still accrues (wear happens), the block is retired, and its
  /// slots are left as-is; callers scrub via ScrubBlock.
  Status EraseBlock(BlockId block);

  // --- Reliability ---

  /// Force-retire a block (grown bad). Idempotent. Retired blocks refuse
  /// ProgramSlots/EraseBlock but stay readable.
  void RetireBlock(BlockId block);
  bool IsRetired(BlockId block) const;
  BlockHealth HealthOfBlock(BlockId block) const;
  /// Healthy (non-retired) blocks remaining in the SLC region — the input
  /// to the read-only spare-floor check.
  std::uint32_t HealthySlcBlocks() const;

  /// Drop every non-free slot of a retired block to kInvalid and zero its
  /// valid count, WITHOUT resetting the program cursor (the block was not
  /// erased — it just holds no live data any more). Used after an erase
  /// failure, once GC has migrated the block's live slots away.
  void ScrubBlock(BlockId block);

  const ReliabilityStats& reliability() const { return rel_; }
  ReliabilityStats& mutable_reliability() { return rel_; }

  // --- Power loss ---
  //
  // With the journal enabled the array records an undo entry for every
  // successful ProgramSlots / InvalidateSlot / EraseBlock (fault "burn"
  // paths are excluded: a burn always retires the block, so its cursor
  // and dead slots are never consulted again). Callers stamp each batch
  // with its media window [start, end); ApplyPowerCut(t) then rolls the
  // media back to what a cut at simulated time `t` would leave behind:
  //
  //   - A program whose window has ended (end <= t) is durable and kept.
  //     Any other journaled program — in flight or still queued — is
  //     past its point of no return: its target slots are indeterminate
  //     and are marked kInvalid (the batch is all-or-nothing; a torn
  //     superpage never surfaces partial data).
  //   - An invalidate is bound to the batch that superseded it; if that
  //     batch is not durable, the invalidated slot is resurrected
  //     (kValid again, OOB intact) so the old copy remains the one the
  //     recovery scan finds.
  //   - An erase that never started (start > t) is undone from its
  //     pre-image; an erase in flight at the cut leaves the block's
  //     content untrusted — it stays erased here and is reported for a
  //     real re-erase during recovery. The pre-image holds only the
  //     slots below the block's program cursor: every slot at or past
  //     the cursor is erased at all times (programs write only below it,
  //     and burns, scrubs and undo never move it back).
  //
  // Entries are processed newest-first so chains (write A, supersede
  // with B, supersede with C, cut) resolve to exactly one surviving
  // copy. Entries not yet stamped at the cut are treated as never
  // issued (the conservative direction).

  /// Counters and work list produced by ApplyPowerCut. The journal is
  /// cleared afterwards; the report is the only record of what was lost.
  struct PowerCutReport {
    std::uint64_t torn_program_slots = 0;     ///< program started, incomplete at cut
    std::uint64_t unissued_program_slots = 0; ///< program queued, never started
    std::uint64_t resurrected_slots = 0;      ///< invalidates undone
    std::uint64_t restored_erases = 0;        ///< erase pre-images restored
    /// Blocks whose erase was in flight at the cut: content untrusted,
    /// recovery must EraseBlock them again (with real timing + faults).
    std::vector<BlockId> reerase;
    /// Blocks the undo pass made *older state visible* in — resurrected
    /// slots and restored erase pre-images. A checkpoint taken before the
    /// cut may map these blocks' lpns elsewhere (or not at all), so a
    /// checkpoint-bounded mount scan must rescan them even though their
    /// last program seq predates the checkpoint. May contain duplicates.
    std::vector<BlockId> rescan;
  };

  /// Turn undo journaling on. Off (default) costs nothing on the hot
  /// path; the owning device enables it when power-loss emulation is
  /// configured.
  void EnableJournal(bool on) { journal_on_ = on; }
  bool JournalEnabled() const { return journal_on_; }
  /// Suspend capture while recovery itself mutates the media (recovery
  /// writes become the new durable baseline, not undoable state).
  void PauseJournal(bool paused) { journal_paused_ = paused; }

  /// Opaque position in the journal's append order. Take one with
  /// MarkJournal() before a batch's first append; StampJournal then
  /// stamps only that batch's entries, so a nested batch (GC running
  /// mid-flush, say) can never capture its caller's still-unstamped
  /// entries under its own — typically earlier-closing — window.
  std::uint64_t MarkJournal() const { return journal_seq_; }

  /// Stamp every not-yet-stamped journal entry appended at or after
  /// `mark` with the media window [start, end). Call immediately after
  /// computing a batch's timing; entries a nested batch already stamped
  /// keep their window (stamping is first-stamp-wins per entry).
  void StampJournal(std::uint64_t mark, SimTime start, SimTime end);

  /// Drop stamped entries from the journal front whose window ended at
  /// or before `horizon`. Host ops call this with their submission time:
  /// a future cut can never be earlier, so those entries are durable.
  void PruneJournal(SimTime horizon);

  /// Roll the media back to its durable state at cut time `cut` and
  /// clear the journal. Requires the journal enabled.
  PowerCutReport ApplyPowerCut(SimTime cut);

  /// Mount-time OOB scan read: state + OOB + payload like ReadSlot, but
  /// never consults the fault model — recovery charges scan timing (and
  /// draws nothing), so a cut+recover cycle does not perturb the fault
  /// RNG stream of subsequent host reads.
  SlotRead PeekSlot(Ppn ppn) const;

  // --- Inspectors ---
  /// The chip a slot lies on and whether its block is SLC: a chip's SLC
  /// blocks come first, so one reciprocal division by a chip's slot
  /// count decides both (the read path places every page it reads).
  struct SlotPlace {
    ChipId chip;
    bool slc = false;
  };
  SlotPlace PlaceOf(Ppn ppn) const {
    const std::uint64_t chip = div_slots_per_chip_.Div(ppn.value());
    return {ChipId(chip),
            ppn.value() - chip * div_slots_per_chip_.value() < slc_slots_per_chip_};
  }
  SlotState StateOfSlot(Ppn ppn) const;
  std::uint32_t NextProgramSlot(BlockId block) const;
  /// Global program batch counter: incremented once per ProgramSlots call
  /// (success or fault burn) and stamped into the target block. A
  /// checkpoint records this watermark; at mount, blocks whose stamp is
  /// at or below the watermark held exactly the data the checkpoint saw.
  std::uint64_t program_seq() const { return program_seq_; }
  /// Stamp of the most recent program batch into `block` (0 = never
  /// programmed since its last successful erase). Inline: the recovery
  /// scan probes every block once per mapping run.
  std::uint64_t LastProgramSeq(BlockId block) const {
    return blocks_[static_cast<std::size_t>(block.value())].last_program_seq;
  }
  /// Stamp of the most recent slot-state change in `block` — programs,
  /// invalidations, erases and scrubs all count (same counter domain as
  /// program_seq()). A checkpoint image entry pointing into a block whose
  /// change stamp is at or below the image's watermark is still exactly
  /// what the snapshot saw, so mount may accept it without re-reading
  /// the slot. Never rolled back by power-cut undo (conservative: an
  /// undone block looks dirty, and the forced-rescan list covers it).
  std::uint64_t LastChangeSeq(BlockId block) const {
    return blocks_[static_cast<std::size_t>(block.value())].last_change_seq;
  }
  /// Usable slot capacity of the block (derated for SLC blocks).
  std::uint32_t UsableSlots(BlockId block) const;
  bool BlockFull(BlockId block) const;
  std::uint32_t ValidSlots(BlockId block) const;
  std::uint32_t EraseCount(BlockId block) const;
  const MediaCounters& counters() const { return counters_; }
  /// Monotone since-construction counters, unaffected by ResetCounters —
  /// take deltas with MediaCounters::Since when a phase may reset mid-run.
  const MediaCounters& lifetime_counters() const { return lifetime_; }
  /// Zero the phase counters (benchmark phase boundaries). `lifetime_`
  /// keeps counting so derived metrics can clamp instead of going negative.
  void ResetCounters() { counters_ = MediaCounters{}; }

 private:
  struct BlockMeta {
    std::uint32_t next_slot = 0;   // sequential-programming cursor
    std::uint32_t valid_slots = 0;
    std::uint32_t erase_count = 0;
    std::uint64_t last_program_seq = 0;  // global batch stamp, 0 after erase
    std::uint64_t last_change_seq = 0;   // any slot-state change (monotone)
    BlockHealth health = BlockHealth::kGood;
  };

  /// 16 bytes per slot. `oob` holds the SlotState in its top two bits
  /// and lpn + 1 below them, 0 meaning "no lpn" (alignment padding), so
  /// an all-zero slot is a free slot with no lpn — the value the
  /// lazily zeroed `slots_` storage starts every slot at. An invalid id
  /// is all ones, so lpn + 1 wraps it to 0 and 0 - 1 wraps back.
  struct Slot {
    std::uint64_t token = 0;
    std::uint64_t oob = 0;
  };
  static_assert(sizeof(Slot) == 16);
  static_assert(Lpn::kInvalidValue + 1 == 0);
  static constexpr int kStateShift = 62;
  static constexpr std::uint64_t kLpnMask = (std::uint64_t{1} << kStateShift) - 1;

  static std::uint64_t PackOob(SlotState state, Lpn lpn) {
    assert(!lpn.valid() || lpn.value() < kLpnMask);
    return (static_cast<std::uint64_t>(state) << kStateShift) | (lpn.value() + 1);
  }
  static SlotState StateOf(const Slot& s) {
    return static_cast<SlotState>(s.oob >> kStateShift);
  }
  static Lpn LpnOf(const Slot& s) { return Lpn((s.oob & kLpnMask) - 1); }
  static void SetState(Slot& s, SlotState state) {
    s.oob = (s.oob & kLpnMask) | (static_cast<std::uint64_t>(state) << kStateShift);
  }

  std::size_t SlotIndex(Ppn ppn) const { return static_cast<std::size_t>(ppn.value()); }

  struct JournalEntry {
    enum class Kind : std::uint8_t { kProgram, kInvalidate, kErase };
    Kind kind = Kind::kProgram;
    std::uint64_t seq = 0;  // append order, compared against batch marks
    bool stamped = false;
    SimTime start;  // media window [start, end); valid once stamped
    SimTime end;
    BlockId block;                 // program / erase
    std::uint32_t first_slot = 0;  // program: offset within block
    std::uint32_t count = 0;       // program: slots written
    Ppn ppn;                       // invalidate
    std::vector<Slot> image;       // erase: pre-image of [0, next_slot)
    BlockMeta prior_meta;          // erase: meta before the erase
  };

  /// Draw one sense's read-retry level from the attached fault model and
  /// book it (callers check FaultsEnabled()).
  std::uint32_t DrawReadRetry(bool slc, std::uint32_t erase_count) const;

  bool JournalActive() const { return journal_on_ && !journal_paused_; }
  void UndoProgram(const JournalEntry& e, SimTime cut, PowerCutReport& report);
  void UndoInvalidate(const JournalEntry& e, SimTime cut, PowerCutReport& report);
  void UndoErase(JournalEntry& e, SimTime cut, PowerCutReport& report);

  FlashGeometry geo_;
  FastDiv div_slots_per_chip_;
  std::uint64_t slc_slots_per_chip_ = 0;
  ZeroedVector<Slot> slots_;
  std::vector<BlockMeta> blocks_;
  MediaCounters counters_;
  MediaCounters lifetime_;
  // ReadSlot is const on every existing call path but must record retry
  // accounting; the fault draw mutates only these two members.
  mutable ReliabilityStats rel_;
  FaultModel* fault_ = nullptr;
  std::uint64_t program_seq_ = 0;
  std::uint64_t journal_seq_ = 0;  // next JournalEntry::seq; never reset
  bool journal_on_ = false;
  bool journal_paused_ = false;
  std::deque<JournalEntry> journal_;
};

// Inline: the aggregated read path calls it once per flash page.
inline FlashArray::PageRun FlashArray::ReadPageRun(Ppn first, std::uint32_t n, Lpn lpn,
                                                   std::vector<std::uint64_t>* tokens) const {
  PageRun out;
  if (n == 0 || first.value() >= slots_.size()) return out;
  // The walk goes through a pointer, which operator[]'s bounds check does
  // not see past the first slot: bound it here.
  const auto avail =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(n, slots_.size() - first.value()));
  assert(geo_.PageOfSlot(first) == geo_.PageOfSlot(Ppn(first.value() + avail - 1)));
  const Slot* s = &slots_[SlotIndex(first)];
  // One page, one block: the fault draws share its cell class and wear.
  const bool faults = FaultsEnabled();
  bool slc = false;
  std::uint32_t erase_count = 0;
  if (faults) {
    const BlockId block = geo_.BlockOfSlot(first);
    slc = geo_.IsSlcBlock(block);
    erase_count = blocks_[static_cast<std::size_t>(block.value())].erase_count;
  }
  for (; out.good < avail; ++out.good) {
    const Slot& slot = s[out.good];
    if (StateOf(slot) != SlotState::kValid) break;
    const std::uint32_t level = faults ? DrawReadRetry(slc, erase_count) : 0;
    if (LpnOf(slot) != Lpn(lpn.value() + out.good)) break;
    if (tokens != nullptr) tokens->push_back(slot.token);
    out.retries = std::max(out.retries, level);
  }
  return out;
}

}  // namespace conzone
