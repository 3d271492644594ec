#include "flash/array.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace conzone {

namespace {
std::uint64_t SatSub(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; }
}  // namespace

MediaCounters MediaCounters::Since(const MediaCounters& base) const {
  MediaCounters d;
  d.slots_programmed_slc = SatSub(slots_programmed_slc, base.slots_programmed_slc);
  d.slots_programmed_normal =
      SatSub(slots_programmed_normal, base.slots_programmed_normal);
  d.page_reads = SatSub(page_reads, base.page_reads);
  d.erases_slc = SatSub(erases_slc, base.erases_slc);
  d.erases_normal = SatSub(erases_normal, base.erases_normal);
  return d;
}

FlashArray::FlashArray(const FlashGeometry& geometry)
    : geo_(geometry),
      div_slots_per_chip_(std::uint64_t{geo_.blocks_per_chip} * geo_.pages_per_block *
                          geo_.SlotsPerPage()),
      slc_slots_per_chip_(std::uint64_t{geo_.slc_blocks_per_chip} * geo_.pages_per_block *
                          geo_.SlotsPerPage()) {
  assert(geo_.Validate().ok());
  // Zero pages: a slot becomes resident host memory once it is written.
  slots_.resize(static_cast<std::size_t>(geo_.TotalSlots()));
  blocks_.resize(static_cast<std::size_t>(geo_.TotalBlocks()));
}

std::uint32_t FlashArray::UsableSlots(BlockId block) const {
  const std::uint32_t full = geo_.pages_per_block * geo_.SlotsPerPage();
  return geo_.IsSlcBlock(block) ? geo_.SlcUsableSlotsPerBlock() : full;
}

Status FlashArray::ProgramSlots(BlockId block, std::span<const SlotWrite> writes) {
  if (block.value() >= geo_.TotalBlocks()) {
    return Status::OutOfRange("program: bad block id " + std::to_string(block.value()));
  }
  if (writes.empty()) {
    return Status::InvalidArgument("program: empty write");
  }
  BlockMeta& meta = blocks_[static_cast<std::size_t>(block.value())];
  if (meta.health == BlockHealth::kRetired) {
    return Status::FailedPrecondition("program: block " +
                                      std::to_string(block.value()) + " is retired");
  }
  const std::uint32_t usable = UsableSlots(block);
  if (meta.next_slot + writes.size() > usable) {
    return Status::FailedPrecondition(
        "program: block " + std::to_string(block.value()) + " overflow (next=" +
        std::to_string(meta.next_slot) + " +" + std::to_string(writes.size()) +
        " > usable=" + std::to_string(usable) + "); erase first");
  }
  const bool slc = geo_.IsSlcBlock(block);
  if (!slc) {
    // Normal blocks only accept whole one-shot program units.
    const std::uint64_t unit_slots = geo_.program_unit / geo_.slot_size;
    if (meta.next_slot % unit_slots != 0 || writes.size() % unit_slots != 0) {
      return Status::InvalidArgument(
          "program: normal block writes must be unit-aligned (unit=" +
          std::to_string(unit_slots) + " slots, got offset=" +
          std::to_string(meta.next_slot) + " count=" + std::to_string(writes.size()) + ")");
    }
  }

  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo_.pages_per_block) * geo_.SlotsPerPage();
  const std::uint64_t base = block.value() * slots_per_block + meta.next_slot;

  // The block is stamped even on the burn path below: the cells were
  // pulsed, so a checkpoint-bounded mount scan must treat the block as
  // touched after the watermark.
  meta.last_program_seq = ++program_seq_;
  meta.last_change_seq = meta.last_program_seq;

  if (fault_ != nullptr && fault_->enabled() &&
      fault_->ProgramFails(slc, meta.erase_count)) {
    // The pulse failed mid-program: the attempted slots hold garbage and
    // the block has grown bad. Burn the slots (cursor advances, nothing
    // counts as programmed) and retire the block; the FTL re-drives the
    // payload elsewhere.
    for (std::size_t i = 0; i < writes.size(); ++i) {
      SetState(slots_[static_cast<std::size_t>(base + i)], SlotState::kInvalid);
    }
    meta.next_slot += static_cast<std::uint32_t>(writes.size());
    if (slc) {
      rel_.program_failures_slc++;
    } else {
      rel_.program_failures_normal++;
    }
    RetireBlock(block);
    return Status::MediaError("program failure on block " +
                              std::to_string(block.value()) + " (" +
                              (slc ? "slc" : "normal") + "); block retired");
  }

  if (JournalActive()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kProgram;
    e.seq = journal_seq_++;
    e.block = block;
    e.first_slot = meta.next_slot;
    e.count = static_cast<std::uint32_t>(writes.size());
    journal_.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    Slot& s = slots_[static_cast<std::size_t>(base + i)];
    assert(StateOf(s) == SlotState::kFree && "sequential cursor points at non-free slot");
    s.token = writes[i].token;
    s.oob = PackOob(SlotState::kValid, writes[i].lpn);
  }
  meta.next_slot += static_cast<std::uint32_t>(writes.size());
  meta.valid_slots += static_cast<std::uint32_t>(writes.size());
  if (slc) {
    counters_.slots_programmed_slc += writes.size();
    lifetime_.slots_programmed_slc += writes.size();
  } else {
    counters_.slots_programmed_normal += writes.size();
    lifetime_.slots_programmed_normal += writes.size();
  }
  return Status::Ok();
}

std::uint32_t FlashArray::DrawReadRetry(bool slc, std::uint32_t erase_count) const {
  const std::uint32_t level = fault_->ReadRetryLevel(slc, erase_count);
  if (level > 0) {
    rel_.reads_with_retry++;
    rel_.read_retries += level;
  }
  return level;
}

SlotRead FlashArray::ReadSlot(Ppn ppn) const {
  SlotRead out;
  if (ppn.value() >= slots_.size()) return out;
  const Slot& s = slots_[SlotIndex(ppn)];
  out.state = StateOf(s);
  out.lpn = LpnOf(s);
  out.token = s.token;
  if (FaultsEnabled() && out.state == SlotState::kValid) {
    const BlockId block = geo_.BlockOfSlot(ppn);
    out.retry_level = DrawReadRetry(
        geo_.IsSlcBlock(block), blocks_[static_cast<std::size_t>(block.value())].erase_count);
  }
  return out;
}

Status FlashArray::InvalidateSlot(Ppn ppn) {
  if (ppn.value() >= slots_.size()) {
    return Status::OutOfRange("invalidate: bad ppn " + std::to_string(ppn.value()));
  }
  Slot& s = slots_[SlotIndex(ppn)];
  if (StateOf(s) != SlotState::kValid) {
    return Status::FailedPrecondition("invalidate: slot " + std::to_string(ppn.value()) +
                                      " is not valid");
  }
  if (JournalActive()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kInvalidate;
    e.seq = journal_seq_++;
    e.ppn = ppn;
    journal_.push_back(std::move(e));
  }
  SetState(s, SlotState::kInvalid);
  BlockMeta& meta = blocks_[static_cast<std::size_t>(geo_.BlockOfSlot(ppn).value())];
  assert(meta.valid_slots > 0);
  meta.valid_slots--;
  // Invalidation changes slot state without a program pulse: stamp the
  // change counter (not the program stamp — OOB senses stay skippable)
  // so checkpoint entries into this block are re-verified at mount.
  meta.last_change_seq = ++program_seq_;
  return Status::Ok();
}

Status FlashArray::EraseBlock(BlockId block) {
  if (block.value() >= geo_.TotalBlocks()) {
    return Status::OutOfRange("erase: bad block id " + std::to_string(block.value()));
  }
  BlockMeta& meta = blocks_[static_cast<std::size_t>(block.value())];
  if (meta.health == BlockHealth::kRetired) {
    return Status::FailedPrecondition("erase: block " +
                                      std::to_string(block.value()) + " is retired");
  }
  const bool slc = geo_.IsSlcBlock(block);
  if (fault_ != nullptr && fault_->enabled() &&
      fault_->EraseFails(slc, meta.erase_count)) {
    // The erase pulse wore the oxide but failed to verify: wear accrues,
    // the slots keep their (now untrusted) content, and the block is
    // retired. Callers scrub the leftover state via ScrubBlock.
    meta.erase_count++;
    if (slc) {
      rel_.erase_failures_slc++;
    } else {
      rel_.erase_failures_normal++;
    }
    RetireBlock(block);
    return Status::MediaError("erase failure on block " +
                              std::to_string(block.value()) + " (" +
                              (slc ? "slc" : "normal") + "); block retired");
  }
  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo_.pages_per_block) * geo_.SlotsPerPage();
  // Slots at or past the program cursor are always erased (programs write
  // only below it; burns, scrubs and undo never move it back), so only
  // the programmed prefix is journaled and cleared.
  const auto first =
      slots_.begin() + static_cast<std::ptrdiff_t>(block.value() * slots_per_block);
  const auto cursor = first + static_cast<std::ptrdiff_t>(meta.next_slot);
  if (JournalActive()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kErase;
    e.seq = journal_seq_++;
    e.block = block;
    e.prior_meta = meta;
    e.image.assign(first, cursor);
    journal_.push_back(std::move(e));
  }
  std::fill(first, cursor, Slot{});
  meta.next_slot = 0;
  meta.valid_slots = 0;
  meta.last_program_seq = 0;
  meta.last_change_seq = ++program_seq_;
  meta.erase_count++;
  if (slc) {
    counters_.erases_slc++;
    lifetime_.erases_slc++;
  } else {
    counters_.erases_normal++;
    lifetime_.erases_normal++;
  }
  return Status::Ok();
}

void FlashArray::RetireBlock(BlockId block) {
  BlockMeta& meta = blocks_[static_cast<std::size_t>(block.value())];
  if (meta.health == BlockHealth::kRetired) return;
  meta.health = BlockHealth::kRetired;
  if (geo_.IsSlcBlock(block)) {
    rel_.retired_blocks_slc++;
  } else {
    rel_.retired_blocks_normal++;
  }
}

bool FlashArray::IsRetired(BlockId block) const {
  return HealthOfBlock(block) == BlockHealth::kRetired;
}

BlockHealth FlashArray::HealthOfBlock(BlockId block) const {
  return blocks_[static_cast<std::size_t>(block.value())].health;
}

std::uint32_t FlashArray::HealthySlcBlocks() const {
  const std::uint64_t total =
      static_cast<std::uint64_t>(geo_.slc_blocks_per_chip) * geo_.NumChips();
  const std::uint64_t retired = rel_.retired_blocks_slc;
  return retired >= total ? 0 : static_cast<std::uint32_t>(total - retired);
}

void FlashArray::ScrubBlock(BlockId block) {
  BlockMeta& meta = blocks_[static_cast<std::size_t>(block.value())];
  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo_.pages_per_block) * geo_.SlotsPerPage();
  const std::uint64_t base = block.value() * slots_per_block;
  for (std::uint64_t i = 0; i < slots_per_block; ++i) {
    Slot& s = slots_[static_cast<std::size_t>(base + i)];
    if (StateOf(s) != SlotState::kFree) SetState(s, SlotState::kInvalid);
  }
  meta.valid_slots = 0;
  meta.last_change_seq = ++program_seq_;
}

SlotState FlashArray::StateOfSlot(Ppn ppn) const {
  if (ppn.value() >= slots_.size()) return SlotState::kFree;
  return StateOf(slots_[SlotIndex(ppn)]);
}

std::uint32_t FlashArray::NextProgramSlot(BlockId block) const {
  return blocks_[static_cast<std::size_t>(block.value())].next_slot;
}

bool FlashArray::BlockFull(BlockId block) const {
  return NextProgramSlot(block) >= UsableSlots(block);
}

std::uint32_t FlashArray::ValidSlots(BlockId block) const {
  return blocks_[static_cast<std::size_t>(block.value())].valid_slots;
}

std::uint32_t FlashArray::EraseCount(BlockId block) const {
  return blocks_[static_cast<std::size_t>(block.value())].erase_count;
}

SlotRead FlashArray::PeekSlot(Ppn ppn) const {
  SlotRead out;
  if (ppn.value() >= slots_.size()) return out;
  const Slot& s = slots_[SlotIndex(ppn)];
  out.state = StateOf(s);
  out.lpn = LpnOf(s);
  out.token = s.token;
  return out;
}

void FlashArray::StampJournal(std::uint64_t mark, SimTime start, SimTime end) {
  // Only the calling batch's entries (seq >= its mark) are stamped. A
  // plain unstamped-suffix walk would let a nested batch — GC invoked
  // mid-flush — capture its caller's pending entries under the nested
  // window; if that window closed before a cut while the caller's
  // superseding program was torn, acknowledged data would be lost.
  for (auto it = journal_.rbegin(); it != journal_.rend() && it->seq >= mark; ++it) {
    if (it->stamped) continue;  // a nested batch stamped its own entries
    it->stamped = true;
    it->start = start;
    it->end = end;
  }
}

void FlashArray::PruneJournal(SimTime horizon) {
  while (!journal_.empty() && journal_.front().stamped &&
         journal_.front().end <= horizon) {
    journal_.pop_front();
  }
}

void FlashArray::UndoProgram(const JournalEntry& e, SimTime cut,
                             PowerCutReport& report) {
  if (e.stamped && e.end <= cut) return;  // durable
  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo_.pages_per_block) * geo_.SlotsPerPage();
  const std::uint64_t base = e.block.value() * slots_per_block + e.first_slot;
  BlockMeta& meta = blocks_[static_cast<std::size_t>(e.block.value())];
  for (std::uint32_t i = 0; i < e.count; ++i) {
    Slot& s = slots_[static_cast<std::size_t>(base + i)];
    if (StateOf(s) == SlotState::kValid) {
      SetState(s, SlotState::kInvalid);
      assert(meta.valid_slots > 0);
      meta.valid_slots--;
    }
  }
  if (e.stamped && e.start <= cut) {
    report.torn_program_slots += e.count;
  } else {
    report.unissued_program_slots += e.count;
  }
}

void FlashArray::UndoInvalidate(const JournalEntry& e, SimTime cut,
                                PowerCutReport& report) {
  if (e.stamped && e.end <= cut) return;  // the superseding batch is durable
  Slot& s = slots_[SlotIndex(e.ppn)];
  // The slot may no longer be kInvalid: a durable erase of its block
  // implies the superseding batch was durable too, so we never get here
  // with a freed slot; a restored erase pre-image puts it back kInvalid.
  if (StateOf(s) != SlotState::kInvalid) return;
  SetState(s, SlotState::kValid);
  const BlockId block = geo_.BlockOfSlot(e.ppn);
  blocks_[static_cast<std::size_t>(block.value())].valid_slots++;
  report.resurrected_slots++;
  // The revived copy may live in a block older than any checkpoint
  // watermark while the checkpoint maps its lpn elsewhere.
  report.rescan.push_back(block);
}

void FlashArray::UndoErase(JournalEntry& e, SimTime cut, PowerCutReport& report) {
  if (e.stamped && e.end <= cut) return;  // durable
  if (e.stamped && e.start <= cut) {
    // In flight at the cut: the cells are half-erased and untrusted.
    // The block stays erased in the model; recovery must run a real
    // erase (wear + possible fault) before reuse.
    report.reerase.push_back(e.block);
    return;
  }
  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo_.pages_per_block) * geo_.SlotsPerPage();
  const auto first =
      slots_.begin() + static_cast<std::ptrdiff_t>(e.block.value() * slots_per_block);
  BlockMeta& meta = blocks_[static_cast<std::size_t>(e.block.value())];
  // The pre-image is the programmed prefix. Programs into the block after
  // the erase were undone already (newest first) and left invalidated
  // slots below the current cursor: erase those back to the free suffix.
  const std::size_t erased_to = std::max<std::size_t>(e.image.size(), meta.next_slot);
  std::copy(e.image.begin(), e.image.end(), first);
  std::fill(first + static_cast<std::ptrdiff_t>(e.image.size()),
            first + static_cast<std::ptrdiff_t>(erased_to), Slot{});
  // Keep the change stamp monotone across the undo: the pre-image block
  // must look dirty to a checkpoint older than the undone erase.
  const std::uint64_t change = std::max(meta.last_change_seq, e.prior_meta.last_change_seq);
  meta = e.prior_meta;
  meta.last_change_seq = change;
  report.restored_erases++;
  // The pre-image (with prior_meta's old program stamp) is back on the
  // media; a checkpoint taken after the erase knows nothing about it.
  report.rescan.push_back(e.block);
}

FlashArray::PowerCutReport FlashArray::ApplyPowerCut(SimTime cut) {
  PowerCutReport report;
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    switch (it->kind) {
      case JournalEntry::Kind::kProgram:
        UndoProgram(*it, cut, report);
        break;
      case JournalEntry::Kind::kInvalidate:
        UndoInvalidate(*it, cut, report);
        break;
      case JournalEntry::Kind::kErase:
        UndoErase(*it, cut, report);
        break;
    }
  }
  journal_.clear();
  return report;
}

}  // namespace conzone
