#include "flash/timing_engine.hpp"

#include <cassert>

namespace conzone {

FlashTimingEngine::FlashTimingEngine(const FlashGeometry& geometry,
                                     const TimingConfig& timing)
    : geo_(geometry), timing_(timing), div_bw_(timing.channel_bandwidth_bps) {
  chips_.resize(geo_.NumChips());
  chip_reads_.resize(geo_.NumChips());
  channels_.resize(geo_.channels);
  bus_of_chip_.resize(geo_.NumChips());
  for (std::uint32_t c = 0; c < geo_.NumChips(); ++c) {
    bus_of_chip_[c] = static_cast<std::uint32_t>(geo_.ChannelOfChip(ChipId{c}).value());
  }
  last_pulse_start_.resize(geo_.NumChips(), SimTime::Zero());
}

SimTime FlashTimingEngine::ReadPage(ChipId chip, CellType cell, std::uint64_t bytes,
                                    SimTime issue, std::uint32_t retries) {
  assert(chip.value() < chips_.size());
  auto& die = chips_[static_cast<std::size_t>(chip.value())];
  auto& bus = BusOf(chip);

  // Each read-retry step re-senses the page with shifted reference
  // voltages; the suspend penalty (controller round-trip) is paid once.
  const SimDuration sense_latency =
      timing_.For(cell).read_latency * static_cast<std::uint64_t>(1 + retries);
  if (retries > 0 && rel_ != nullptr) {
    const SimDuration extra =
        timing_.For(cell).read_latency * static_cast<std::uint64_t>(retries);
    rel_->recovery_time += extra;
    rel_->read_retry_hist.Record(extra);
  }

  // The sense preempts any in-flight program or erase pulse (at a
  // penalty) instead of queueing behind it; reads still serialize
  // against each other on the die's read path.
  SimDuration cost = sense_latency;
  if (die.busy_until() > issue) cost += kReadSuspendPenalty;
  const auto sense = chip_reads_[static_cast<std::size_t>(chip.value())].Reserve(issue, cost);
  return bus.Reserve(sense.end, XferTime(bytes)).end;
}

FlashTimingEngine::ProgramResult FlashTimingEngine::Program(ChipId chip, CellType cell,
                                                            std::uint64_t bytes,
                                                            SimTime issue) {
  assert(chip.value() < chips_.size());
  auto& die = chips_[static_cast<std::size_t>(chip.value())];
  auto& bus = BusOf(chip);

  // Cache-register pipelining, one level deep: the transfer may overlap
  // the die's in-flight pulse, but only once that pulse has latched the
  // register (pulse start).
  const SimTime reg_free = last_pulse_start_[static_cast<std::size_t>(chip.value())];
  const auto xfer = bus.Reserve(Later(issue, reg_free), XferTime(bytes));
  const auto pulse = die.Reserve(xfer.end, timing_.For(cell).program_latency);
  last_pulse_start_[static_cast<std::size_t>(chip.value())] = pulse.start;
  return ProgramResult{xfer.end, pulse.end};
}

FlashTimingEngine::ProgramResult FlashTimingEngine::ProgramFold(
    ChipId chip, CellType cell, std::uint64_t total_bytes, std::uint64_t fresh_bytes,
    SimTime fresh_ready, SimTime staged_ready) {
  assert(chip.value() < chips_.size());
  auto& die = chips_[static_cast<std::size_t>(chip.value())];
  auto& bus = BusOf(chip);

  // The fresh (write-buffer) part streams into the die's cache register
  // as soon as the register is free — this is the moment the buffer SRAM
  // is reusable. The folded (SLC read-back) part streams once its reads
  // complete; the pulse fires when the whole unit is assembled.
  const SimTime reg_free = last_pulse_start_[static_cast<std::size_t>(chip.value())];
  const auto fresh =
      bus.Reserve(Later(fresh_ready, reg_free), XferTime(fresh_bytes));
  const auto staged = bus.Reserve(Later(staged_ready, fresh.end),
                                  XferTime(total_bytes - fresh_bytes));
  const auto pulse = die.Reserve(staged.end, timing_.For(cell).program_latency);
  last_pulse_start_[static_cast<std::size_t>(chip.value())] = pulse.start;
  return ProgramResult{fresh.end, pulse.end};
}

SimTime FlashTimingEngine::Erase(ChipId chip, CellType cell, SimTime issue) {
  assert(chip.value() < chips_.size());
  auto& die = chips_[static_cast<std::size_t>(chip.value())];
  return die.Reserve(issue, timing_.For(cell).erase_latency).end;
}

}  // namespace conzone
