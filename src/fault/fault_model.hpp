// Deterministic NAND fault injection (§II-A, §III-D).
//
// Consumer flash is defined by unreliable, wear-limited media: program
// pulses fail, erases fail, and read raw-bit-error rates climb with wear
// until pages need several read-retry steps before they ECC-correct.
// `FaultModel` injects exactly those three fault classes into the media
// layer, driven by the emulator's seeded xoshiro `Rng` so that the same
// seed and the same operation sequence reproduce a bit-identical fault
// sequence — the property every regression test and A/B comparison in
// this repo depends on.
//
// Rates are configured per cell class (SLC secondary buffer vs the
// normal TLC/QLC region) because real devices see order-of-magnitude
// different raw error rates between them. An optional wear coupling
// scales all probabilities once a block's erase count passes its rated
// endurance, which is how grown bad blocks cluster late in device life.
//
// The null model (all rates zero) is guaranteed free on the hot path:
// every consumer guards with `enabled()` (one pointer + one bool test)
// and no RNG draw happens.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"

namespace conzone {

/// Fault probabilities for one cell class. All are per-operation
/// probabilities in [0, 1].
struct FaultRates {
  /// P(one program pulse fails and the block grows bad).
  double program_fail = 0.0;
  /// P(one block erase fails and the block grows bad).
  double erase_fail = 0.0;
  /// P(a page read needs at least one retry step). Each further step is
  /// geometric with ratio `read_retry_decay`.
  double read_retry = 0.0;
};

struct FaultConfig {
  /// Seed of the fault model's private RNG stream (kept separate from the
  /// workload RNGs so fault and traffic randomness do not entangle).
  std::uint64_t seed = 0xFA177AB1Eull;

  FaultRates slc;
  FaultRates normal;

  /// P(level >= k+1 | level >= k) for read-retry levels past the first.
  double read_retry_decay = 0.25;
  /// Hard cap on retry steps per read (mirrors the finite read-retry
  /// table of real controllers; past it the controller gives up and
  /// relocates, which this model folds into the last step).
  std::uint32_t max_read_retries = 7;

  /// Wear coupling: past this many erases the per-op failure probability
  /// grows linearly with slope `wear_slope` per extra erase. 0 = off.
  std::uint32_t rated_endurance = 0;
  double wear_slope = 0.0;

  /// Graceful degradation: the device enters read-only mode when the
  /// number of healthy (non-retired) SLC blocks falls below this floor.
  /// Default: two superblocks' worth on the paper geometry (2ch x 2chips).
  std::uint32_t read_only_spare_floor_blocks = 8;

  // --- Power loss ---
  /// Enable power-loss emulation: the device journals media mutations so
  /// PowerCut()/Recover() work. Orthogonal to the fault rates above —
  /// a pure power-loss config draws no fault RNG.
  bool power_loss = false;
  /// Mean interval of a random power-cut schedule (exponential,
  /// deterministic in `seed` via a private decorrelated stream);
  /// 0 = no scheduled cuts. A non-zero interval implies power_loss.
  std::uint64_t power_cut_mean_interval_ns = 0;

  /// True when power-loss emulation should be active.
  bool PowerLossEnabled() const {
    return power_loss || power_cut_mean_interval_ns > 0;
  }

  /// True when any fault class can fire — the hot-path gate.
  bool AnyFaults() const {
    return slc.program_fail > 0 || slc.erase_fail > 0 || slc.read_retry > 0 ||
           normal.program_fail > 0 || normal.erase_fail > 0 ||
           normal.read_retry > 0;
  }

  /// Documented default rates for reliability soaks: high enough that a
  /// 10k-IO run exercises every recovery path, low enough that the device
  /// survives with spare capacity left.
  static FaultConfig ConsumerDefaults();

  Status Validate() const;
};

/// Faults actually injected — the "expected" side of the reconciliation
/// the reliability tests perform against the media layer's observed
/// `ReliabilityStats`.
struct FaultCounters {
  std::uint64_t program_faults = 0;
  std::uint64_t erase_faults = 0;
  std::uint64_t reads_with_retry = 0;
  std::uint64_t retry_steps = 0;  ///< Sum of injected retry levels.
};

class FaultModel {
 public:
  /// Null model: never fires, consumes no randomness.
  FaultModel() = default;
  explicit FaultModel(const FaultConfig& config);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return cfg_; }

  /// One draw per media operation. `slc` selects the rate table; the
  /// block's erase count feeds the wear coupling. Only call when
  /// enabled() — callers gate so the null model costs nothing.
  bool ProgramFails(bool slc, std::uint32_t erase_count);
  bool EraseFails(bool slc, std::uint32_t erase_count);
  /// 0 = clean read; k > 0 = the page needs k retry re-reads.
  std::uint32_t ReadRetryLevel(bool slc, std::uint32_t erase_count);

  const FaultCounters& counters() const { return counters_; }

  // --- Power-cut stream ---
  /// Whether the random cut schedule is configured.
  bool cut_stream_enabled() const {
    return cfg_.power_cut_mean_interval_ns > 0;
  }
  /// Next scheduled cut strictly after `t`, exponentially distributed
  /// with the configured mean. Draws from a private RNG stream
  /// (decorrelated from the fault draws) so enabling cuts does not shift
  /// the fault sequence of an otherwise identical run.
  SimTime NextCutAfter(SimTime t);

  /// The wear-coupling factor applied to every rate at this erase count:
  /// 1.0 up to rated_endurance, then 1 + wear_slope * excess. Pure —
  /// draws no randomness — so tests and studies can assert the ramp
  /// without perturbing the fault stream.
  double wear_multiplier(std::uint32_t erase_count) const {
    return WearMultiplier(erase_count);
  }

 private:
  double WearMultiplier(std::uint32_t erase_count) const;
  const FaultRates& For(bool slc) const { return slc ? cfg_.slc : cfg_.normal; }

  FaultConfig cfg_;
  Rng rng_{0};
  Rng cut_rng_{0};
  FaultCounters counters_;
  bool enabled_ = false;
};

}  // namespace conzone
