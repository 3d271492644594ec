// Crash-consistency shadow model and scripted crash harness.
//
// The checker mirrors, in plain host-visible terms, what ConZone is
// contractually allowed to return after a power cut:
//
//   * Acknowledged-durable data — everything written before a Flush whose
//     completion precedes the cut — must read back exactly.
//   * Merely-buffered data (written but not flushed) may survive in part:
//     each sequential zone must come back as a *token-prefix* of what the
//     host wrote in some epoch between the last durably-completed reset
//     and the current one. Prefix, because flash programs land in order;
//     epoch range, because a torn reset legitimately leaves either the
//     old content (partially erased to a shorter prefix) or nothing.
//   * A conventional LPN must read back either its durable value or a
//     value written after the durable flush (a torn overwrite may
//     resurrect the previous copy, never an unrelated one).
//   * The recovered write pointer may not exceed readable content, and
//     reads past it must fail.
//
// The harness drives a seeded, reproducible op stream (zone-sequential
// writes, flushes, resets, finishes, conventional overwrites) against a
// real device with the checker shadowing every op, then cuts power at an
// arbitrary point, remounts, and verifies. Same seed + same cut time =>
// bit-identical recovery, which the fingerprint exposes.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/device.hpp"

namespace conzone {

class CrashConsistencyChecker {
 public:
  /// `total_zones` = conventional + sequential (DeviceInfo::num_zones;
  /// the count is derived from the layout, not stored in the config).
  CrashConsistencyChecker(const ConZoneConfig& config, std::uint32_t total_zones);

  // --- Shadowing (call once per acknowledged host op) ---
  void OnWrite(std::uint64_t offset, std::span<const std::uint64_t> tokens,
               SimTime submit, SimTime done);
  void OnFlush(SimTime submit, SimTime done);
  void OnReset(ZoneId zone, SimTime submit, SimTime done);
  /// Finish/open/close change no content; they only advance the clock.
  void OnNoop(SimTime submit, SimTime done);

  /// Resolve which flush and which resets were durable at `cut_time`.
  void OnPowerCut(SimTime cut_time);

  /// After Recover(): read back every zone and assert the contract above,
  /// plus the counter reconciliation (every mapped LPN <-> one valid
  /// slot). On success the shadow is re-baselined to the recovered state
  /// (now fully on media, hence durable), so the same checker can keep
  /// shadowing ops toward the next cut.
  Status VerifyAfterRecovery(ConZoneDevice& dev, SimTime now);

  /// Order-sensitive FNV-1a hash over the recovered state the last
  /// VerifyAfterRecovery observed: write pointers, every readable token,
  /// conventional values. Two runs with the same seed and cut time must
  /// produce equal fingerprints.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  /// One zone generation: the token stream written since a reset.
  struct Epoch {
    std::uint64_t number = 0;
    std::vector<std::uint64_t> tokens;
  };

  struct ZoneShadow {
    std::uint64_t current_epoch = 0;
    /// Epoch created by the newest reset known durably complete (its
    /// completion precedes a later op's submission, hence any legal cut).
    std::uint64_t floor_epoch = 0;
    /// Retained generations, oldest first; front is >= floor_epoch.
    std::deque<Epoch> epochs;
    /// Resets not yet folded into floor_epoch: epoch they created + when
    /// their erases finished.
    std::vector<std::pair<std::uint64_t, SimTime>> pending_resets;
  };

  /// Host-visible state at one Flush completion.
  struct Snapshot {
    SimTime submit;
    SimTime done;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> zones;  ///< epoch, length
    std::vector<std::uint64_t> conv;  ///< token per conventional LPN (0 = none)
  };

  struct ConvWrite {
    std::uint64_t token = 0;
    SimTime submit;
  };

  bool IsConv(ZoneId z) const { return z.value() < cfg_.num_conventional_zones; }
  ZoneShadow& Seq(ZoneId z) {
    return zones_[static_cast<std::size_t>(z.value() - cfg_.num_conventional_zones)];
  }
  /// Every op submission confirms completions that precede it: the
  /// pending flush becomes the durable baseline candidate and finished
  /// resets raise their zone's floor (a cut can never land before
  /// `submit` anymore).
  void Advance(SimTime submit);
  Snapshot Capture(SimTime submit, SimTime done) const;
  Status VerifySequentialZone(ConZoneDevice& dev, ZoneId zone, SimTime now);
  Status VerifyConventionalZone(ConZoneDevice& dev, ZoneId zone, SimTime now);
  void Mix(std::uint64_t v) {
    fingerprint_ = (fingerprint_ ^ v) * 0x100000001B3ull;
  }

  ConZoneConfig cfg_;
  std::uint32_t total_zones_ = 0;
  std::uint64_t lpns_per_zone_ = 0;
  std::vector<ZoneShadow> zones_;            ///< Sequential zones only.
  std::vector<std::uint64_t> conv_current_;  ///< Token per conventional LPN.
  std::vector<std::vector<ConvWrite>> conv_history_;  ///< Since last confirmed flush.
  std::optional<Snapshot> confirmed_;  ///< Durable under ANY legal cut.
  std::optional<Snapshot> pending_;    ///< Last flush, not yet confirmed.
  std::optional<Snapshot> durable_;    ///< Resolved by OnPowerCut().
  SimTime cut_time_;
  bool cut_resolved_ = false;
  std::uint64_t fingerprint_ = 0xCBF29CE484222325ull;
};

/// Seeded random op stream against a live device, with the checker
/// shadowing every op. Supports repeated cut/recover/verify rounds on one
/// device (the checker re-baselines after each verified recovery).
class CrashHarness {
 public:
  struct Options {
    std::uint64_t seed = 1;
    double flush_prob = 0.12;
    double reset_prob = 0.05;
    double conv_prob = 0.15;  ///< Used only when the config has conventional zones.
  };

  CrashHarness(const ConZoneConfig& config, const Options& options);

  /// Create the device (power-loss journaling is forced on).
  Status Init();

  /// Generate and execute `n` ops from the current device state.
  Status RunOps(std::size_t n);

  /// Write `slots` fresh tokens at byte `offset`, then Flush, both
  /// shadowed like stream ops: a fixed set-up in front of the random
  /// stream (a filled zone outside the active set, say).
  Status WriteAndFlush(std::uint64_t offset, std::uint64_t slots);

  /// Cut power at `frac` of the way through the last op's service window
  /// (0 = its submission instant, 1 = its completion; >1 reaches into
  /// background pulses still in flight past the completion).
  Status Cut(double frac);
  Status CutAt(SimTime t);

  /// Remount and run the full consistency check. Advances now() to the
  /// remount completion.
  Status RecoverAndVerify();

  ConZoneDevice& device() { return *dev_; }
  const ConZoneDevice& device() const { return *dev_; }
  std::uint64_t fingerprint() const { return checker_->fingerprint(); }
  SimTime now() const { return now_; }
  SimTime last_submit() const { return last_submit_; }

 private:
  Status RunOne();

  ConZoneConfig cfg_;
  Options opt_;
  Rng rng_;
  std::uint64_t next_token_ = 1;  ///< 0 is reserved for "never written".
  std::unique_ptr<ConZoneDevice> dev_;
  std::optional<CrashConsistencyChecker> checker_;  ///< Built by Init().
  SimTime now_;
  SimTime last_submit_;
};

}  // namespace conzone
