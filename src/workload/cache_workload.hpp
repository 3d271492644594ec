// Cache workload generator: a zipfian get/put mix driven against a
// ZoneCache (cache-aside pattern), so GC-pressure and zone-interference
// patterns earlier studies approximated from below are generated
// organically by a real consumer of the logical zoned space.
//
// Determinism contract: the same spec and seed produce the same request
// stream, the same hit/miss sequence, the same simulated timeline, and
// the same fingerprint. The cache and every device below it, volumes
// included, run on the calling thread.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/zone_cache.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"

namespace conzone {

/// Zipfian item sampler (Gray et al.'s incremental method, as used by
/// YCSB): item 0 is the most popular, frequency ∝ 1/rank^theta.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t items, double theta);

  /// Draw the next item in [0, items) from `rng`.
  std::uint64_t Next(Rng& rng) const;

 private:
  std::uint64_t items_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double half_pow_;  // 1 + 0.5^theta
};

struct CacheJobSpec {
  std::uint64_t keys = 4096;       ///< Key-space size.
  double zipf_theta = 0.99;        ///< 0 = uniform; YCSB default 0.99.
  double get_ratio = 0.9;          ///< P(op is a Get); rest are Puts.
  std::uint32_t min_value_slots = 1;
  std::uint32_t max_value_slots = 4;
  std::uint64_t ops = 10000;
  std::uint64_t seed = 1;
  /// Hot-group threshold: keys below keys/hot_divisor go to group 0,
  /// the rest to group 1 (with num_groups >= 2).
  std::uint64_t hot_divisor = 10;
  /// A hit must serve exactly the latest acknowledged generation. True
  /// for uncut runs; a crash harness relaxes this to "any acknowledged
  /// generation" (the crash contract) and sets it false.
  bool require_latest = true;
};

struct CacheRunResult {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;       ///< Explicit puts (new generations).
  std::uint64_t fills = 0;      ///< Miss-path cache-aside fills.
  SimTime end;                  ///< Simulated completion of the last op.
  /// FNV digest of the (op, outcome, completion-time) stream.
  std::uint64_t fingerprint = 0;
  /// Per-key value generation counter after the run — lets a crash
  /// harness re-derive every acknowledged value for semantic checks.
  std::vector<std::uint32_t> generations;
};

class CacheWorkloadRunner {
 public:
  /// Value tokens are a pure function of (seed, key, generation) so any
  /// observer can recompute what a Get must return.
  static std::uint64_t ValueToken(std::uint64_t seed, std::uint64_t key,
                                  std::uint32_t generation, std::uint32_t i) {
    return MixSeeds(seed ^ (key * 0x9E3779B97F4A7C15ull), generation, i) | 1ull;
  }
  /// Value length is derived from (seed, key, generation) too, so a
  /// miss-path fill of the same generation reproduces the same object.
  static std::uint32_t ValueSlots(const CacheJobSpec& spec, std::uint64_t key,
                                  std::uint32_t generation) {
    const std::uint32_t range = spec.max_value_slots - spec.min_value_slots + 1;
    return spec.min_value_slots +
           static_cast<std::uint32_t>(
               MixSeeds(spec.seed, key * 2654435761ull, generation) % range);
  }
  static std::uint32_t GroupOf(const CacheJobSpec& spec, std::uint64_t key) {
    return key < spec.keys / spec.hot_divisor ? 0u : 1u;
  }

  /// Run the mix against `cache` starting at simulated time `start`.
  /// `start_generations` (optional) resumes per-key generations from a
  /// previous run segment — the crash harness uses this to keep the
  /// value history consistent across power cuts.
  static Result<CacheRunResult> Run(ZoneCache& cache, const CacheJobSpec& spec,
                                    SimTime start,
                                    const std::vector<std::uint32_t>*
                                        start_generations = nullptr);
};

}  // namespace conzone
