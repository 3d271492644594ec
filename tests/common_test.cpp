// Unit tests for the common substrate: simulated time, units, RNG,
// statistics, and status handling.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "common/zeroed_alloc.hpp"

namespace conzone {
namespace {

using namespace conzone::literals;

// --- time ---

TEST(SimDurationTest, ConstructorsAgree) {
  EXPECT_EQ(SimDuration::Micros(1).ns(), 1000u);
  EXPECT_EQ(SimDuration::Millis(1).ns(), 1000000u);
  EXPECT_EQ(SimDuration::Seconds(1).ns(), 1000000000u);
  EXPECT_EQ(SimDuration::MicrosF(937.5).ns(), 937500u);
  EXPECT_EQ(SimDuration::MicrosF(0.5).ns(), 500u);
}

TEST(SimDurationTest, Arithmetic) {
  const SimDuration a = SimDuration::Micros(10);
  const SimDuration b = SimDuration::Micros(3);
  EXPECT_EQ((a + b).us(), 13.0);
  EXPECT_EQ((a - b).us(), 7.0);
  EXPECT_EQ((a * 4).us(), 40.0);
  EXPECT_EQ((a / 2).us(), 5.0);
  EXPECT_LT(b, a);
}

TEST(SimTimeTest, AdvanceAndDifference) {
  SimTime t = SimTime::Zero();
  t += SimDuration::Micros(5);
  const SimTime u = t + SimDuration::Micros(7);
  EXPECT_EQ((u - t).us(), 7.0);
  EXPECT_EQ(Later(t, u), u);
  EXPECT_EQ(Later(u, t), u);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(SimTime::FromNanos(500).ToString(), "500ns");
  EXPECT_EQ(SimDuration::Micros(20).ToString(), "20.00us");
  EXPECT_EQ(SimDuration::Millis(3).ToString(), "3.00ms");
  EXPECT_EQ(SimDuration::Seconds(2).ToString(), "2.000s");
}

// --- units ---

TEST(UnitsTest, LiteralsAndHelpers) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(16_MiB, 16ull * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1ull << 30);
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_TRUE(IsPowerOfTwo(16));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(24));
  EXPECT_EQ(RoundUp(10, 4), 12u);
  EXPECT_EQ(RoundDown(10, 4), 8u);
  EXPECT_EQ(RoundUp(12, 4), 12u);
}

// --- rng ---

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t v = rng.NextInRange(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, PrecomputedThresholdMatchesPlainNextBelow) {
  Rng a(42), b(42);
  for (std::uint64_t bound : {1ull, 7ull, 4096ull, (1ull << 40) + 3}) {
    const std::uint64_t threshold = Rng::RejectionThreshold(bound);
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(a.NextBelow(bound), b.NextBelow(bound, threshold));
    }
  }
}

// --- FastDiv ---

TEST(FastDivTest, MatchesHardwareDivisionExactly) {
  const std::uint64_t divisors[] = {
      1,  2,  3,  4,  5,    7,    12,         42,        4096,
      96 * 1024,  252,  1000000000ull, 3200ull * 1024 * 1024,
      (1ull << 32) - 1, (1ull << 32) + 1, (1ull << 63) + 12345};
  const std::uint64_t dividends[] = {
      0, 1, 2, 3, 41, 42, 43, 4095, 4096, 4097, (1ull << 32) - 1, 1ull << 32,
      (1ull << 32) + 1, 123456789012345ull, ~0ull - 1, ~0ull};
  for (std::uint64_t d : divisors) {
    const FastDiv fd(d);
    EXPECT_EQ(fd.value(), d);
    for (std::uint64_t x : dividends) {
      EXPECT_EQ(fd.Div(x), x / d) << x << " / " << d;
      EXPECT_EQ(fd.Mod(x), x % d) << x << " % " << d;
    }
  }
}

TEST(FastDivTest, ExhaustiveAroundMultiples) {
  // Exactness is most fragile just below/above exact multiples of the
  // divisor, where the reciprocal's rounding error could flip the floor.
  for (std::uint64_t d : {3ull, 4096ull, 98304ull, 3355443200ull, (1ull << 33) + 7}) {
    const FastDiv fd(d);
    for (std::uint64_t k : {0ull, 1ull, 2ull, 1000ull, (1ull << 20) + 1}) {
      const std::uint64_t base = k * d;
      for (std::uint64_t delta = 0; delta < 3; ++delta) {
        if (base + delta >= base) {  // skip overflow
          EXPECT_EQ(fd.Div(base + delta), (base + delta) / d);
        }
        if (base >= delta + 1) {
          EXPECT_EQ(fd.Div(base - delta - 1), (base - delta - 1) / d);
        }
      }
    }
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

// --- stats ---

TEST(LatencyHistogramTest, BasicMoments) {
  LatencyHistogram h;
  h.Record(SimDuration::Micros(10));
  h.Record(SimDuration::Micros(20));
  h.Record(SimDuration::Micros(30));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min().us(), 10.0);
  EXPECT_EQ(h.max().us(), 30.0);
  EXPECT_EQ(h.mean().us(), 20.0);
}

TEST(LatencyHistogramTest, PercentilesBoundedByExtremes) {
  LatencyHistogram h;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    h.Record(SimDuration::Nanos(rng.NextInRange(1000, 1000000)));
  }
  EXPECT_GE(h.Percentile(0.0).ns(), h.min().ns());
  EXPECT_LE(h.Percentile(1.0).ns(), h.max().ns());
  EXPECT_LE(h.Percentile(0.5).ns(), h.Percentile(0.99).ns());
  EXPECT_LE(h.Percentile(0.99).ns(), h.Percentile(0.999).ns());
}

TEST(LatencyHistogramTest, QuantileAccuracyWithinBucketError) {
  // Uniform values: p50 should land near the midpoint with the ~1.6%
  // log-linear bucket error plus sampling noise.
  LatencyHistogram h;
  for (int i = 1; i <= 100000; ++i) h.Record(SimDuration::Nanos(static_cast<std::uint64_t>(i)));
  const double p50 = static_cast<double>(h.Percentile(0.5).ns());
  EXPECT_NEAR(p50, 50000.0, 50000.0 * 0.04);
  const double p99 = static_cast<double>(h.Percentile(0.99).ns());
  EXPECT_NEAR(p99, 99000.0, 99000.0 * 0.04);
}

TEST(LatencyHistogramTest, MergeCombinesPopulations) {
  LatencyHistogram a, b;
  a.Record(SimDuration::Micros(10));
  b.Record(SimDuration::Micros(100));
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min().us(), 10.0);
  EXPECT_EQ(a.max().us(), 100.0);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(SimDuration::Micros(10));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5).ns(), 0u);
}

TEST(ThroughputTest, RatesFromBytesAndOps) {
  Throughput t;
  t.bytes = 100 * kMiB;
  t.ops = 1000;
  t.elapsed = SimDuration::Seconds(2);
  EXPECT_DOUBLE_EQ(t.MiBps(), 50.0);
  EXPECT_DOUBLE_EQ(t.Iops(), 500.0);
  EXPECT_DOUBLE_EQ(t.Kiops(), 0.5);
}

TEST(ThroughputTest, ZeroElapsedIsZeroRate) {
  Throughput t;
  t.bytes = 1;
  EXPECT_EQ(t.MiBps(), 0.0);
}

// --- status ---

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad offset");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad offset");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Status::OutOfRange("x");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

// --- zeroed storage ---

#if defined(__linux__)
// Resident pages of [p, p + bytes), by mincore.
std::size_t ResidentPages(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto lo = reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
  const auto hi = reinterpret_cast<std::uintptr_t>(p) + bytes;
  std::vector<unsigned char> resident((hi - lo + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()), 0);
  return static_cast<std::size_t>(
      std::count_if(resident.begin(), resident.end(), [](unsigned char c) { return c & 1; }));
}

TEST(ZeroedVectorTest, PagesBecomeResidentOnlyWhenWritten) {
  constexpr std::size_t kBytes = 64 * kMiB;
  constexpr std::size_t kStride = 8 * kMiB / sizeof(std::uint64_t);
  ZeroedVector<std::uint64_t> v(kBytes / sizeof(std::uint64_t));
  EXPECT_EQ(ResidentPages(v.data(), kBytes), 0u);
  for (std::size_t i = 0; i < 8; ++i) v[i * kStride] = i + 1;
  const std::size_t resident = ResidentPages(v.data(), kBytes);
  EXPECT_GE(resident, 8u);
  // A transparent huge page may bring in up to 2 MiB per write.
  EXPECT_LE(resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)), 8 * 2 * kMiB);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(v[i * kStride], i + 1);
    EXPECT_EQ(v[i * kStride + 1], 0u);  // value-initialised
  }
}
#endif

// --- ids ---

TEST(IdTest, InvalidAndComparison) {
  Lpn a{5}, b{6};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.next(), b);
  EXPECT_FALSE(Lpn::Invalid().valid());
  EXPECT_TRUE(a.valid());
}

}  // namespace
}  // namespace conzone
