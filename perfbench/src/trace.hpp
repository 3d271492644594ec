// Span tracing for the benchmark: host wall-clock time around every call
// the benchmark makes into a layer's public functions.
//
// A span has a kind (which fixes its name and layer), a start, an end and
// a parent. Spans of one top-level operation — a direct child of the
// per-round root span — share that operation's id. While tracing is on,
// every span feeds per-kind aggregates (calls, total and self time, where
// self time is the span's duration minus its children's), and the first
// `kMaxKeptSpans` spans are kept in memory for WriteCsv at exit. Tracing
// off costs one predictable branch per call.
#pragma once

#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { kWorkload, kCore, kCache, kHost, kCrash, kCount };

enum class SpanKind : std::uint8_t {
  kRound,  // root: one benchmark round
  kFioRun,
  kCoreRead,
  kCoreWrite,
  kCoreReset,
  kCoreFlush,
  kCoreFinish,
  kCorePowerCut,
  kCoreRecover,
  kCacheGet,
  kCachePut,
  kCacheSync,
  kHostRead,
  kHostWrite,
  kHostReset,
  kHostFlush,
  kHostTick,
  kHostMarkFailed,
  kHostReplace,
  kHostStartScrub,
  kCrashVerify,
  kCount
};

inline constexpr std::size_t kNumSpanKinds = static_cast<std::size_t>(SpanKind::kCount);
inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

const char* SpanName(SpanKind k);
Layer SpanLayer(SpanKind k);
const char* LayerName(Layer l);

/// Monotonic wall clock: span timestamps and the run deadline.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time (user + system) of the calling thread: the host time of the
/// reported rates, set-up and remount times. It equals wall time on an
/// idle host and leaves out time the thread spends descheduled, which on
/// a shared host is other programs' load, not this one's cost.
inline std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

class Tracer {
 public:
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  static constexpr std::size_t kMaxKeptSpans = 100000;

  bool enabled() const { return enabled_; }
  /// Toggle between rounds only, never with a span open.
  void set_enabled(bool on) { enabled_ = on; }

  void Begin(SpanKind kind);
  void End();

  const Agg& agg(SpanKind k) const { return agg_[static_cast<std::size_t>(k)]; }
  std::uint64_t LayerSelfNs(Layer l) const;
  /// Sum of self time over every span kind; equals the root spans' total
  /// when all spans nested properly.
  std::uint64_t SelfNsSum() const;
  bool open() const { return !stack_.empty(); }
  std::size_t kept() const { return kept_.size(); }

  /// Kept spans as CSV: id,parent,op,name,start_ns,end_ns (ns relative to
  /// the first span). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Frame {
    SpanKind kind;
    std::uint32_t id;
    std::uint32_t op;
    std::int64_t start;
    std::uint64_t child_ns;
  };
  struct Record {
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t op;
    SpanKind kind;
    std::int64_t start;
    std::int64_t end;
  };

  bool enabled_ = false;
  std::uint32_t next_id_ = 1;
  std::int64_t epoch_ = -1;
  std::vector<Frame> stack_;
  std::array<Agg, kNumSpanKinds> agg_{};
  std::vector<Record> kept_;
};

/// The benchmark's single tracer (the benchmark runs on one thread).
Tracer& GlobalTracer();

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(SpanKind kind) : on_(GlobalTracer().enabled()) {
    if (on_) GlobalTracer().Begin(kind);
  }
  ~Span() {
    if (on_) GlobalTracer().End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
