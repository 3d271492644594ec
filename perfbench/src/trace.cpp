#include "trace.hpp"

#include <cstdio>

namespace perfbench {
namespace {

struct KindInfo {
  const char* name;
  Layer layer;
};

constexpr std::array<KindInfo, kNumSpanKinds> kKinds = {{
    {"workload.round", Layer::kWorkload},
    {"workload.fio_run", Layer::kWorkload},
    {"core.read", Layer::kCore},
    {"core.write", Layer::kCore},
    {"core.reset", Layer::kCore},
    {"core.flush", Layer::kCore},
    {"core.finish", Layer::kCore},
    {"core.powercut", Layer::kCore},
    {"core.recover", Layer::kCore},
    {"cache.get", Layer::kCache},
    {"cache.put", Layer::kCache},
    {"cache.sync", Layer::kCache},
    {"host.read", Layer::kHost},
    {"host.write", Layer::kHost},
    {"host.reset", Layer::kHost},
    {"host.flush", Layer::kHost},
    {"host.tick", Layer::kHost},
    {"host.mark_failed", Layer::kHost},
    {"host.replace", Layer::kHost},
    {"host.start_scrub", Layer::kHost},
    {"crash.verify", Layer::kCrash},
}};

}  // namespace

const char* SpanName(SpanKind k) { return kKinds[static_cast<std::size_t>(k)].name; }
Layer SpanLayer(SpanKind k) { return kKinds[static_cast<std::size_t>(k)].layer; }

const char* LayerName(Layer l) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "workload", "core", "cache", "host", "crash"};
  return kNames[static_cast<std::size_t>(l)];
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Begin(SpanKind kind) {
  const std::int64_t now = NowNs();
  if (epoch_ < 0) epoch_ = now;
  const std::uint32_t id = next_id_++;
  // A root span and each of its direct children start a new operation;
  // deeper spans belong to their ancestor's operation.
  const std::uint32_t op = stack_.size() <= 1 ? id : stack_.back().op;
  stack_.push_back(Frame{kind, id, op, now, 0});
}

void Tracer::End() {
  const std::int64_t now = NowNs();
  const Frame f = stack_.back();
  stack_.pop_back();
  const auto dur = static_cast<std::uint64_t>(now - f.start);
  Agg& a = agg_[static_cast<std::size_t>(f.kind)];
  ++a.calls;
  a.total_ns += dur;
  a.self_ns += dur - f.child_ns;
  std::uint32_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent = stack_.back().id;
  }
  if (kept_.size() < kMaxKeptSpans) {
    if (kept_.empty()) kept_.reserve(kMaxKeptSpans);
    kept_.push_back(Record{f.id, parent, f.op, f.kind, f.start, now});
  }
}

std::uint64_t Tracer::LayerSelfNs(Layer l) const {
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
    if (SpanLayer(static_cast<SpanKind>(k)) == l) sum += agg_[k].self_ns;
  }
  return sum;
}

std::uint64_t Tracer::SelfNsSum() const {
  std::uint64_t sum = 0;
  for (const Agg& a : agg_) sum += a.self_ns;
  return sum;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  for (const Record& r : kept_) {
    std::fprintf(f, "%u,%u,%u,%s,%lld,%lld\n", r.id, r.parent, r.op, SpanName(r.kind),
                 static_cast<long long>(r.start - epoch_),
                 static_cast<long long>(r.end - epoch_));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
