// Forwarding StorageDevice wrapper: every call goes straight to the
// wrapped device inside a span of the wrapper's layer (core spans around
// a ConZone device, host spans around a volume). It adds no state and
// changes no argument, so simulated outputs are bit-identical with and
// without it — the self-test checks exactly that.
#pragma once

#include <memory>
#include <utility>

#include "conzone/conzone.hpp"
#include "trace.hpp"

namespace perfbench {

struct DeviceSpans {
  SpanKind read;
  SpanKind write;
  SpanKind reset;
  SpanKind flush;
};

inline constexpr DeviceSpans kCoreSpans{SpanKind::kCoreRead, SpanKind::kCoreWrite,
                                        SpanKind::kCoreReset, SpanKind::kCoreFlush};
inline constexpr DeviceSpans kHostSpans{SpanKind::kHostRead, SpanKind::kHostWrite,
                                        SpanKind::kHostReset, SpanKind::kHostFlush};

class TimedDevice final : public conzone::StorageDevice {
 public:
  TimedDevice(std::unique_ptr<conzone::StorageDevice> inner, DeviceSpans spans)
      : inner_(std::move(inner)), spans_(spans) {}

  conzone::StorageDevice& inner() { return *inner_; }

  conzone::DeviceInfo info() const override { return inner_->info(); }
  conzone::Result<conzone::IoResult> Write(const conzone::IoRequest& req) override {
    Span s(spans_.write);
    return inner_->Write(req);
  }
  conzone::Result<conzone::IoResult> Read(const conzone::IoRequest& req) override {
    Span s(spans_.read);
    return inner_->Read(req);
  }
  conzone::Result<conzone::SimTime> ResetZone(conzone::ZoneId zone,
                                              conzone::SimTime now) override {
    Span s(spans_.reset);
    return inner_->ResetZone(zone, now);
  }
  conzone::Result<conzone::SimTime> Flush(conzone::SimTime now) override {
    Span s(spans_.flush);
    return inner_->Flush(now);
  }
  conzone::StatsSnapshot Stats() const override { return inner_->Stats(); }
  conzone::ReliabilityStats Reliability() const override { return inner_->Reliability(); }
  conzone::RecoveryStats Recovery() const override { return inner_->Recovery(); }

 private:
  std::unique_ptr<conzone::StorageDevice> inner_;
  DeviceSpans spans_;
};

}  // namespace perfbench
