// Test-side convenience wrappers over the IoRequest/IoResult device API.
//
// The StorageDevice (offset, len, now, ...) compat overloads are gone;
// tests that only care about completion time or a token round-trip call
// these one-line helpers instead of spelling the request struct at every
// site. They are ordinary IoRequest call sites; only MediaOf reaches
// around the public API.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "core/storage_device.hpp"

namespace conzone {

inline Result<SimTime> TestWrite(StorageDevice& d, std::uint64_t off,
                                 std::uint64_t len, SimTime now,
                                 std::span<const std::uint64_t> tokens = {}) {
  auto r = d.Write(IoRequest{off, len, now, tokens});
  if (!r.ok()) return r.status();
  return r.value().done;
}

inline Result<SimTime> TestRead(StorageDevice& d, std::uint64_t off,
                                std::uint64_t len, SimTime now,
                                std::vector<std::uint64_t>* tokens_out = nullptr) {
  auto r = d.Read(IoRequest{off, len, now, {},
                            /*want_tokens=*/tokens_out != nullptr});
  if (!r.ok()) return r.status();
  if (tokens_out != nullptr) *tokens_out = std::move(r.value().tokens);
  return r.value().done;
}

/// The device's flash array, writable: for tests that corrupt media under
/// a live mapping, which no device path does. The device owns the array
/// as a non-const member, so writing through this reference is defined.
inline FlashArray& MediaOf(const ConZoneDevice& dev) {
  return const_cast<FlashArray&>(dev.array());
}

}  // namespace conzone
