// Unit tests for the write-buffer pool and the zone state machine.
#include <gtest/gtest.h>

#include "buffer/write_buffer.hpp"
#include "zns/zone.hpp"

namespace conzone {
namespace {

constexpr std::uint64_t kSlot = 4 * kKiB;

WriteBufferConfig SmallBufCfg() {
  WriteBufferConfig c;
  c.num_buffers = 2;
  c.buffer_bytes = 16 * kKiB;  // 4 slots of kSlot
  return c;
}

std::vector<SlotWrite> Slots(std::uint64_t first_lpn, std::size_t n) {
  std::vector<SlotWrite> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back({Lpn{first_lpn + i}, first_lpn + i});
  return out;
}

// --- write buffers ---

TEST(WriteBufferPoolTest, ModuloMapping) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  EXPECT_EQ(pool.BufferForZone(ZoneId{0}).value(), 0u);
  EXPECT_EQ(pool.BufferForZone(ZoneId{1}).value(), 1u);
  EXPECT_EQ(pool.BufferForZone(ZoneId{2}).value(), 0u);
  EXPECT_EQ(pool.BufferForZone(ZoneId{7}).value(), 1u);
}

TEST(WriteBufferPoolTest, ConflictDetection) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  ASSERT_TRUE(pool.Append(ZoneId{0}, Lpn{0}, Slots(0, 2)).ok());
  EXPECT_FALSE(pool.HasConflict(ZoneId{0}));  // same zone continues
  EXPECT_TRUE(pool.HasConflict(ZoneId{2}));   // same buffer, other zone
  EXPECT_FALSE(pool.HasConflict(ZoneId{1}));  // other buffer
}

TEST(WriteBufferPoolTest, AppendEnforcesContiguity) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  ASSERT_TRUE(pool.Append(ZoneId{0}, Lpn{0}, Slots(0, 2)).ok());
  EXPECT_EQ(pool.Append(ZoneId{0}, Lpn{5}, Slots(5, 1)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(pool.Append(ZoneId{0}, Lpn{2}, Slots(2, 2)).ok());
  EXPECT_EQ(pool.FreeSlots(WriteBufferId{0}), 0u);
  EXPECT_EQ(pool.Append(ZoneId{0}, Lpn{4}, Slots(4, 1)).code(),
            StatusCode::kResourceExhausted);
}

TEST(WriteBufferPoolTest, AppendRejectsForeignOwner) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  ASSERT_TRUE(pool.Append(ZoneId{0}, Lpn{0}, Slots(0, 1)).ok());
  EXPECT_EQ(pool.Append(ZoneId{2}, Lpn{100}, Slots(100, 1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(WriteBufferPoolTest, TakeReturnsContentAndClears) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  ASSERT_TRUE(pool.Append(ZoneId{0}, Lpn{10}, Slots(10, 3)).ok());
  const BufferedExtent e = pool.Take(WriteBufferId{0}, /*conflict=*/true);
  EXPECT_EQ(e.owner, ZoneId{0});
  EXPECT_EQ(e.first_lpn, Lpn{10});
  EXPECT_EQ(e.slot_count(), 3u);
  EXPECT_TRUE(pool.Contents(WriteBufferId{0}).empty());
  EXPECT_EQ(pool.stats().conflicts, 1u);
  EXPECT_EQ(pool.stats().takes, 1u);
}

TEST(WriteBufferPoolTest, DiscardDropsOnlyThatZone) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  ASSERT_TRUE(pool.Append(ZoneId{0}, Lpn{0}, Slots(0, 1)).ok());
  ASSERT_TRUE(pool.Append(ZoneId{1}, Lpn{4096}, Slots(4096, 1)).ok());
  pool.Discard(ZoneId{0});
  EXPECT_TRUE(pool.Contents(WriteBufferId{0}).empty());
  EXPECT_FALSE(pool.Contents(WriteBufferId{1}).empty());
}

TEST(WriteBufferPoolTest, StreamPickerPrefersContinuation) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  ASSERT_TRUE(pool.AppendTo(WriteBufferId{0}, ZoneId{0}, Lpn{0}, Slots(0, 2)).ok());
  ASSERT_TRUE(pool.AppendTo(WriteBufferId{1}, ZoneId{0}, Lpn{50}, Slots(50, 2)).ok());
  EXPECT_EQ(pool.PickBufferForStream(Lpn{2}).value(), 0u);   // continues buffer 0
  EXPECT_EQ(pool.PickBufferForStream(Lpn{52}).value(), 1u);  // continues buffer 1
  // A stranger stream gets the least recently appended buffer (0).
  EXPECT_EQ(pool.PickBufferForStream(Lpn{999}).value(), 0u);
}

TEST(WriteBufferPoolTest, StreamPickerPrefersEmptyOverEviction) {
  WriteBufferPool pool(SmallBufCfg(), kSlot);
  ASSERT_TRUE(pool.AppendTo(WriteBufferId{0}, ZoneId{0}, Lpn{0}, Slots(0, 2)).ok());
  EXPECT_EQ(pool.PickBufferForStream(Lpn{999}).value(), 1u);  // buffer 1 empty
}

TEST(WriteBufferPoolTest, ConfigValidation) {
  WriteBufferConfig c = SmallBufCfg();
  c.num_buffers = 0;
  EXPECT_FALSE(c.Validate(kSlot).ok());
  c = SmallBufCfg();
  c.buffer_bytes = 10 * 1000;  // not a slot multiple
  EXPECT_FALSE(c.Validate(kSlot).ok());
}

// --- zones ---

ZoneLimitsConfig SmallZoneCfg() {
  ZoneLimitsConfig c;
  c.zone_size_bytes = 64 * kKiB;
  c.zone_capacity_bytes = 64 * kKiB;
  c.num_zones = 8;
  c.max_open_zones = 2;
  c.max_active_zones = 4;
  return c;
}

TEST(ZoneManagerTest, WriteMustFollowWritePointer) {
  ZoneManager z(SmallZoneCfg());
  EXPECT_TRUE(z.BeginWrite(ZoneId{0}, 0, 4096).ok());
  EXPECT_EQ(z.Info(ZoneId{0}).write_pointer, 4096u);
  EXPECT_EQ(z.Info(ZoneId{0}).state, ZoneState::kImplicitOpen);
  EXPECT_EQ(z.BeginWrite(ZoneId{0}, 0, 4096).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(z.BeginWrite(ZoneId{0}, 4096, 4096).ok());
}

TEST(ZoneManagerTest, FullZoneRejectsWritesUntilReset) {
  ZoneManager z(SmallZoneCfg());
  ASSERT_TRUE(z.BeginWrite(ZoneId{0}, 0, 64 * kKiB).ok());
  EXPECT_EQ(z.Info(ZoneId{0}).state, ZoneState::kFull);
  EXPECT_EQ(z.open_count(), 0u);  // FULL releases the open slot
  EXPECT_EQ(z.BeginWrite(ZoneId{0}, 64 * kKiB, 4096).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(z.Reset(ZoneId{0}).ok());
  EXPECT_EQ(z.Info(ZoneId{0}).state, ZoneState::kEmpty);
  EXPECT_EQ(z.Info(ZoneId{0}).resets, 1u);
  EXPECT_TRUE(z.BeginWrite(ZoneId{0}, 0, 4096).ok());
}

TEST(ZoneManagerTest, WriteBeyondCapacityRejected) {
  ZoneManager z(SmallZoneCfg());
  EXPECT_EQ(z.BeginWrite(ZoneId{0}, 0, 65 * kKiB).code(), StatusCode::kOutOfRange);
}

TEST(ZoneManagerTest, OpenLimitClosesImplicitZones) {
  ZoneManager z(SmallZoneCfg());
  ASSERT_TRUE(z.BeginWrite(ZoneId{0}, 0, 4096).ok());
  ASSERT_TRUE(z.BeginWrite(ZoneId{1}, 0, 4096).ok());
  EXPECT_EQ(z.open_count(), 2u);
  // Third implicit open: zone 0 is silently closed to make room.
  ASSERT_TRUE(z.BeginWrite(ZoneId{2}, 0, 4096).ok());
  EXPECT_EQ(z.open_count(), 2u);
  EXPECT_EQ(z.Info(ZoneId{0}).state, ZoneState::kClosed);
  EXPECT_EQ(z.active_count(), 3u);
  // A write to the closed zone re-opens it at its write pointer.
  ASSERT_TRUE(z.BeginWrite(ZoneId{0}, 4096, 4096).ok());
  EXPECT_EQ(z.Info(ZoneId{0}).state, ZoneState::kImplicitOpen);
}

TEST(ZoneManagerTest, ActiveLimitEnforced) {
  ZoneManager z(SmallZoneCfg());
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(z.BeginWrite(ZoneId{i}, 0, 4096).ok()) << i;
  }
  EXPECT_EQ(z.active_count(), 4u);
  EXPECT_EQ(z.BeginWrite(ZoneId{4}, 0, 4096).code(), StatusCode::kResourceExhausted);
}

TEST(ZoneManagerTest, ExplicitOpenPinsTheSlot) {
  ZoneManager z(SmallZoneCfg());
  ASSERT_TRUE(z.ExplicitOpen(ZoneId{0}).ok());
  ASSERT_TRUE(z.ExplicitOpen(ZoneId{1}).ok());
  // Explicitly open zones cannot be displaced by an implicit open.
  EXPECT_EQ(z.BeginWrite(ZoneId{2}, 0, 4096).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(z.Close(ZoneId{0}).ok());
  EXPECT_TRUE(z.BeginWrite(ZoneId{2}, 0, 4096).ok());
}

TEST(ZoneManagerTest, CloseEmptyZoneReturnsToEmpty) {
  ZoneManager z(SmallZoneCfg());
  ASSERT_TRUE(z.ExplicitOpen(ZoneId{0}).ok());
  ASSERT_TRUE(z.Close(ZoneId{0}).ok());
  EXPECT_EQ(z.Info(ZoneId{0}).state, ZoneState::kEmpty);
  EXPECT_EQ(z.active_count(), 0u);
}

TEST(ZoneManagerTest, FinishPinsWritePointer) {
  ZoneManager z(SmallZoneCfg());
  ASSERT_TRUE(z.BeginWrite(ZoneId{0}, 0, 4096).ok());
  ASSERT_TRUE(z.Finish(ZoneId{0}).ok());
  EXPECT_EQ(z.Info(ZoneId{0}).state, ZoneState::kFull);
  EXPECT_EQ(z.Info(ZoneId{0}).write_pointer, 64 * kKiB);
  EXPECT_EQ(z.open_count(), 0u);
  EXPECT_EQ(z.active_count(), 0u);
}

TEST(ZoneManagerTest, ReadBoundedByWritePointer) {
  ZoneManager z(SmallZoneCfg());
  ASSERT_TRUE(z.BeginWrite(ZoneId{0}, 0, 8192).ok());
  EXPECT_TRUE(z.CheckRead(ZoneId{0}, 0, 8192).ok());
  EXPECT_EQ(z.CheckRead(ZoneId{0}, 4096, 8192).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(z.CheckRead(ZoneId{9}, 0, 4096).code(), StatusCode::kOutOfRange);
}

TEST(ZoneManagerTest, ConfigValidation) {
  ZoneLimitsConfig c = SmallZoneCfg();
  c.max_active_zones = 1;  // below max_open
  EXPECT_FALSE(c.Validate().ok());
  c = SmallZoneCfg();
  c.zone_capacity_bytes = c.zone_size_bytes + 1;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallZoneCfg();
  c.num_zones = 0;
  EXPECT_FALSE(c.Validate().ok());
}

}  // namespace
}  // namespace conzone
