// Umbrella header: everything a downstream user of the ConZone emulator
// needs.
//
//   #include "conzone/conzone.hpp"
//
//   auto dev = conzone::ConZoneDevice::Create(
//       conzone::ConZoneConfig::PaperConfig());
//   conzone::FioRunner fio(**dev);
//   ...
#pragma once

#include "buffer/write_buffer.hpp"     // IWYU pragma: export
#include "cache/zone_cache.hpp"        // IWYU pragma: export
#include "cache/zone_cache_fsck.hpp"   // IWYU pragma: export
#include "common/ids.hpp"              // IWYU pragma: export
#include "common/rng.hpp"              // IWYU pragma: export
#include "common/stats.hpp"            // IWYU pragma: export
#include "common/status.hpp"           // IWYU pragma: export
#include "common/time.hpp"             // IWYU pragma: export
#include "common/units.hpp"            // IWYU pragma: export
#include "core/config.hpp"             // IWYU pragma: export
#include "core/crash_checker.hpp"      // IWYU pragma: export
#include "core/device.hpp"             // IWYU pragma: export
#include "core/storage_device.hpp"     // IWYU pragma: export
#include "core/zone_layout.hpp"        // IWYU pragma: export
#include "fault/fault_model.hpp"       // IWYU pragma: export
#include "femu/femu_device.hpp"        // IWYU pragma: export
#include "flash/array.hpp"             // IWYU pragma: export
#include "flash/checkpoint_store.hpp"  // IWYU pragma: export
#include "flash/geometry.hpp"          // IWYU pragma: export
#include "flash/timing.hpp"            // IWYU pragma: export
#include "ftl/l2p_cache.hpp"           // IWYU pragma: export
#include "ftl/mapping.hpp"             // IWYU pragma: export
#include "ftl/translator.hpp"          // IWYU pragma: export
#include "gc/slc_gc.hpp"               // IWYU pragma: export
#include "host/redundant_volume.hpp"   // IWYU pragma: export
#include "host/striped_volume.hpp"     // IWYU pragma: export
#include "legacy/legacy_device.hpp"    // IWYU pragma: export
#include "shard/shard_runner.hpp"      // IWYU pragma: export
#include "shard/sharded_runner.hpp"    // IWYU pragma: export
#include "soak/fleet_soak.hpp"         // IWYU pragma: export
#include "workload/cache_workload.hpp" // IWYU pragma: export
#include "workload/fio.hpp"            // IWYU pragma: export
#include "zns/zone.hpp"                // IWYU pragma: export
