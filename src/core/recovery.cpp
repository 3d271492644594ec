// The checkpoint image's writer and reader (DESIGN.md §12), and power-cut
// recovery as named passes over one MountState (§5e).
#include "core/recovery.hpp"

#include <algorithm>
#include <string>

#include "core/device.hpp"

namespace conzone {

namespace {
/// Move `bytes` of metadata in page-sized chunks striped round-robin over
/// `num_chips` chips from `chip`, which ends past the last chunk. Each
/// chunk goes through `transfer(chip, chunk_bytes, at)`, which returns
/// its completion. Chunks on one chip chain from `issue`; chips run in
/// parallel, so the transfer ends at the latest chain.
template <class Transfer>
SimTime StripeOverChips(std::uint64_t bytes, std::uint64_t page_size,
                        std::uint32_t num_chips, std::uint32_t& chip, SimTime issue,
                        Transfer&& transfer) {
  std::vector<SimTime> chip_done(num_chips, issue);
  for (std::uint64_t left = bytes; left > 0;) {
    const std::uint64_t chunk = std::min(left, page_size);
    chip_done[chip] = transfer(ChipId{chip}, chunk, chip_done[chip]);
    chip = (chip + 1) % num_chips;
    left -= chunk;
  }
  SimTime done = issue;
  for (SimTime d : chip_done) done = Later(done, d);
  return done;
}

/// Map `lpn` to its valid slot `ppn` unless a copy is mapped already:
/// the identical mapping is skipped, and any other is a second valid copy
/// of the lpn, which fails the mount. ClearForMountExcept trusts that a
/// zone with no mapped entry holds only default ones; the kept ranges
/// still hold stale bytes, so the failure leaves a wholly cleared table.
Status MapOnce(MappingTable& table, Lpn lpn, Ppn ppn, std::uint64_t& mapped) {
  const MapEntry prev = table.Get(lpn);
  if (!prev.mapped()) {
    table.Set(lpn, ppn);
    ++mapped;
    return Status::Ok();
  }
  if (prev.ppn == ppn) return Status::Ok();
  table.ClearAllForMount();
  return Status::Internal("mount scan found two valid copies of lpn " +
                          std::to_string(lpn.value()));
}
}  // namespace

// ---------------------------------------------------------------------------
// The checkpoint image
// ---------------------------------------------------------------------------

SimTime ConZoneDevice::WriteCheckpoint(SimTime now) {
  CheckpointImage img;
  img.seq = ckpt_.NextSeq();
  img.program_seq = array_.program_seq();
  // The first image after a mount completes the seeding: a zone still
  // unchanged since then is one the mount restored, and its runs are the
  // replayed image's runs clipped to it. Deferred to here because a cut
  // may come before any image is written.
  for (const MapRun& run : mount_runs_) {
    for (std::uint64_t lpn = run.lpn, end = run.lpn + run.count; lpn < end;) {
      const std::uint64_t z = div_lpns_per_zone_.Div(lpn);
      const std::uint64_t n = std::min(end, (z + 1) * lpns_per_zone_) - lpn;
      if (z < zone_images_.size() && !table_.zone_changed(ZoneId{z})) {
        AppendRun(zone_images_[z].runs, MapRun{lpn, run.ppn + (lpn - run.lpn), n});
      }
      lpn += n;
    }
  }
  mount_runs_.clear();
  // Incremental: a zone whose mapping changed since the last image is
  // re-walked into its maximal runs and re-reconciled; every other zone
  // reuses its cached ones. Extent-coded: zoned fills are contiguous in
  // both lpn and ppn space, so a zone collapses to O(extents) runs. The
  // cached runs join with AddMapping's merge rule, because a run can
  // continue across a zone boundary: the run list, and with it every
  // image byte, is the one a walk of the whole table builds.
  for (std::uint32_t z = 0; z < zone_images_.size(); ++z) {
    const ZoneId zone{z};
    ZoneImage& zi = zone_images_[z];
    if (table_.zone_changed(zone)) {
      zi.runs.clear();
      table_.ForEachMappedInZone(zone, [&](Lpn lpn, Ppn ppn) {
        AppendRun(zi.runs, MapRun{lpn.value(), ppn.value(), 1});
      });
      if (!IsConventional(zone)) zi.rec = ReconcileZoneMapping(zone);
      table_.ClearZoneChanged(zone);
    }
    for (const MapRun& run : zi.runs) AppendRun(img.mappings, run);
    img.zones.push_back(SnapZone(zone, zi.rec));
  }
  AddFreeLists(img);
  std::vector<std::uint8_t> blob = img.Encode();

  // Honest media cost on the shared chip timelines: reclaim the target
  // slot's block, then program the image striped across the chips, so it
  // lands in max-over-chips time, not the sum.
  const int slot = ckpt_.NextSlot();
  const SimTime erased = engine_.Erase(ChipId{ckpt_chip_}, cfg_.map_media, now);
  const SimTime t = StripeOverChips(blob.size(), cfg_.geometry.page_size,
                                    cfg_.geometry.NumChips(), ckpt_chip_, erased,
                                    [&](ChipId chip, std::uint64_t chunk, SimTime at) {
                                      return engine_.Program(chip, cfg_.map_media, chunk,
                                                             at).end;
                                    });
  ++recovery_.checkpoints_written;
  recovery_.checkpoint_bytes += blob.size();
  // Commit carries the media window's end: a cut before `t` tears this
  // slot and mount falls back to the other image (or the full scan).
  ckpt_.Commit(slot, std::move(blob), img.seq, t);
  flushed_entries_since_ckpt_ = 0;
  media_horizon_ = Later(media_horizon_, t);
  return t;
}

std::vector<std::uint8_t> ConZoneDevice::CheckpointBlobForTest(std::uint64_t seq) const {
  CheckpointImage img;
  img.seq = seq;
  img.program_seq = array_.program_seq();
  table_.ForEachMapped([&](Lpn lpn, Ppn ppn) { img.AddMapping(lpn.value(), ppn.value()); });
  for (std::uint32_t z = 0; z < runtime_.size(); ++z) {
    const ZoneId zone{z};
    img.zones.push_back(
        SnapZone(zone, IsConventional(zone) ? ZoneReconcile{} : ReconcileZoneMapping(zone)));
  }
  AddFreeLists(img);
  return img.Encode();
}

ZoneSnap ConZoneDevice::SnapZone(ZoneId zone, const ZoneReconcile& rec) const {
  ZoneSnap snap;
  snap.write_pointer = zones_.Info(zone).write_pointer;
  if (IsConventional(zone)) return snap;
  snap.durable_normal_end = rec.durable_normal_end;
  snap.patch_start = rec.patch_start.value();
  if (rec.degraded) snap.flags |= ZoneSnap::kFlagDegraded;
  if (rec.patch_contiguous) snap.flags |= ZoneSnap::kFlagPatchContiguous;
  // A zone with no orphans whose staged extent reaches the host-visible
  // write pointer (nothing buffered or in flight) is restorable: left
  // untouched, it restores its runtime from these fields at mount
  // without re-walking its lpns.
  if (!rec.has_orphans && rec.staged_end == snap.write_pointer) {
    snap.flags |= ZoneSnap::kFlagRestorable;
  }
  return snap;
}

ConZoneDevice::ZoneFacts ConZoneDevice::FactsOfSnap(const ZoneSnap& snap) {
  ZoneFacts facts;
  facts.durable_normal_end = snap.durable_normal_end;
  facts.staged_end = snap.write_pointer;
  facts.patch_start = Ppn{snap.patch_start};
  facts.degraded = (snap.flags & ZoneSnap::kFlagDegraded) != 0;
  facts.patch_contiguous = (snap.flags & ZoneSnap::kFlagPatchContiguous) != 0;
  return facts;
}

void ConZoneDevice::AddFreeLists(CheckpointImage& img) const {
  for (SuperblockId sb : pool_.FreeSlcList()) img.free_slc.push_back(sb.value());
  for (SuperblockId sb : pool_.FreeNormalList()) img.free_normal.push_back(sb.value());
}

Result<SimTime> ConZoneDevice::CheckpointNow(SimTime now) {
  if (!cfg_.checkpoint.enabled) {
    return Status::FailedPrecondition("checkpointing is not enabled");
  }
  if (Status st = BeginHostOp(now); !st.ok()) return st;
  const SimTime logged = MaybeFlushL2pLog(now, /*force=*/true);
  return WriteCheckpoint(logged);
}

ConZoneDevice::ZoneReconcile ConZoneDevice::ReconcileZoneMapping(
    ZoneId zone) const {
  const FlashGeometry& geo = cfg_.geometry;
  ZoneReconcile rec;
  const Lpn zbase = ZoneBaseLpn(zone);
  const std::uint64_t slot = geo.slot_size;
  const std::uint64_t unit_lpns = geo.program_unit / slot;
  const std::uint64_t normal_lpns = layout_.normal_bytes() / slot;
  const std::uint64_t zone_lpns = LpnsPerZone();

  // 1. Durable normal prefix: whole one-shot units fully mapped from unit
  //    0 upward. A unit counts even when its slots were re-driven into
  //    SLC — the zone simply comes back degraded, like after a live
  //    program failure. A one-shot unit never spans blocks and its slots
  //    are ppn-consecutive, so one NormalSlot call per unit anchors the
  //    layout compare for all of its lpns.
  std::uint64_t u = 0;
  bool degraded = false;
  for (; u < normal_lpns / unit_lpns; ++u) {
    const Ppn unit_base =
        layout_.NormalSlot(SeqZone(zone), u * geo.program_unit);
    bool full = true;
    bool off_layout = false;
    for (std::uint64_t k = 0; k < unit_lpns; ++k) {
      const std::uint64_t rel = u * unit_lpns + k;
      const MapEntry e = table_.Get(Lpn(zbase.value() + rel));
      if (!e.mapped()) {
        full = false;
        break;
      }
      if (e.ppn.value() != unit_base.value() + k) off_layout = true;
    }
    if (!full) break;
    degraded |= off_layout;
  }
  rec.durable_normal_end = u * geo.program_unit;
  rec.degraded = degraded;

  // 2. Contiguous staged run beyond the durable prefix (SLC staging and,
  //    on a complete zone, the patch).
  std::uint64_t s = u * unit_lpns;
  while (s < zone_lpns && table_.Get(Lpn(zbase.value() + s)).mapped()) ++s;
  rec.staged_end = s * slot;

  // 3. Mapped islands beyond the staged extent: the s lpns below it are
  //    all mapped, so any further mapped entry shows in the zone's count.
  rec.has_orphans = table_.zone_mapped_count(zone) > s;

  // 4. §III-E patch contiguity, rechecked against the stripe layout so
  //    aggregated reads stay sound after the remount.
  if (rec.staged_end == cfg_.zone_size_bytes && layout_.patch_bytes() > 0) {
    const MapEntry first = table_.Get(Lpn(zbase.value() + normal_lpns));
    bool contiguous = first.mapped();
    for (std::uint64_t k = 1; contiguous && k < zone_lpns - normal_lpns; ++k) {
      const MapEntry e = table_.Get(Lpn(zbase.value() + normal_lpns + k));
      auto expect = layout_.StripeAdvance(first.ppn, k);
      if (!expect || !e.mapped() || e.ppn != *expect) contiguous = false;
    }
    rec.patch_start = first.ppn;
    rec.patch_contiguous = contiguous;
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Power cut
// ---------------------------------------------------------------------------

Status ConZoneDevice::PowerCut(SimTime cut_time) {
  if (!array_.JournalEnabled()) {
    return Status::FailedPrecondition(
        "power loss not enabled (set fault.power_loss before Create)");
  }
  if (powered_off_) {
    return Status::FailedPrecondition("device is already powered off");
  }
  if (cut_time < last_submit_) {
    return Status::InvalidArgument("power cut precedes the last host submission");
  }
  ++recovery_.power_cuts;
  // Media first: every batch whose program window had not closed at the
  // cut rolls back per the journal's point-of-no-return rule.
  FlashArray::PowerCutReport rep = array_.ApplyPowerCut(cut_time);
  recovery_.torn_program_slots += rep.torn_program_slots;
  recovery_.unissued_program_slots += rep.unissued_program_slots;
  recovery_.resurrected_slots += rep.resurrected_slots;
  reerase_pending_ = std::move(rep.reerase);
  rescan_pending_ = std::move(rep.rescan);
  last_cut_time_ = cut_time;
  // A checkpoint image whose programs had not finished at the cut is
  // torn; the store invalidates it so mount elects the previous image.
  recovery_.checkpoints_torn += ckpt_.ApplyPowerCut(cut_time);
  // Volatile controller state dies with the SRAM: buffered host data and
  // the unflushed (or in-flight) L2P log tail.
  recovery_.buffered_slots_lost += buffers_.DiscardAll();
  recovery_.l2p_log_bytes_lost += l2p_log_.DropVolatile(cut_time);
  // The image cache is controller RAM as well; the mount re-seeds the
  // zones it restores from the image it loads (WriteCheckpoint appends
  // their runs to these emptied entries).
  for (ZoneImage& zi : zone_images_) {
    zi.runs.clear();
    zi.rec = ZoneReconcile{};
  }
  powered_off_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Mount
// ---------------------------------------------------------------------------

MountState::MountState(std::uint32_t num_zones, std::uint64_t num_blocks,
                       std::span<const BlockId> rescan_blocks)
    : rescan(static_cast<std::size_t>(num_blocks), 0),
      zone_dirty(num_zones, 0),
      agg(num_zones) {
  for (const BlockId b : rescan_blocks) rescan[static_cast<std::size_t>(b.value())] = 1;
}

Result<SimTime> ConZoneDevice::Recover(SimTime now) {
  if (!powered_off_) {
    return Status::FailedPrecondition("device is not powered off");
  }
  // Recovery's own media mutations are the new durable baseline, not
  // undoable state (a second cut during the remount is not modeled).
  array_.PauseJournal(true);
  auto fail = [&](Status st) -> Result<SimTime> {
    array_.PauseJournal(false);
    return st;
  };

  // 1. Torn erases left untrusted cells: run a real erase (wear and
  //    possible faults included) before anything can program there.
  SimTime erased = now;
  for (const BlockId b : reerase_pending_) {
    if (array_.IsRetired(b)) continue;
    auto done = EraseOrRetire(array_, engine_, b, now);
    if (!done.ok()) return fail(done.status());
    erased = Later(erased, done.value());
    ++recovery_.reerased_blocks;
  }
  reerase_pending_.clear();

  // 2. The media passes rebuild the page-granularity table: the newest
  //    image where the media still holds what it saw, the OOB of every
  //    block programmed after it (replaying what the lost log tail
  //    described), and all of the media without one. The image load and
  //    every block's senses start when the re-erase ends.
  MountState ms(NumZones(), cfg_.geometry.TotalBlocks(), rescan_pending_);
  rescan_pending_.clear();
  mount_runs_.clear();
  const SimTime loaded = LoadImage(ms, erased);
  if (ms.image) MarkCleanRuns(array_, table_, ms);
  // Reset the table, skipping the ranges the clean runs stream over in
  // pass B: at high fullness nearly every entry is about to be
  // re-installed, and rewriting the table twice is the dominant mount
  // cost. The tail scan and the unclean runs need genuinely cleared
  // entries (MapOnce probes them), and their lpns are never inside a
  // clean run: a later copy of a clean run's lpn would have invalidated
  // the run's slot (change stamp) or sits in a cut-undo block (rescan
  // flag), so pass A marked the run unclean. A stale entry slipping
  // through anyway trips MapOnce or the Σvalid == mapped gate.
  table_.ClearForMountExcept(ms.keep);
  auto scanned = ScanTail(array_, table_, engine_, ms, erased, recovery_);
  if (!scanned.ok()) return fail(scanned.status());
  if (ms.image) {
    // zone_dirty is final now, so each restored zone's aggregation is
    // known and its clean runs install with their final map bits.
    for (std::uint32_t z = cfg_.num_conventional_zones; z < NumZones(); ++z) {
      if (ms.RestoredFromSnapshot(z)) {
        ms.agg[z] = AggregationOf(FactsOfSnap(ms.image->zones[z]));
      }
    }
    if (Status st = InstallImage(array_, table_, ms, recovery_); !st.ok()) return fail(st);
    // A restored zone's table is exactly these runs clipped to the zone:
    // keep them for its image-cache entry (WriteCheckpoint).
    if (ms.have_snaps) mount_runs_ = std::move(ms.image->mappings);
  }
  const SimTime t = Later(loaded, scanned.value());

  // 3. The L2P cache died with the SRAM. Clear it before the zone restore
  //    re-pins aggregated entries.
  cache_.InvalidateLpnRange(Lpn(0), static_cast<std::uint64_t>(NumZones()) * LpnsPerZone());
  if (Status st = RestoreZones(ms); !st.ok()) return fail(st);
  zones_.RecountAfterMount();

  // 4. Allocators and free lists from the surviving media state.
  pool_.RebuildFreeLists(array_);
  slc_alloc_.Remount();
  conv_log_.Remount();
  read_only_ = array_.HealthySlcBlocks() < cfg_.fault.read_only_spare_floor_blocks;

  // 5. The mount gates.
  if (Status st = CheckMountGates(); !st.ok()) return fail(st);

  for (SimTime& br : buffer_ready_) br = t;
  media_horizon_ = t;
  last_submit_ = t;
  powered_off_ = false;
  ++recovery_.recoveries;
  recovery_.remount_time += t - now;
  recovery_.remount_hist.Record(t - now);
  recovery_.reerase_time += erased - now;
  recovery_.image_load_time += loaded - erased;
  recovery_.tail_scan_time += scanned.value() - erased;
  array_.PauseJournal(false);
  return t;
}

SimTime ConZoneDevice::LoadImage(MountState& ms, SimTime now) {
  // NewestValid only elects decodable slots, so Decode cannot fail here;
  // the has_value() check keeps the fallback honest anyway.
  const CheckpointStore::Slot* slot = cfg_.checkpoint.enabled ? ckpt_.NewestValid() : nullptr;
  if (slot != nullptr) ms.image = CheckpointImage::Decode(slot->blob);
  if (!ms.image) return now;
  ++recovery_.checkpoint_loaded;
  recovery_.checkpoint_age_hist.Record(last_cut_time_ - slot->media_end);
  ms.have_snaps = ms.image->zones.size() == NumZones();
  // Charge the load like the write: page reads striped over the chips
  // from chip 0.
  const FlashGeometry& geo = cfg_.geometry;
  std::uint32_t chip = 0;
  return StripeOverChips(slot->blob.size(), geo.page_size, geo.NumChips(), chip, now,
                         [&](ChipId c, std::uint64_t chunk, SimTime at) {
                           array_.CountPageRead();
                           return engine_.ReadPage(c, cfg_.map_media, chunk, at);
                         });
}

void MarkCleanRuns(const FlashArray& array, const MappingTable& table, MountState& ms) {
  // The image is a RAM snapshot: a run is clean only when every block its
  // ppns touch is unchanged since it, so the media still holds exactly
  // what the image recorded. Unclean runs dirty every zone they span:
  // those zones' restore falls back to media reconciliation, and pass B
  // re-checks their entries one by one.
  const FlashGeometry& geo = array.geometry();
  const std::uint64_t num_lpns = table.geometry().num_lpns;
  const std::uint64_t lpns_per_zone = table.geometry().lpns_per_zone;
  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo.pages_per_block) * geo.SlotsPerPage();
  const std::uint64_t total_slots = geo.TotalBlocks() * slots_per_block;
  const std::vector<MapRun>& runs = ms.image->mappings;
  ms.run_clean.assign(runs.size(), 0);
  ms.keep.reserve(runs.size());
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    const MapRun& run = runs[ri];
    // Overflow-free bounds: a checksum-valid image may hold any run.
    bool clean = run.count <= num_lpns && run.lpn <= num_lpns - run.count &&
                 run.count <= total_slots && run.ppn <= total_slots - run.count;
    if (clean) {
      const std::uint64_t b_last = (run.ppn + run.count - 1) / slots_per_block;
      for (std::uint64_t b = run.ppn / slots_per_block; clean && b <= b_last; ++b) {
        clean = array.LastChangeSeq(BlockId{b}) <= ms.watermark() &&
                ms.rescan[static_cast<std::size_t>(b)] == 0;
      }
    }
    if (clean) {
      ms.run_clean[ri] = 1;
      ms.keep.emplace_back(run.lpn, run.count);
      continue;
    }
    const std::uint64_t z0 = run.lpn / lpns_per_zone;
    const std::uint64_t z1 = (run.lpn + run.count - 1) / lpns_per_zone;
    for (std::uint64_t z = z0; z <= z1 && z < ms.zone_dirty.size(); ++z) {
      ms.zone_dirty[static_cast<std::size_t>(z)] = 1;
    }
  }
}

Result<SimTime> ScanTail(FlashArray& array, MappingTable& table,
                         FlashTimingEngine& engine, MountState& ms, SimTime now,
                         RecoveryStats& stats) {
  const FlashGeometry& geo = array.geometry();
  const std::uint64_t lpns_per_zone = table.geometry().lpns_per_zone;
  const std::uint32_t slots_per_page = geo.SlotsPerPage();
  const std::uint64_t slots_per_block =
      static_cast<std::uint64_t>(geo.pages_per_block) * slots_per_page;
  SimTime done = now;
  std::uint64_t mapped = 0;
  // Hot loop: the flat ppn of a block's slot s is base + s, so the
  // per-slot PageAt/SlotAt arithmetic is hoisted into one running base
  // per block.
  std::uint64_t base = 0;
  for (std::uint64_t bi = 0; bi < geo.TotalBlocks(); ++bi, base += slots_per_block) {
    const BlockId b{bi};
    const std::uint32_t used = array.NextProgramSlot(b);
    if (used == 0) continue;
    const std::uint32_t used_pages = (used + slots_per_page - 1) / slots_per_page;
    if (ms.image && array.LastProgramSeq(b) <= ms.watermark() &&
        ms.rescan[static_cast<std::size_t>(bi)] == 0) {
      // Untouched since the image: it already mapped every valid slot
      // here identically. Skip the senses entirely.
      stats.pages_skipped += used_pages;
      continue;
    }
    // One OOB sense per used page; pages of one block are sequential on
    // the chip, blocks on different chips overlap via the timelines.
    const ChipId chip = geo.ChipOfBlock(b);
    const CellType cell = geo.CellOfBlock(b);
    SimTime block_done = now;
    for (std::uint32_t p = 0; p < used_pages; ++p) {
      array.CountPageRead();
      block_done = engine.ReadPage(chip, cell, geo.page_size, block_done);
      ++stats.pages_scanned;
    }
    done = Later(done, block_done);
    for (std::uint32_t s = 0; s < used; ++s) {
      const Ppn ppn{base + s};
      // PeekSlot: the mount scan charges timing above but never draws
      // from the fault RNG — a cut/recover cycle must not perturb the
      // fault sequence of later host IO.
      const SlotRead r = array.PeekSlot(ppn);
      if (r.state != SlotState::kValid) continue;
      if (!r.lpn.valid()) continue;  // alignment padding never maps
      // A sensed slot means its zone changed after the image (or there
      // is no image); its restore must re-reconcile.
      const std::uint64_t z = r.lpn.value() / lpns_per_zone;
      if (z < ms.zone_dirty.size()) ms.zone_dirty[static_cast<std::size_t>(z)] = 1;
      // Image entries install after this loop, so a mapping here is
      // another sensed block's copy.
      if (Status st = MapOnce(table, r.lpn, ppn, mapped); !st.ok()) return st;
    }
  }
  stats.replayed_mappings += mapped;
  return done;
}

Status InstallImage(const FlashArray& array, MappingTable& table, const MountState& ms,
                    RecoveryStats& stats) {
  const std::uint64_t num_lpns = table.geometry().num_lpns;
  const std::uint64_t lpns_per_zone = table.geometry().lpns_per_zone;
  std::uint64_t accepted = 0;
  const std::vector<MapRun>& runs = ms.image->mappings;
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    const MapRun& run = runs[ri];
    if (ms.run_clean[ri] != 0) {
      // Clean runs install blind: image lpns are unique, and any later
      // copy of a clean run's data would have changed one of its blocks.
      // One streaming store per zone segment, with its final map bits.
      for (std::uint64_t lpn = run.lpn, ppn = run.ppn, left = run.count; left > 0;) {
        const std::uint64_t z = lpn / lpns_per_zone;
        const std::uint64_t agg_end = z * lpns_per_zone + ms.agg[z].lpns;
        const bool in_agg = lpn < agg_end;
        const std::uint64_t seg_end = in_agg ? agg_end : (z + 1) * lpns_per_zone;
        const std::uint64_t n = std::min(left, seg_end - lpn);
        table.InstallRunAtMount(Lpn{lpn}, Ppn{ppn}, n,
                                in_agg ? ms.agg[z].gran : MapGranularity::kPage);
        lpn += n;
        ppn += n;
        left -= n;
      }
      accepted += run.count;
      continue;
    }
    // Something under the run moved after the image (pass A dirtied its
    // zones): each entry is re-checked against the media it points at.
    // A slot torn or superseded since rejects here, and the tail scan
    // already supplied the truth.
    for (std::uint64_t i = 0; i < run.count; ++i) {
      const std::uint64_t lpn_v = run.lpn + i;
      // PeekSlot: no fault RNG draws, as in the tail scan.
      const SlotRead r =
          lpn_v < num_lpns ? array.PeekSlot(Ppn{run.ppn + i}) : SlotRead{};
      if (r.state != SlotState::kValid || !r.lpn.valid() || r.lpn.value() != lpn_v) {
        ++stats.checkpoint_stale_dropped;
        continue;
      }
      if (Status st = MapOnce(table, r.lpn, Ppn{run.ppn + i}, accepted); !st.ok()) return st;
    }
  }
  stats.checkpoint_mappings += accepted;
  stats.replayed_mappings += accepted;
  return Status::Ok();
}

Status ConZoneDevice::RestoreZones(const MountState& ms) {
  for (std::uint32_t z = 0; z < NumZones(); ++z) {
    const ZoneId zone{z};
    // A sequential zone that restores from its snapshot is byte-identical
    // to the image: the snapshot encodes its reconcile (no orphans, staged
    // end at the write pointer) and pass B wrote its map bits. Every other
    // sequential zone reconciles from the mapping; a conventional zone has
    // no write pointer to reconcile, and its validity comes from the
    // mapping alone.
    const bool restored = !IsConventional(zone) && ms.RestoredFromSnapshot(z);
    const ZoneReconcile rec = restored ? ZoneReconcile{FactsOfSnap(ms.image->zones[z])}
                              : IsConventional(zone) ? ZoneReconcile{}
                                                     : ReconcileZoneMapping(zone);
    if (restored) {
      // Seed the image cache, with the runs kept in mount_runs_, so the
      // next image does not re-walk the zone.
      zone_images_[z].rec = rec;
      table_.ClearZoneChanged(zone);
      ++recovery_.zones_restored;
    }
    ZoneRuntime& zr = runtime_[z];
    zr = ZoneRuntime{rec};  // aggregation state starts clear
    // Orphans: mapped islands beyond the reconciled write pointer are
    // unreachable under zone semantics. They are always unacknowledged
    // data — a host Flush waits for every outstanding pulse, so durable
    // content can never strand behind a hole. Drop them.
    for (std::uint64_t k = rec.staged_end / cfg_.geometry.slot_size;
         rec.has_orphans && k < LpnsPerZone(); ++k) {
      const Lpn lpn = Lpn(ZoneBaseLpn(zone).value() + k);
      const MapEntry e = table_.Get(lpn);
      if (!e.mapped()) continue;
      if (array_.StateOfSlot(e.ppn) == SlotState::kValid) {
        if (Status st = array_.InvalidateSlot(e.ppn); !st.ok()) return st;
      }
      table_.Unmap(lpn);
      ++recovery_.orphaned_slots;
    }
    // Re-stamp aggregation over the recovered durable state (a restored
    // zone's map bits are installed: only counters and resolver pins),
    // then restore host-visible zone state from the reconciled write
    // pointer (ZNS after unexpected power off: EMPTY, CLOSED or FULL).
    UpdateAggregation(zone, zr, /*table_prestamped=*/restored);
    zones_.RestoreAtMount(zone, zr.staged_end);
  }
  return Status::Ok();
}

Status ConZoneDevice::CheckMountGates() const {
  // Every mapped LPN points at exactly one valid slot and every valid
  // slot is mapped.
  std::uint64_t valid = 0;
  for (std::uint64_t b = 0; b < cfg_.geometry.TotalBlocks(); ++b) {
    valid += array_.ValidSlots(BlockId{b});
  }
  if (valid != table_.mapped_count()) {
    return Status::Internal("recovery reconcile failed: " + std::to_string(valid) +
                            " valid slots vs " + std::to_string(table_.mapped_count()) +
                            " mapped lpns");
  }
  // The per-zone counts that checkpoint serialisation and reconciliation
  // trust must add up to the same total.
  std::uint64_t zone_mapped = 0;
  for (std::uint64_t z = 0; z < table_.num_zones(); ++z) {
    zone_mapped += table_.zone_mapped_count(ZoneId{z});
  }
  if (zone_mapped != table_.mapped_count()) {
    return Status::Internal("recovery reconcile failed: per-zone mapped counts sum to " +
                            std::to_string(zone_mapped) + ", not " +
                            std::to_string(table_.mapped_count()));
  }
  return Status::Ok();
}

}  // namespace conzone
