#include "flash/checkpoint_store.hpp"

namespace conzone {

namespace {

// Same FNV-1a parameters as the crash-consistency checker, so a
// checkpoint checksum failure and a fingerprint mismatch speak the same
// dialect.
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

constexpr std::uint64_t kMagic = 0x434F4E5A43504B54ull;  // "CONZCPKT"
constexpr std::uint64_t kVersion = 1;

// Header: magic, version, seq, program_seq, then the four payload counts.
constexpr std::size_t kHeaderWords = 8;

void PutU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// FNV-1a over the blob's little-endian u64 words (the format is whole
// words by construction). Word-at-a-time matters: FNV is a serial
// multiply chain, and folding 8 bytes per step keeps the checksum from
// dominating mount wall-clock on megabyte images. Any single-byte flip
// still changes its word, hence the hash.
std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    h ^= GetU64(data + i);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

Status CheckpointConfig::Validate() const {
  if (!enabled) return Status::Ok();
  if (interval_entries == 0) {
    return Status::InvalidArgument("checkpoint: interval_entries must be > 0");
  }
  return Status::Ok();
}

namespace {

// Mapping-record tags. A striped zone serializes as a handful of kSuper
// records: the run level captures one program unit, kGroup folds the
// chip interleave (constant ppn stride), kSuper folds the repetition of
// that interleave down the superblock.
constexpr std::uint64_t kTagRun = 1;    // lpn, ppn, count
constexpr std::uint64_t kTagGroup = 2;  // + ways, stride
constexpr std::uint64_t kTagSuper = 3;  // + reps, stride2

struct FoldGroup {
  std::uint64_t lpn = 0;
  std::uint64_t ppn = 0;
  std::uint64_t count = 0;
  std::uint64_t ways = 1;
  std::uint64_t stride = 0;
};

// Greedily fold maximal arithmetic progressions of equal-length,
// lpn-contiguous runs into groups.
std::vector<FoldGroup> FoldRuns(const std::vector<MapRun>& runs) {
  std::vector<FoldGroup> out;
  for (std::size_t i = 0; i < runs.size();) {
    FoldGroup g{runs[i].lpn, runs[i].ppn, runs[i].count, 1, 0};
    while (i + g.ways < runs.size()) {
      const MapRun& next = runs[i + g.ways];
      if (next.count != g.count || next.lpn != g.lpn + g.ways * g.count) break;
      const std::uint64_t stride = next.ppn - g.ppn;  // wrapping on purpose
      if (g.ways == 1) {
        g.stride = stride;
      } else if (stride != g.ways * g.stride) {
        break;
      }
      ++g.ways;
    }
    i += static_cast<std::size_t>(g.ways);
    out.push_back(g);
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> CheckpointImage::Encode() const {
  // Two folding levels: runs -> groups (chip interleave), then identical
  // adjacent groups -> supers (interleave repeated down the superblock).
  const std::vector<FoldGroup> groups = FoldRuns(mappings);
  // Sized once for the longest encoding (a record of at most 6 words per
  // group: a super record spends 8 on two or more) and trimmed at the
  // end; every word is stored in place.
  std::vector<std::uint8_t> out((kHeaderWords + 6 * groups.size() + 4 * zones.size() +
                                 free_slc.size() + free_normal.size() + 1) * 8);
  std::uint8_t* w = out.data();
  auto put = [&w](std::uint64_t v) {
    PutU64(w, v);
    w += 8;
  };
  put(kMagic);
  put(kVersion);
  put(seq);
  put(program_seq);
  std::uint8_t* const count_at = w;
  put(0);  // record count, patched below
  put(zones.size());
  put(free_slc.size());
  put(free_normal.size());
  std::uint64_t n_rec = 0;
  for (std::size_t j = 0; j < groups.size();) {
    const FoldGroup& g = groups[j];
    std::uint64_t reps = 1;
    std::uint64_t stride2 = 0;
    const std::uint64_t span = g.count * g.ways;
    while (j + reps < groups.size()) {
      const FoldGroup& next = groups[j + reps];
      if (next.count != g.count || next.ways != g.ways ||
          next.stride != g.stride || next.lpn != g.lpn + reps * span) {
        break;
      }
      const std::uint64_t delta = next.ppn - g.ppn;
      if (reps == 1) {
        stride2 = delta;
      } else if (delta != reps * stride2) {
        break;
      }
      ++reps;
    }
    j += static_cast<std::size_t>(reps);
    ++n_rec;
    put(reps > 1 ? kTagSuper : g.ways > 1 ? kTagGroup : kTagRun);
    put(g.lpn);
    put(g.ppn);
    put(g.count);
    if (reps > 1 || g.ways > 1) {
      put(g.ways);
      put(g.stride);
    }
    if (reps > 1) {
      put(reps);
      put(stride2);
    }
  }
  PutU64(count_at, n_rec);
  for (const ZoneSnap& z : zones) {
    put(z.write_pointer);
    put(z.durable_normal_end);
    put(z.patch_start);
    put(z.flags);
  }
  for (std::uint64_t sb : free_slc) put(sb);
  for (std::uint64_t sb : free_normal) put(sb);
  const auto body = static_cast<std::size_t>(w - out.data());
  put(Fnv1a(out.data(), body));
  out.resize(body + 8);
  return out;
}

std::optional<CheckpointImage> CheckpointImage::Decode(
    const std::vector<std::uint8_t>& blob) {
  if (blob.size() < (kHeaderWords + 1) * 8 || blob.size() % 8 != 0) {
    return std::nullopt;
  }
  const std::uint8_t* p = blob.data();
  if (GetU64(p) != kMagic || GetU64(p + 8) != kVersion) return std::nullopt;
  // Checksum before structure: a torn or corrupt image must lose quietly
  // no matter which words it mangled.
  const std::uint64_t stored_sum = GetU64(p + blob.size() - 8);
  if (Fnv1a(p, blob.size() - 8) != stored_sum) return std::nullopt;
  CheckpointImage img;
  img.seq = GetU64(p + 16);
  img.program_seq = GetU64(p + 24);
  const std::uint64_t n_rec = GetU64(p + 32);
  const std::uint64_t n_zone = GetU64(p + 40);
  const std::uint64_t n_slc = GetU64(p + 48);
  const std::uint64_t n_normal = GetU64(p + 56);
  const std::uint64_t max_words = blob.size() / 8;
  if (n_rec > max_words || n_zone > max_words || n_slc > max_words ||
      n_normal > max_words) {
    return std::nullopt;
  }
  // Mapping records are variable-length; walk them with per-record
  // bounds checks. `limit` is the first word past the record section.
  const std::uint64_t tail_words = 4 * n_zone + n_slc + n_normal + 1;
  if (tail_words > max_words - kHeaderWords) return std::nullopt;
  const std::size_t limit = blob.size() - static_cast<std::size_t>(tail_words) * 8;
  std::size_t off = kHeaderWords * 8;
  // Expansion guard: a checksum-valid but hostile image cannot inflate
  // the run list past a sane bound.
  constexpr std::uint64_t kMaxRuns = 1ull << 27;
  std::uint64_t total_runs = 0;
  // Validation pass: bounds, tags, and the expansion total — so the
  // unfold below can reserve once and never reallocate mid-expansion.
  for (std::uint64_t r = 0; r < n_rec; ++r) {
    if (off + 8 > limit) return std::nullopt;
    const std::uint64_t tag = GetU64(p + off);
    const std::size_t words = tag == kTagRun ? 4 : tag == kTagGroup ? 6 : 8;
    if (tag != kTagRun && tag != kTagGroup && tag != kTagSuper) return std::nullopt;
    if (off + words * 8 > limit) return std::nullopt;
    const std::uint64_t count = GetU64(p + off + 24);
    const std::uint64_t ways = tag == kTagRun ? 1 : GetU64(p + off + 32);
    const std::uint64_t reps = tag == kTagSuper ? GetU64(p + off + 48) : 1;
    if (count == 0 || ways == 0 || reps == 0) return std::nullopt;
    if (ways > kMaxRuns || reps > kMaxRuns) return std::nullopt;
    total_runs += ways * reps;
    if (total_runs > kMaxRuns) return std::nullopt;
    off += words * 8;
  }
  if (off != limit) return std::nullopt;
  img.mappings.reserve(static_cast<std::size_t>(total_runs));
  off = kHeaderWords * 8;
  for (std::uint64_t r = 0; r < n_rec; ++r) {
    const std::uint64_t tag = GetU64(p + off);
    const std::size_t words = tag == kTagRun ? 4 : tag == kTagGroup ? 6 : 8;
    const std::uint64_t lpn = GetU64(p + off + 8);
    const std::uint64_t ppn = GetU64(p + off + 16);
    const std::uint64_t count = GetU64(p + off + 24);
    const std::uint64_t ways = tag == kTagRun ? 1 : GetU64(p + off + 32);
    const std::uint64_t stride = tag == kTagRun ? 0 : GetU64(p + off + 40);
    const std::uint64_t reps = tag == kTagSuper ? GetU64(p + off + 48) : 1;
    const std::uint64_t stride2 = tag == kTagSuper ? GetU64(p + off + 56) : 0;
    // A run whose last lpn or ppn would wrap past 2^64 - 1 rejects the
    // image: no device has such a range, and the mount's bounds tests
    // must not see one. Flagged without a branch: this loop is on the
    // mount path once per run.
    bool wraps = false;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      for (std::uint64_t w = 0; w < ways; ++w) {
        const MapRun run{lpn + (rep * ways + w) * count, ppn + rep * stride2 + w * stride,
                         count};
        wraps |= (count - 1 > ~run.lpn) | (count - 1 > ~run.ppn);
        img.mappings.push_back(run);
      }
    }
    if (wraps) return std::nullopt;
    off += words * 8;
  }
  img.zones.reserve(static_cast<std::size_t>(n_zone));
  for (std::uint64_t i = 0; i < n_zone; ++i, off += 32) {
    ZoneSnap z;
    z.write_pointer = GetU64(p + off);
    z.durable_normal_end = GetU64(p + off + 8);
    z.patch_start = GetU64(p + off + 16);
    z.flags = GetU64(p + off + 24);
    img.zones.push_back(z);
  }
  img.free_slc.reserve(static_cast<std::size_t>(n_slc));
  for (std::uint64_t i = 0; i < n_slc; ++i, off += 8) {
    img.free_slc.push_back(GetU64(p + off));
  }
  img.free_normal.reserve(static_cast<std::size_t>(n_normal));
  for (std::uint64_t i = 0; i < n_normal; ++i, off += 8) {
    img.free_normal.push_back(GetU64(p + off));
  }
  return img;
}

int CheckpointStore::NextSlot() const {
  const Slot* newest = NewestValid();
  if (newest == nullptr) return 0;
  return newest == &slots_[0] ? 1 : 0;
}

void CheckpointStore::Commit(int slot, std::vector<std::uint8_t> blob,
                             std::uint64_t seq, SimTime media_end) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  s.valid = true;
  s.seq = seq;
  s.media_end = media_end;
  s.blob = std::move(blob);
  // Commit always installs a freshly encoded image, so the election can
  // skip re-checksumming it (see Slot::verified).
  s.verified = true;
}

std::uint64_t CheckpointStore::ApplyPowerCut(SimTime cut) {
  std::uint64_t torn = 0;
  for (Slot& s : slots_) {
    if (s.valid && s.media_end > cut) {
      s.valid = false;
      s.verified = false;
      s.blob.clear();
      ++torn;
    }
  }
  return torn;
}

const CheckpointStore::Slot* CheckpointStore::NewestValid() const {
  const Slot* best = nullptr;
  for (const Slot& s : slots_) {
    if (!s.valid) continue;
    if (!s.verified) {
      if (!CheckpointImage::Decode(s.blob).has_value()) continue;
      s.verified = true;
    }
    // Ties go to the earlier slot: strict SeqNewer keeps `best`.
    if (best == nullptr || CheckpointImage::SeqNewer(s.seq, best->seq)) {
      best = &s;
    }
  }
  return best;
}

std::uint64_t CheckpointStore::NextSeq() const {
  const Slot* newest = NewestValid();
  return newest == nullptr ? 1 : newest->seq + 1;
}

void CheckpointStore::CorruptByteForTest(int slot, std::size_t offset) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (offset < s.blob.size()) s.blob[offset] ^= 0xFF;
  s.verified = false;
}

}  // namespace conzone
