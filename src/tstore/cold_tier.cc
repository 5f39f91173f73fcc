#include "tstore/cold_tier.h"

#include <algorithm>
#include <utility>

#include "storage/page.h"
#include "tstore/temporal_store.h"

namespace tcob {

namespace {

/// Transient budget charge for one segment's decode buffer, released
/// when the decode scope ends. A refusal (over cap) only registers
/// pressure — the read proceeds regardless; the cap governs caches and
/// buffers, never correctness.
class ScopedDecodeCharge {
 public:
  ScopedDecodeCharge(ResourceBudget* budget, uint64_t bytes)
      : budget_(budget),
        bytes_(bytes),
        charged_(budget != nullptr && budget->TryCharge(bytes)) {}

  ScopedDecodeCharge(const ScopedDecodeCharge&) = delete;
  ScopedDecodeCharge& operator=(const ScopedDecodeCharge&) = delete;

  ~ScopedDecodeCharge() {
    if (charged_) budget_->Release(bytes_);
  }

 private:
  ResourceBudget* budget_;
  uint64_t bytes_;
  bool charged_;
};

}  // namespace

Result<ColdTier::TypeState*> ColdTier::EnsureState(const AtomTypeDef& type,
                                                   bool create) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(type.id);
  if (it != types_.end()) {
    if (it->second == nullptr && create) {
      it->second = std::make_unique<TypeState>();
      TCOB_ASSIGN_OR_RETURN(it->second->heap,
                            HeapFile::Open(pool_, HeapName(type.id)));
    }
    return it->second.get();
  }

  // First touch of this type: the heap file's existence on disk decides
  // whether there is cold state to load (read paths must not create a
  // file — a SELECT may never dirty a page).
  DiskManager* disk = pool_->disk();
  std::string path = disk->dir() + "/" + HeapName(type.id);
  TCOB_ASSIGN_OR_RETURN(bool exists, disk->env()->FileExists(path));
  if (!exists && !create) {
    types_[type.id] = nullptr;
    return static_cast<TypeState*>(nullptr);
  }
  auto state = std::make_unique<TypeState>();
  TCOB_ASSIGN_OR_RETURN(state->heap, HeapFile::Open(pool_, HeapName(type.id)));
  if (exists) {
    // Rebuild the segment catalog by scanning the heap (segments are
    // few and the directory parse is cheap; payloads stay untouched).
    std::vector<std::pair<Rid, std::string>> blobs;
    TCOB_RETURN_NOT_OK(state->heap->Scan(
        [&](const Rid& rid, const Slice& record) -> Result<bool> {
          blobs.emplace_back(rid, record.ToString());
          return true;
        }));
    for (auto& [rid, blob] : blobs) {
      TCOB_ASSIGN_OR_RETURN(SegmentInfo info, DescribeBlob(rid, blob, type));
      state->segments.push_back(info);
    }
  }
  TypeState* out = state.get();
  types_[type.id] = std::move(state);
  return out;
}

Result<ColdTier::SegmentInfo> ColdTier::DescribeBlob(
    const Rid& rid, const std::string& blob, const AtomTypeDef& type) const {
  TCOB_ASSIGN_OR_RETURN(SegmentReader reader,
                        SegmentReader::Open(blob, type.AttrTypes()));
  if (reader.type() != type.id) {
    return Status::Corruption("cold tier: segment of type " +
                              std::to_string(reader.type()) + " in file of " +
                              type.name);
  }
  SegmentInfo info;
  info.rid = rid;
  info.fence = reader.fence();
  info.min_atom = reader.min_atom();
  info.max_atom = reader.max_atom();
  info.atom_count = static_cast<uint32_t>(reader.directory().size());
  info.version_count = reader.version_count();
  info.bytes = blob.size();
  return info;
}

Result<uint64_t> ColdTier::Migrate(
    const AtomTypeDef& type,
    const std::map<AtomId, std::vector<AtomVersion>>& atoms,
    ThreadPool* encoder_pool, uint64_t segment_target_bytes) {
  if (atoms.empty()) return 0;
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/true));
  std::vector<AttrType> schema = type.AttrTypes();
  if (segment_target_bytes == 0) segment_target_bytes = 32 * 1024;

  // Partition the (id-ascending) atoms into segment batches by their
  // full-record encoded size — the same bytes the live stores hold, so
  // the input/output byte counters measure true compression.
  std::vector<std::vector<const std::pair<const AtomId,
                                          std::vector<AtomVersion>>*>>
      batches;
  uint64_t batch_bytes = 0;
  uint64_t total_input = 0;
  for (const auto& entry : atoms) {
    uint64_t atom_bytes = 0;
    for (const AtomVersion& v : entry.second) {
      std::string full;
      TCOB_RETURN_NOT_OK(EncodeAtomVersion(schema, v, &full));
      atom_bytes += full.size();
    }
    if (batches.empty() || (batch_bytes > 0 &&
                            batch_bytes + atom_bytes > segment_target_bytes)) {
      batches.emplace_back();
      batch_bytes = 0;
    }
    batches.back().push_back(&entry);
    batch_bytes += atom_bytes;
    total_input += atom_bytes;
  }

  // Segment encoding is pure CPU work over already-collected versions;
  // fan it out. Heap appends below stay serial (single-threaded write
  // path through the journal).
  std::vector<Result<std::string>> encoded(batches.size(),
                                           Result<std::string>(std::string()));
  auto encode_one = [&](size_t b) {
    SegmentBuilder builder(type.id, schema);
    for (const auto* entry : batches[b]) {
      Status s = builder.AddAtom(entry->first, entry->second);
      if (!s.ok()) {
        encoded[b] = s;
        return;
      }
    }
    encoded[b] = builder.Finish();
  };
  if (encoder_pool != nullptr && batches.size() > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(batches.size());
    for (size_t b = 0; b < batches.size(); ++b) {
      tasks.push_back([&encode_one, b] { encode_one(b); });
    }
    encoder_pool->RunAll(std::move(tasks));
  } else {
    for (size_t b = 0; b < batches.size(); ++b) encode_one(b);
  }

  uint64_t migrated = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    TCOB_ASSIGN_OR_RETURN(std::string blob, std::move(encoded[b]));
    TCOB_ASSIGN_OR_RETURN(Rid rid, state->heap->Insert(blob));
    TCOB_ASSIGN_OR_RETURN(SegmentInfo info, DescribeBlob(rid, blob, type));
    state->segments.push_back(info);
    migrated += info.version_count;
    segments_built_.Increment();
    output_bytes_.Add(info.bytes);
    TraceEmit(trace_, TraceEventType::kTierSegmentBuild, info.version_count);
  }
  versions_migrated_.Add(migrated);
  input_bytes_.Add(total_input);
  return migrated;
}

Result<std::vector<AtomVersion>> ColdTier::VersionsOf(
    const AtomTypeDef& type, AtomId id, const Interval& window) const {
  std::vector<AtomVersion> out;
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/false));
  if (state == nullptr) return out;
  for (const SegmentInfo& si : state->segments) {
    if (id < si.min_atom || id > si.max_atom || !si.fence.Overlaps(window)) {
      segments_pruned_.Increment();
      continue;
    }
    segments_scanned_.Increment();
    ScopedDecodeCharge decode_charge(memory_budget_, si.bytes);
    TCOB_ASSIGN_OR_RETURN(std::string blob, state->heap->Get(si.rid));
    TCOB_ASSIGN_OR_RETURN(SegmentReader reader,
                          SegmentReader::Open(std::move(blob),
                                              type.AttrTypes()));
    TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                          reader.VersionsOf(id));
    for (AtomVersion& v : versions) {
      if (v.valid.Overlaps(window)) out.push_back(std::move(v));
    }
  }
  // Successive migrations append time-ascending segments, but one
  // atom's versions may span several of them — normalize the order.
  std::sort(out.begin(), out.end(),
            [](const AtomVersion& a, const AtomVersion& b) {
              return a.valid.begin < b.valid.begin;
            });
  cold_versions_read_.Add(out.size());
  return out;
}

Status ColdTier::CollectAll(
    const AtomTypeDef& type, const Interval& window,
    std::map<AtomId, std::vector<AtomVersion>>* out) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/false));
  if (state == nullptr) return Status::OK();
  uint64_t collected = 0;
  std::vector<AtomId> touched;
  for (const SegmentInfo& si : state->segments) {
    if (!si.fence.Overlaps(window)) {
      segments_pruned_.Increment();
      continue;
    }
    segments_scanned_.Increment();
    ScopedDecodeCharge decode_charge(memory_budget_, si.bytes);
    TCOB_ASSIGN_OR_RETURN(std::string blob, state->heap->Get(si.rid));
    TCOB_ASSIGN_OR_RETURN(SegmentReader reader,
                          SegmentReader::Open(std::move(blob),
                                              type.AttrTypes()));
    for (size_t i = 0; i < reader.directory().size(); ++i) {
      TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                            reader.AtomVersions(i));
      for (AtomVersion& v : versions) {
        if (!v.valid.Overlaps(window)) continue;
        touched.push_back(v.id);
        (*out)[v.id].push_back(std::move(v));
        ++collected;
      }
    }
  }
  for (AtomId id : touched) {
    auto& versions = (*out)[id];
    std::sort(versions.begin(), versions.end(),
              [](const AtomVersion& a, const AtomVersion& b) {
                return a.valid.begin < b.valid.begin;
              });
  }
  cold_versions_read_.Add(collected);
  return Status::OK();
}

Result<bool> ColdTier::MightHave(const AtomTypeDef& type, AtomId id) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/false));
  if (state == nullptr) return false;
  for (const SegmentInfo& si : state->segments) {
    if (id >= si.min_atom && id <= si.max_atom) return true;
  }
  return false;
}

Result<uint64_t> ColdTier::VacuumBefore(const AtomTypeDef& type,
                                        Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/false));
  if (state == nullptr) return 0;
  uint64_t removed = 0;
  std::vector<SegmentInfo> kept;
  for (const SegmentInfo& si : state->segments) {
    if (si.fence.end <= cutoff) {
      // Every version ends within the fence: drop the whole segment
      // without reading its payload.
      TCOB_RETURN_NOT_OK(state->heap->Delete(si.rid));
      removed += si.version_count;
      continue;
    }
    if (si.fence.begin >= cutoff) {
      // end > begin >= cutoff for every version: nothing to remove.
      kept.push_back(si);
      continue;
    }
    // Straddler: decode, filter, rewrite.
    TCOB_ASSIGN_OR_RETURN(std::string blob, state->heap->Get(si.rid));
    TCOB_ASSIGN_OR_RETURN(SegmentReader reader,
                          SegmentReader::Open(std::move(blob),
                                              type.AttrTypes()));
    SegmentBuilder builder(type.id, type.AttrTypes());
    uint64_t dropped = 0;
    for (size_t i = 0; i < reader.directory().size(); ++i) {
      TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                            reader.AtomVersions(i));
      std::vector<AtomVersion> keep_versions;
      for (AtomVersion& v : versions) {
        if (v.valid.end <= cutoff) {
          ++dropped;
        } else {
          keep_versions.push_back(std::move(v));
        }
      }
      if (!keep_versions.empty()) {
        TCOB_RETURN_NOT_OK(builder.AddAtom(reader.directory()[i].id,
                                           std::move(keep_versions)));
      }
    }
    if (dropped == 0) {
      kept.push_back(si);
      continue;
    }
    removed += dropped;
    if (builder.empty()) {
      TCOB_RETURN_NOT_OK(state->heap->Delete(si.rid));
      continue;
    }
    TCOB_ASSIGN_OR_RETURN(std::string rebuilt, builder.Finish());
    TCOB_ASSIGN_OR_RETURN(Rid new_rid, state->heap->Update(si.rid, rebuilt));
    TCOB_ASSIGN_OR_RETURN(SegmentInfo info,
                          DescribeBlob(new_rid, rebuilt, type));
    kept.push_back(info);
  }
  state->segments = std::move(kept);
  return removed;
}

Status ColdTier::VerifyIntegrity(const AtomTypeDef& type) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/false));
  if (state == nullptr) return Status::OK();
  for (const SegmentInfo& si : state->segments) {
    TCOB_ASSIGN_OR_RETURN(std::string blob, state->heap->Get(si.rid));
    TCOB_ASSIGN_OR_RETURN(SegmentReader reader,
                          SegmentReader::Open(std::move(blob),
                                              type.AttrTypes()));
    if (reader.type() != type.id || !(reader.fence() == si.fence) ||
        reader.min_atom() != si.min_atom ||
        reader.max_atom() != si.max_atom ||
        reader.version_count() != si.version_count) {
      return Status::Corruption("cold tier: segment catalog mismatch for " +
                                type.name);
    }
    for (size_t i = 0; i < reader.directory().size(); ++i) {
      const SegmentAtomEntry& e = reader.directory()[i];
      TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                            reader.AtomVersions(i));
      for (const AtomVersion& v : versions) {
        if (v.valid.empty() || v.valid.open_ended() ||
            !si.fence.Contains(v.valid) || !e.extent.Contains(v.valid)) {
          return Status::Corruption(
              "cold tier: version outside its fences, atom " +
              std::to_string(v.id) + " of " + type.name);
        }
      }
    }
  }
  return Status::OK();
}

Result<ColdSpaceStats> ColdTier::SpaceStats(const AtomTypeDef& type) const {
  ColdSpaceStats stats;
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/false));
  if (state == nullptr) return stats;
  for (const SegmentInfo& si : state->segments) {
    stats.segments += 1;
    stats.versions += si.version_count;
    stats.blob_bytes += si.bytes;
  }
  TCOB_ASSIGN_OR_RETURN(HeapFileStats heap_stats, state->heap->Stats());
  stats.total_pages = heap_stats.total_pages;
  return stats;
}

Result<std::vector<ColdTier::SegmentInfo>> ColdTier::Segments(
    const AtomTypeDef& type) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, EnsureState(type, /*create=*/false));
  if (state == nullptr) return std::vector<SegmentInfo>{};
  return state->segments;
}

}  // namespace tcob
