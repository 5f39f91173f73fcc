#include "tstore/integrated_store.h"

#include "common/coding.h"
#include "record/record_codec.h"

namespace tcob {

Result<IntegratedStore::TypeState*> IntegratedStore::StateOf(
    TypeId type) const {
  std::lock_guard<std::mutex> lock(types_mu_);
  auto it = types_.find(type);
  if (it != types_.end()) return &it->second;
  TypeState state;
  TCOB_ASSIGN_OR_RETURN(
      state.heap,
      HeapFile::Open(pool_, prefix_ + "_heap_" + std::to_string(type)));
  TCOB_ASSIGN_OR_RETURN(
      state.index,
      BTree::Open(pool_, prefix_ + "_idx_" + std::to_string(type)));
  auto [pos, inserted] = types_.emplace(type, std::move(state));
  (void)inserted;
  return &pos->second;
}

Status IntegratedStore::EncodeCluster(const std::vector<AttrType>& schema,
                                      AtomId id, TypeId type,
                                      const std::vector<AtomVersion>& versions,
                                      std::string* dst) {
  PutVarint64(dst, id);
  PutVarint32(dst, type);
  PutVarint32(dst, static_cast<uint32_t>(versions.size()));
  for (const AtomVersion& v : versions) {
    PutVarint32(dst, v.version_no);
    PutVarsint64(dst, v.valid.begin);
    PutVarsint64(dst, v.valid.end);
    TCOB_RETURN_NOT_OK(EncodeValues(schema, v.attrs, dst));
  }
  return Status::OK();
}

Result<std::vector<AtomVersion>> IntegratedStore::DecodeCluster(
    const std::vector<AttrType>& schema, Slice input) {
  uint64_t id;
  uint32_t type, count;
  TCOB_RETURN_NOT_OK(GetVarint64(&input, &id));
  TCOB_RETURN_NOT_OK(GetVarint32(&input, &type));
  TCOB_RETURN_NOT_OK(GetVarint32(&input, &count));
  std::vector<AtomVersion> versions;
  versions.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AtomVersion v;
    v.id = id;
    v.type = type;
    TCOB_RETURN_NOT_OK(GetVarint32(&input, &v.version_no));
    TCOB_RETURN_NOT_OK(GetVarsint64(&input, &v.valid.begin));
    TCOB_RETURN_NOT_OK(GetVarsint64(&input, &v.valid.end));
    TCOB_ASSIGN_OR_RETURN(v.attrs, DecodeValues(schema, &input));
    versions.push_back(std::move(v));
  }
  return versions;
}

Result<std::vector<AtomVersion>> IntegratedStore::LoadCluster(
    const AtomTypeDef& type, AtomId id, Rid* rid_out) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::string key;
  PutComparableU64(&key, id);
  Result<uint64_t> packed = state->index->Get(key);
  if (!packed.ok()) {
    // Only a clean miss means "no such atom"; I/O and corruption errors
    // must surface as themselves, never as a wrong NotFound answer.
    if (!packed.status().IsNotFound()) return packed.status();
    return Status::NotFound("atom " + std::to_string(id));
  }
  Rid rid = Rid::Unpack(packed.value());
  if (rid_out) *rid_out = rid;
  TCOB_ASSIGN_OR_RETURN(std::string rec, state->heap->Get(rid));
  return DecodeCluster(type.AttrTypes(), Slice(rec));
}

Status IntegratedStore::StoreCluster(const AtomTypeDef& type, AtomId id,
                                     const Rid& rid,
                                     const std::vector<AtomVersion>& versions) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::string rec;
  TCOB_RETURN_NOT_OK(
      EncodeCluster(type.AttrTypes(), id, type.id, versions, &rec));
  TCOB_ASSIGN_OR_RETURN(Rid new_rid, state->heap->Update(rid, rec));
  if (new_rid != rid) {
    std::string key;
    PutComparableU64(&key, id);
    TCOB_RETURN_NOT_OK(state->index->Put(key, new_rid.Pack()));
  }
  return Status::OK();
}

Status IntegratedStore::Insert(const AtomTypeDef& type, AtomId id,
                               std::vector<Value> attrs, Timestamp from) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  Rid rid;
  Result<std::vector<AtomVersion>> existing = LoadCluster(type, id, &rid);
  TCOB_ASSIGN_OR_RETURN(TimelineTail tail, ClusterTail(id, existing));
  TCOB_RETURN_NOT_OK(tail.Open(from));
  std::vector<AtomVersion> versions;
  if (existing.ok()) versions = std::move(existing).value();
  versions.push_back(AtomVersion{
      id, type.id, versions.empty() ? 1u : versions.back().version_no + 1,
      Interval(from, kForever), std::move(attrs)});
  if (existing.ok()) return StoreCluster(type, id, rid, versions);
  std::string rec;
  TCOB_RETURN_NOT_OK(
      EncodeCluster(type.AttrTypes(), id, type.id, versions, &rec));
  TCOB_ASSIGN_OR_RETURN(Rid new_rid, state->heap->Insert(rec));
  std::string key;
  PutComparableU64(&key, id);
  return state->index->Put(key, new_rid.Pack());
}

Status IntegratedStore::Update(const AtomTypeDef& type, AtomId id,
                               std::vector<Value> attrs, Timestamp from) {
  Rid rid;
  TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                        CloseLive(type, id, from, &rid));
  versions.push_back(AtomVersion{id, type.id, versions.back().version_no + 1,
                                 Interval(from, kForever), std::move(attrs)});
  return StoreCluster(type, id, rid, versions);
}

Status IntegratedStore::Delete(const AtomTypeDef& type, AtomId id,
                               Timestamp from) {
  Rid rid;
  TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                        CloseLive(type, id, from, &rid));
  return StoreCluster(type, id, rid, versions);
}

Result<TimelineTail> IntegratedStore::ClusterTail(
    AtomId id, const Result<std::vector<AtomVersion>>& cluster) {
  if (cluster.ok()) return AtomTail(id, &cluster->back());
  if (cluster.status().IsNotFound()) return AtomTail(id, nullptr);
  return cluster.status();
}

Result<std::vector<AtomVersion>> IntegratedStore::CloseLive(
    const AtomTypeDef& type, AtomId id, Timestamp from, Rid* rid) {
  Result<std::vector<AtomVersion>> versions = LoadCluster(type, id, rid);
  TCOB_ASSIGN_OR_RETURN(TimelineTail tail, ClusterTail(id, versions));
  TCOB_RETURN_NOT_OK(tail.Close(from));
  versions->back().valid.end = from;
  return versions;
}

Result<std::optional<AtomVersion>> IntegratedStore::DoGetAsOf(
    const AtomTypeDef& type, AtomId id, Timestamp t) const {
  TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                        LoadCluster(type, id, nullptr));
  for (const AtomVersion& v : versions) {
    if (v.valid.Contains(t)) return std::optional<AtomVersion>(v);
  }
  // Probe the cold tier only when t precedes every hot version (cold
  // versions are strictly older than the cluster's oldest entry).
  if (has_cold() && !versions.empty() &&
      t < versions.front().valid.begin) {
    TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> cold,
                          ColdVersions(type, id, Interval::At(t)));
    for (AtomVersion& v : cold) {
      if (v.valid.Contains(t)) return std::optional<AtomVersion>(std::move(v));
    }
  }
  return std::optional<AtomVersion>();
}

Result<std::vector<AtomVersion>> IntegratedStore::DoGetVersions(
    const AtomTypeDef& type, AtomId id, const Interval& window) const {
  TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                        LoadCluster(type, id, nullptr));
  std::vector<AtomVersion> out;
  if (has_cold() && !versions.empty() &&
      window.begin < versions.front().valid.begin) {
    TCOB_ASSIGN_OR_RETURN(out, ColdVersions(type, id, window));
  }
  for (AtomVersion& v : versions) {
    if (v.valid.Overlaps(window)) out.push_back(std::move(v));
  }
  return out;
}

Status IntegratedStore::DoScanAsOf(const AtomTypeDef& type, Timestamp t,
                                 const VersionCallback& fn) const {
  return DoScanVersions(type, Interval::At(t), fn);
}

Status IntegratedStore::DoScanVersions(const AtomTypeDef& type,
                                     const Interval& window,
                                     const VersionCallback& fn) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Scan clusters in index order (ascending atom id) rather than heap
  // order, which is not stable under migration; each atom's cold
  // versions (strictly older) are emitted before its hot cluster.
  std::map<AtomId, std::vector<AtomVersion>> cold;
  TCOB_RETURN_NOT_OK(ColdCollectAll(type, window, &cold));
  return state->index->Scan(
      Slice(), Slice(), [&](const Slice& key, uint64_t packed) -> Result<bool> {
        (void)key;
        TCOB_ASSIGN_OR_RETURN(std::string rec,
                              state->heap->Get(Rid::Unpack(packed)));
        TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                              DecodeCluster(schema, Slice(rec)));
        if (!versions.empty()) {
          auto it = cold.find(versions.front().id);
          if (it != cold.end()) {
            for (AtomVersion& v : it->second) {
              TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(v));
              if (!keep_going) return false;
            }
          }
        }
        for (const AtomVersion& v : versions) {
          if (!v.valid.Overlaps(window)) continue;
          TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(v));
          if (!keep_going) return false;
        }
        return true;
      });
}

Result<StoreSpaceStats> IntegratedStore::SpaceStats() const {
  StoreSpaceStats stats;
  for (const auto& [type_id, state] : types_) {
    (void)type_id;
    TCOB_ASSIGN_OR_RETURN(HeapFileStats heap, state.heap->Stats());
    TCOB_ASSIGN_OR_RETURN(PageNo index_pages,
                          pool_->disk()->NumPages(state.index->file_id()));
    stats.heap_pages += heap.total_pages;
    stats.index_pages += index_pages;
    stats.atom_count += heap.record_count;
  }
  stats.total_bytes = (stats.heap_pages + stats.index_pages) * kPageSize;
  return stats;
}

Status IntegratedStore::Flush() { return pool_->FlushAll(); }

}  // namespace tcob

namespace tcob {

Result<uint64_t> IntegratedStore::VacuumBefore(const AtomTypeDef& type,
                                               Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  // Collect the atoms first (mutating clusters while scanning the heap
  // could revisit relocated records).
  std::vector<AtomId> atoms;
  {
    std::vector<AttrType> schema = type.AttrTypes();
    TCOB_RETURN_NOT_OK(state->heap->Scan(
        [&](const Rid&, const Slice& rec) -> Result<bool> {
          Slice in(rec);
          uint64_t id;
          TCOB_RETURN_NOT_OK(GetVarint64(&in, &id));
          atoms.push_back(id);
          return true;
        }));
  }
  uint64_t removed = 0;
  for (AtomId id : atoms) {
    Rid rid;
    TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                          LoadCluster(type, id, &rid));
    std::vector<AtomVersion> kept;
    for (AtomVersion& v : versions) {
      if (v.valid.end <= cutoff) {
        ++removed;
      } else {
        kept.push_back(std::move(v));
      }
    }
    if (kept.size() == versions.size()) continue;
    std::string key;
    PutComparableU64(&key, id);
    if (kept.empty()) {
      TCOB_RETURN_NOT_OK(state->heap->Delete(rid));
      TCOB_RETURN_NOT_OK(state->index->Delete(key));
    } else {
      TCOB_RETURN_NOT_OK(StoreCluster(type, id, rid, kept));
    }
  }
  return removed;
}

Result<uint64_t> IntegratedStore::ReleaseMigrated(const AtomTypeDef& type,
                                                  Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AtomId> atoms;
  {
    TCOB_RETURN_NOT_OK(state->heap->Scan(
        [&](const Rid&, const Slice& rec) -> Result<bool> {
          Slice in(rec);
          uint64_t id;
          TCOB_RETURN_NOT_OK(GetVarint64(&in, &id));
          atoms.push_back(id);
          return true;
        }));
  }
  uint64_t released = 0;
  for (AtomId id : atoms) {
    Rid rid;
    TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                          LoadCluster(type, id, &rid));
    size_t n = MigratablePrefix(versions, cutoff);
    if (n == 0) continue;
    released += n;
    // The anchor rule guarantees a non-empty remainder, so the cluster
    // (and its index entry) always survives.
    std::vector<AtomVersion> kept(versions.begin() + n, versions.end());
    TCOB_RETURN_NOT_OK(StoreCluster(type, id, rid, kept));
  }
  return released;
}

Status IntegratedStore::VerifyStructure(const AtomTypeDef& type) const {
  TCOB_ASSIGN_OR_RETURN(TypeState* state, StateOf(type.id));
  TCOB_RETURN_NOT_OK(state->index->VerifyStructure());
  return state->index->Scan(
      Slice(), Slice(), [&](const Slice&, uint64_t v) -> Result<bool> {
        Result<std::string> rec = state->heap->Get(Rid::Unpack(v));
        if (!rec.ok()) {
          return Status::Corruption("cluster index of type " + type.name +
                                    " references unreadable record: " +
                                    rec.status().message());
        }
        return true;
      });
}

}  // namespace tcob
