#include "tstore/snapshot_store.h"

#include <algorithm>

#include "common/coding.h"

namespace tcob {

std::string SnapshotStore::VersionKey(AtomId id, uint32_t version_no) {
  std::string key;
  PutComparableU64(&key, id);
  PutComparableU64(&key, version_no);
  return key;
}

Result<SnapshotStore::TypeState*> SnapshotStore::StateOf(TypeId type) const {
  std::lock_guard<std::mutex> lock(types_mu_);
  auto it = types_.find(type);
  if (it != types_.end()) return &it->second;
  TypeState state;
  TCOB_ASSIGN_OR_RETURN(
      state.heap,
      HeapFile::Open(pool_, prefix_ + "_heap_" + std::to_string(type)));
  TCOB_ASSIGN_OR_RETURN(
      state.index,
      BTree::Open(pool_, prefix_ + "_vidx_" + std::to_string(type)));
  auto [pos, inserted] = types_.emplace(type, std::move(state));
  (void)inserted;
  return &pos->second;
}

Result<std::vector<AtomVersion>> SnapshotStore::AllVersions(
    const AtomTypeDef& type, AtomId id) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AtomVersion> versions;
  std::string prefix;
  PutComparableU64(&prefix, id);
  std::vector<AttrType> schema = type.AttrTypes();
  Status scan = state->index->ScanPrefix(
      prefix, [&](const Slice& key, uint64_t packed) -> Result<bool> {
        (void)key;
        TCOB_ASSIGN_OR_RETURN(std::string rec,
                              state->heap->Get(Rid::Unpack(packed)));
        Slice in(rec);
        TCOB_ASSIGN_OR_RETURN(AtomVersion v, DecodeAtomVersion(schema, &in));
        versions.push_back(std::move(v));
        return true;
      });
  TCOB_RETURN_NOT_OK(scan);
  return versions;
}


Result<std::optional<AtomVersion>> SnapshotStore::NewestVersion(
    const AtomTypeDef& type, AtomId id, Rid* rid_out) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  Result<std::pair<std::string, uint64_t>> floor =
      state->index->Floor(VersionKey(id, UINT32_MAX));
  if (!floor.ok()) {
    if (floor.status().IsNotFound()) return std::optional<AtomVersion>();
    return floor.status();
  }
  std::string prefix;
  PutComparableU64(&prefix, id);
  if (!Slice(floor->first).starts_with(prefix)) {
    return std::optional<AtomVersion>();
  }
  Rid rid = Rid::Unpack(floor->second);
  if (rid_out) *rid_out = rid;
  TCOB_ASSIGN_OR_RETURN(std::string rec, state->heap->Get(rid));
  Slice in(rec);
  std::vector<AttrType> schema = type.AttrTypes();
  TCOB_ASSIGN_OR_RETURN(AtomVersion v, DecodeAtomVersion(schema, &in));
  return std::optional<AtomVersion>(std::move(v));
}

Status SnapshotStore::Insert(const AtomTypeDef& type, AtomId id,
                             std::vector<Value> attrs, Timestamp from) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  TCOB_ASSIGN_OR_RETURN(std::optional<AtomVersion> newest,
                        NewestVersion(type, id, nullptr));
  TCOB_RETURN_NOT_OK(AtomTail(id, newest ? &*newest : nullptr).Open(from));
  AtomVersion v{id, type.id, newest ? newest->version_no + 1 : 1u,
                Interval(from, kForever), std::move(attrs)};
  std::string rec;
  std::vector<AttrType> schema = type.AttrTypes();
  TCOB_RETURN_NOT_OK(EncodeAtomVersion(schema, v, &rec));
  TCOB_ASSIGN_OR_RETURN(Rid rid, state->heap->Insert(rec));
  return state->index->Put(VersionKey(id, v.version_no), rid.Pack());
}

Status SnapshotStore::Update(const AtomTypeDef& type, AtomId id,
                             std::vector<Value> attrs, Timestamp from) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  TCOB_ASSIGN_OR_RETURN(AtomVersion closed, CloseLive(type, id, from));
  // Append the successor version.
  AtomVersion next{id, type.id, closed.version_no + 1,
                   Interval(from, kForever), std::move(attrs)};
  std::string next_rec;
  TCOB_RETURN_NOT_OK(EncodeAtomVersion(type.AttrTypes(), next, &next_rec));
  TCOB_ASSIGN_OR_RETURN(Rid rid, state->heap->Insert(next_rec));
  return state->index->Put(VersionKey(id, next.version_no), rid.Pack());
}

Status SnapshotStore::Delete(const AtomTypeDef& type, AtomId id,
                             Timestamp from) {
  return CloseLive(type, id, from).status();
}

Result<AtomVersion> SnapshotStore::CloseLive(const AtomTypeDef& type,
                                               AtomId id, Timestamp from) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  Rid rid;
  TCOB_ASSIGN_OR_RETURN(std::optional<AtomVersion> newest,
                        NewestVersion(type, id, &rid));
  TCOB_RETURN_NOT_OK(AtomTail(id, newest ? &*newest : nullptr).Close(from));
  // Close the live version in place.
  AtomVersion closed = std::move(*newest);
  closed.valid.end = from;
  std::string rec;
  TCOB_RETURN_NOT_OK(EncodeAtomVersion(type.AttrTypes(), closed, &rec));
  TCOB_ASSIGN_OR_RETURN(Rid new_rid, state->heap->Update(rid, rec));
  if (new_rid != rid) {
    TCOB_RETURN_NOT_OK(
        state->index->Put(VersionKey(id, closed.version_no), new_rid.Pack()));
  }
  return closed;
}

Result<std::optional<AtomVersion>> SnapshotStore::DoGetAsOf(
    const AtomTypeDef& type, AtomId id, Timestamp t) const {
  TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                        AllVersions(type, id));
  if (versions.empty()) {
    // Anchor rule: an atom with cold history always keeps a hot
    // version, so "no hot versions" still means "never inserted".
    return Status::NotFound("atom " + std::to_string(id));
  }
  for (const AtomVersion& v : versions) {
    if (v.valid.Contains(t)) return std::optional<AtomVersion>(v);
  }
  // Cold versions are strictly older than every hot one: probe the
  // cold tier only when t precedes all hot knowledge, never to fill a
  // gap the hot chain already proves.
  if (has_cold() && t < versions.front().valid.begin) {
    TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> cold,
                          ColdVersions(type, id, Interval::At(t)));
    for (AtomVersion& v : cold) {
      if (v.valid.Contains(t)) return std::optional<AtomVersion>(std::move(v));
    }
  }
  return std::optional<AtomVersion>();
}

Result<std::vector<AtomVersion>> SnapshotStore::DoGetVersions(
    const AtomTypeDef& type, AtomId id, const Interval& window) const {
  TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> versions,
                        AllVersions(type, id));
  if (versions.empty()) {
    return Status::NotFound("atom " + std::to_string(id));
  }
  std::vector<AtomVersion> out;
  if (has_cold() && window.begin < versions.front().valid.begin) {
    TCOB_ASSIGN_OR_RETURN(out, ColdVersions(type, id, window));
  }
  for (AtomVersion& v : versions) {
    if (v.valid.Overlaps(window)) out.push_back(std::move(v));
  }
  return out;
}

Status SnapshotStore::DoScanAsOf(const AtomTypeDef& type, Timestamp t,
                               const VersionCallback& fn) const {
  return DoScanVersions(type, Interval::At(t), fn);
}

Status SnapshotStore::DoScanVersions(const AtomTypeDef& type,
                                   const Interval& window,
                                   const VersionCallback& fn) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Scan in version-index order — ascending (atom id, version_no), i.e.
  // ascending (id, begin) — instead of physical heap order. Heap order
  // is not stable under migration (freed slots get reused), so the
  // canonical order keeps scan output identical with and without a cold
  // tier; cold versions merge in front of each atom's hot chain.
  std::map<AtomId, std::vector<AtomVersion>> cold;
  TCOB_RETURN_NOT_OK(ColdCollectAll(type, window, &cold));
  AtomId current = kInvalidAtomId;
  auto emit_cold = [&](AtomId id) -> Result<bool> {
    auto it = cold.find(id);
    if (it == cold.end()) return true;
    for (AtomVersion& v : it->second) {
      TCOB_ASSIGN_OR_RETURN(bool more, fn(v));
      if (!more) return false;
    }
    return true;
  };
  return state->index->Scan(
      Slice(), Slice(), [&](const Slice& key, uint64_t packed) -> Result<bool> {
        (void)key;
        TCOB_ASSIGN_OR_RETURN(std::string rec,
                              state->heap->Get(Rid::Unpack(packed)));
        Slice in(rec);
        TCOB_ASSIGN_OR_RETURN(AtomVersion v, DecodeAtomVersion(schema, &in));
        if (v.id != current) {
          current = v.id;
          TCOB_ASSIGN_OR_RETURN(bool more, emit_cold(v.id));
          if (!more) return false;
        }
        if (!v.valid.Overlaps(window)) return true;
        return fn(v);
      });
}

Result<StoreSpaceStats> SnapshotStore::SpaceStats() const {
  StoreSpaceStats stats;
  for (const auto& [type_id, state] : types_) {
    (void)type_id;
    TCOB_ASSIGN_OR_RETURN(HeapFileStats heap, state.heap->Stats());
    TCOB_ASSIGN_OR_RETURN(PageNo index_pages,
                          pool_->disk()->NumPages(state.index->file_id()));
    stats.heap_pages += heap.total_pages;
    stats.index_pages += index_pages;
    stats.version_count += heap.record_count;
  }
  stats.total_bytes = (stats.heap_pages + stats.index_pages) * kPageSize;
  return stats;
}

Status SnapshotStore::Flush() { return pool_->FlushAll(); }

}  // namespace tcob

namespace tcob {

Result<uint64_t> SnapshotStore::VacuumBefore(const AtomTypeDef& type,
                                             Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  struct Victim {
    Rid rid;
    AtomId id;
    uint32_t version_no;
  };
  std::vector<Victim> victims;
  TCOB_RETURN_NOT_OK(state->heap->Scan(
      [&](const Rid& rid, const Slice& rec) -> Result<bool> {
        Slice in(rec);
        TCOB_ASSIGN_OR_RETURN(AtomVersion v, DecodeAtomVersion(schema, &in));
        if (v.valid.end <= cutoff) {
          victims.push_back({rid, v.id, v.version_no});
        }
        return true;
      }));
  for (const Victim& victim : victims) {
    TCOB_RETURN_NOT_OK(state->heap->Delete(victim.rid));
    TCOB_RETURN_NOT_OK(
        state->index->Delete(VersionKey(victim.id, victim.version_no)));
  }
  return static_cast<uint64_t>(victims.size());
}

Result<uint64_t> SnapshotStore::ReleaseMigrated(const AtomTypeDef& type,
                                                Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  struct Located {
    Rid rid;
    AtomVersion v;
  };
  std::map<AtomId, std::vector<Located>> by_atom;
  TCOB_RETURN_NOT_OK(state->heap->Scan(
      [&](const Rid& rid, const Slice& rec) -> Result<bool> {
        Slice in(rec);
        TCOB_ASSIGN_OR_RETURN(AtomVersion v, DecodeAtomVersion(schema, &in));
        by_atom[v.id].push_back({rid, std::move(v)});
        return true;
      }));
  uint64_t released = 0;
  for (auto& [id, chain] : by_atom) {
    (void)id;
    std::sort(chain.begin(), chain.end(),
              [](const Located& a, const Located& b) {
                return a.v.valid.begin < b.v.valid.begin;
              });
    std::vector<AtomVersion> versions;
    versions.reserve(chain.size());
    for (const Located& l : chain) versions.push_back(l.v);
    size_t n = MigratablePrefix(versions, cutoff);
    for (size_t i = 0; i < n; ++i) {
      TCOB_RETURN_NOT_OK(state->heap->Delete(chain[i].rid));
      TCOB_RETURN_NOT_OK(state->index->Delete(
          VersionKey(chain[i].v.id, chain[i].v.version_no)));
      ++released;
    }
  }
  return released;
}

Status SnapshotStore::VerifyStructure(const AtomTypeDef& type) const {
  TCOB_ASSIGN_OR_RETURN(TypeState* state, StateOf(type.id));
  TCOB_RETURN_NOT_OK(state->index->VerifyStructure());
  return state->index->Scan(
      Slice(), Slice(), [&](const Slice&, uint64_t v) -> Result<bool> {
        Result<std::string> rec = state->heap->Get(Rid::Unpack(v));
        if (!rec.ok()) {
          return Status::Corruption("version index of type " + type.name +
                                    " references unreadable record: " +
                                    rec.status().message());
        }
        return true;
      });
}

}  // namespace tcob
