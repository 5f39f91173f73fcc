#include "tstore/separated_store.h"

#include <algorithm>

#include "common/coding.h"
#include "record/record_codec.h"

namespace tcob {

std::string SeparatedStore::VersionKey(AtomId id, Timestamp begin) {
  std::string key;
  PutComparableU64(&key, id);
  PutComparableI64(&key, begin);
  return key;
}

Result<SeparatedStore::TypeState*> SeparatedStore::StateOf(
    TypeId type) const {
  std::lock_guard<std::mutex> lock(types_mu_);
  auto it = types_.find(type);
  if (it != types_.end()) return &it->second;
  TypeState state;
  const std::string t = std::to_string(type);
  TCOB_ASSIGN_OR_RETURN(state.current,
                        HeapFile::Open(pool_, prefix_ + "_cur_" + t));
  TCOB_ASSIGN_OR_RETURN(state.history,
                        HeapFile::Open(pool_, prefix_ + "_hist_" + t));
  TCOB_ASSIGN_OR_RETURN(state.current_index,
                        BTree::Open(pool_, prefix_ + "_cidx_" + t));
  if (options_.separated_version_index) {
    TCOB_ASSIGN_OR_RETURN(state.version_index,
                          BTree::Open(pool_, prefix_ + "_vidx_" + t));
  }
  auto [pos, inserted] = types_.emplace(type, std::move(state));
  (void)inserted;
  return &pos->second;
}

Status SeparatedStore::EncodeCurrent(const std::vector<AttrType>& schema,
                                     const CurrentRecord& rec, AtomId id,
                                     TypeId type, std::string* dst) {
  (void)type;
  dst->push_back(rec.has_live ? 1 : 0);
  PutVarint64(dst, id);
  if (rec.has_live) {
    PutVarint32(dst, rec.live.version_no);
    PutVarsint64(dst, rec.live.valid.begin);
    TCOB_RETURN_NOT_OK(EncodeValues(schema, rec.live.attrs, dst));
  }
  PutVarint32(dst, rec.last_version_no);
  PutVarsint64(dst, rec.last_end);
  PutVarint64(dst, rec.chain_head.Pack());
  PutVarint32(dst, rec.chain_len);
  return Status::OK();
}

Result<SeparatedStore::CurrentRecord> SeparatedStore::DecodeCurrent(
    const std::vector<AttrType>& schema, AtomId id, TypeId type,
    Slice input) {
  CurrentRecord rec;
  if (input.empty()) return Status::Corruption("empty current record");
  rec.has_live = input[0] != 0;
  input.RemovePrefix(1);
  uint64_t stored_id;
  TCOB_RETURN_NOT_OK(GetVarint64(&input, &stored_id));
  if (stored_id != id) {
    return Status::Corruption("current record id mismatch");
  }
  if (rec.has_live) {
    rec.live.id = id;
    rec.live.type = type;
    TCOB_RETURN_NOT_OK(GetVarint32(&input, &rec.live.version_no));
    TCOB_RETURN_NOT_OK(GetVarsint64(&input, &rec.live.valid.begin));
    rec.live.valid.end = kForever;
    TCOB_ASSIGN_OR_RETURN(rec.live.attrs, DecodeValues(schema, &input));
  }
  TCOB_RETURN_NOT_OK(GetVarint32(&input, &rec.last_version_no));
  TCOB_RETURN_NOT_OK(GetVarsint64(&input, &rec.last_end));
  uint64_t packed;
  TCOB_RETURN_NOT_OK(GetVarint64(&input, &packed));
  rec.chain_head = Rid::Unpack(packed);
  TCOB_RETURN_NOT_OK(GetVarint32(&input, &rec.chain_len));
  return rec;
}

Status SeparatedStore::EncodeHistory(const std::vector<AttrType>& schema,
                                     const AtomVersion& v, const Rid& prev,
                                     std::string* dst) {
  TCOB_RETURN_NOT_OK(EncodeAtomVersion(schema, v, dst));
  PutVarint64(dst, prev.Pack());
  return Status::OK();
}

Result<std::pair<AtomVersion, Rid>> SeparatedStore::DecodeHistory(
    const std::vector<AttrType>& schema, Slice input) {
  TCOB_ASSIGN_OR_RETURN(AtomVersion v, DecodeAtomVersion(schema, &input));
  uint64_t packed;
  TCOB_RETURN_NOT_OK(GetVarint64(&input, &packed));
  return std::make_pair(std::move(v), Rid::Unpack(packed));
}

Result<SeparatedStore::CurrentRecord> SeparatedStore::LoadCurrent(
    const AtomTypeDef& type, AtomId id, Rid* rid_out) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::string key;
  PutComparableU64(&key, id);
  Result<uint64_t> packed = state->current_index->Get(key);
  if (!packed.ok()) {
    // Only a clean miss means "no such atom"; I/O and corruption errors
    // must surface as themselves, never as a wrong NotFound answer.
    if (!packed.status().IsNotFound()) return packed.status();
    return Status::NotFound("atom " + std::to_string(id));
  }
  Rid rid = Rid::Unpack(packed.value());
  if (rid_out) *rid_out = rid;
  TCOB_ASSIGN_OR_RETURN(std::string rec, state->current->Get(rid));
  return DecodeCurrent(type.AttrTypes(), id, type.id, Slice(rec));
}

Status SeparatedStore::StoreCurrent(const AtomTypeDef& type, AtomId id,
                                    const Rid& rid,
                                    const CurrentRecord& rec) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::string bytes;
  TCOB_RETURN_NOT_OK(EncodeCurrent(type.AttrTypes(), rec, id, type.id, &bytes));
  TCOB_ASSIGN_OR_RETURN(Rid new_rid, state->current->Update(rid, bytes));
  if (new_rid != rid) {
    std::string key;
    PutComparableU64(&key, id);
    TCOB_RETURN_NOT_OK(state->current_index->Put(key, new_rid.Pack()));
  }
  return Status::OK();
}

Result<Rid> SeparatedStore::AppendHistory(const AtomTypeDef& type,
                                          const AtomVersion& closed,
                                          const Rid& prev) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::string bytes;
  TCOB_RETURN_NOT_OK(EncodeHistory(type.AttrTypes(), closed, prev, &bytes));
  TCOB_ASSIGN_OR_RETURN(Rid rid, state->history->Insert(bytes));
  if (state->version_index) {
    TCOB_RETURN_NOT_OK(state->version_index->Put(
        VersionKey(closed.id, closed.valid.begin), rid.Pack()));
  }
  return rid;
}

Status SeparatedStore::Insert(const AtomTypeDef& type, AtomId id,
                              std::vector<Value> attrs, Timestamp from) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  Rid rid;
  Result<CurrentRecord> existing = LoadCurrent(type, id, &rid);
  TCOB_ASSIGN_OR_RETURN(TimelineTail tail, CurrentTail(id, existing));
  TCOB_RETURN_NOT_OK(tail.Open(from));
  CurrentRecord rec = existing.ok() ? std::move(existing).value()
                                    : CurrentRecord();
  OpenLive(&rec, type, id, std::move(attrs), from);
  if (existing.ok()) return StoreCurrent(type, id, rid, rec);
  std::string bytes;
  TCOB_RETURN_NOT_OK(EncodeCurrent(type.AttrTypes(), rec, id, type.id, &bytes));
  TCOB_ASSIGN_OR_RETURN(Rid new_rid, state->current->Insert(bytes));
  std::string key;
  PutComparableU64(&key, id);
  return state->current_index->Put(key, new_rid.Pack());
}

Status SeparatedStore::Update(const AtomTypeDef& type, AtomId id,
                              std::vector<Value> attrs, Timestamp from) {
  Rid rid;
  TCOB_ASSIGN_OR_RETURN(CurrentRecord rec, CloseLive(type, id, from, &rid));
  OpenLive(&rec, type, id, std::move(attrs), from);
  return StoreCurrent(type, id, rid, rec);
}

Status SeparatedStore::Delete(const AtomTypeDef& type, AtomId id,
                              Timestamp from) {
  Rid rid;
  TCOB_ASSIGN_OR_RETURN(CurrentRecord rec, CloseLive(type, id, from, &rid));
  return StoreCurrent(type, id, rid, rec);
}

Result<TimelineTail> SeparatedStore::CurrentTail(
    AtomId id, const Result<CurrentRecord>& current) {
  TimelineTail tail = TimelineTail::Atom(id);
  if (!current.ok()) {
    if (current.status().IsNotFound()) return tail;
    return current.status();
  }
  tail.exists = true;
  tail.open = current->has_live;
  tail.begin = current->live.valid.begin;
  tail.last_end = current->last_end;
  return tail;
}

Result<SeparatedStore::CurrentRecord> SeparatedStore::CloseLive(
    const AtomTypeDef& type, AtomId id, Timestamp from, Rid* rid) {
  Result<CurrentRecord> loaded = LoadCurrent(type, id, rid);
  TCOB_ASSIGN_OR_RETURN(TimelineTail tail, CurrentTail(id, loaded));
  TCOB_RETURN_NOT_OK(tail.Close(from));
  CurrentRecord rec = std::move(loaded).value();
  AtomVersion closed = std::move(rec.live);
  closed.valid.end = from;
  TCOB_ASSIGN_OR_RETURN(rec.chain_head,
                        AppendHistory(type, closed, rec.chain_head));
  ++rec.chain_len;
  rec.last_end = from;
  rec.has_live = false;
  rec.live = AtomVersion{};
  return rec;
}

void SeparatedStore::OpenLive(CurrentRecord* rec, const AtomTypeDef& type,
                              AtomId id, std::vector<Value> attrs,
                              Timestamp from) {
  rec->has_live = true;
  rec->live = AtomVersion{id, type.id, rec->last_version_no + 1,
                          Interval(from, kForever), std::move(attrs)};
  rec->last_version_no = rec->live.version_no;
}

Result<std::optional<AtomVersion>> SeparatedStore::FindPast(
    const AtomTypeDef& type, AtomId id, const CurrentRecord& cur,
    Timestamp t) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Probes the cold tier once the hot store proved no version of `id`
  // begins at or before `t`. Cold versions are strictly older than every
  // hot one, so a hot-proven gap (a version ending at or before `t` with
  // no successor containing it) is never probed.
  auto find_cold = [&]() -> Result<std::optional<AtomVersion>> {
    if (has_cold()) {
      TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> cold,
                            ColdVersions(type, id, Interval::At(t)));
      for (AtomVersion& v : cold) {
        if (v.valid.Contains(t)) {
          return std::optional<AtomVersion>(std::move(v));
        }
      }
    }
    return std::optional<AtomVersion>();
  };
  if (state->version_index) {
    Result<std::pair<std::string, uint64_t>> floor =
        state->version_index->Floor(VersionKey(id, t));
    if (!floor.ok()) {
      if (floor.status().IsNotFound()) return find_cold();
      return floor.status();
    }
    // The floor entry must belong to the same atom.
    std::string prefix;
    PutComparableU64(&prefix, id);
    if (!Slice(floor.value().first).starts_with(prefix)) {
      return find_cold();
    }
    TCOB_ASSIGN_OR_RETURN(std::string rec,
                          state->history->Get(Rid::Unpack(floor->second)));
    ++chain_hops_;
    TCOB_ASSIGN_OR_RETURN(auto decoded, DecodeHistory(schema, Slice(rec)));
    if (decoded.first.valid.Contains(t)) {
      return std::optional<AtomVersion>(std::move(decoded.first));
    }
    return std::optional<AtomVersion>();  // gap (deleted period)
  }
  // Chain walk newest-to-oldest until version.begin <= t.
  Rid rid = cur.chain_head;
  while (rid.valid()) {
    TCOB_ASSIGN_OR_RETURN(std::string rec, state->history->Get(rid));
    ++chain_hops_;
    TCOB_ASSIGN_OR_RETURN(auto decoded, DecodeHistory(schema, Slice(rec)));
    if (decoded.first.valid.begin <= t) {
      if (decoded.first.valid.Contains(t)) {
        return std::optional<AtomVersion>(std::move(decoded.first));
      }
      return std::optional<AtomVersion>();  // gap
    }
    rid = decoded.second;
  }
  return find_cold();
}

Result<std::vector<AtomVersion>> SeparatedStore::CollectPast(
    const AtomTypeDef& type, const CurrentRecord& cur, const Interval& window,
    Timestamp* proved_floor) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Oldest begin the walk reaches; the live version counts as hot
  // knowledge when the chain is empty (all closed versions may have
  // migrated to the cold tier while the atom stays live).
  Timestamp proved = cur.has_live ? cur.live.valid.begin : kForever;
  std::vector<AtomVersion> newest_first;
  Rid rid = cur.chain_head;
  while (rid.valid()) {
    TCOB_ASSIGN_OR_RETURN(std::string rec, state->history->Get(rid));
    ++chain_hops_;
    TCOB_ASSIGN_OR_RETURN(auto decoded, DecodeHistory(schema, Slice(rec)));
    if (decoded.first.valid.end <= window.begin) {
      // A hot version already older than the window: every cold version
      // is older still, so nothing below can overlap it.
      proved = kMinTimestamp;
      break;
    }
    proved = decoded.first.valid.begin;
    if (decoded.first.valid.Overlaps(window)) {
      newest_first.push_back(std::move(decoded.first));
    }
    rid = decoded.second;
  }
  if (proved_floor) *proved_floor = proved;
  std::reverse(newest_first.begin(), newest_first.end());
  return newest_first;
}

Result<std::optional<AtomVersion>> SeparatedStore::DoGetAsOf(
    const AtomTypeDef& type, AtomId id, Timestamp t) const {
  TCOB_ASSIGN_OR_RETURN(CurrentRecord rec, LoadCurrent(type, id, nullptr));
  if (rec.has_live && rec.live.valid.Contains(t)) {
    return std::optional<AtomVersion>(rec.live);
  }
  if (rec.has_live && t >= rec.live.valid.begin) {
    return std::optional<AtomVersion>();  // future of a live atom: live wins
  }
  if (!rec.has_live && t >= rec.last_end) {
    return std::optional<AtomVersion>();  // after deletion
  }
  return FindPast(type, id, rec, t);
}

Result<std::vector<AtomVersion>> SeparatedStore::DoGetVersions(
    const AtomTypeDef& type, AtomId id, const Interval& window) const {
  TCOB_ASSIGN_OR_RETURN(CurrentRecord rec, LoadCurrent(type, id, nullptr));
  Timestamp proved = kForever;
  TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> past,
                        CollectPast(type, rec, window, &proved));
  std::vector<AtomVersion> out;
  if (has_cold() && window.begin < proved) {
    TCOB_ASSIGN_OR_RETURN(out, ColdVersions(type, id, window));
  }
  for (AtomVersion& v : past) out.push_back(std::move(v));
  if (rec.has_live && rec.live.valid.Overlaps(window)) {
    out.push_back(rec.live);
  }
  return out;
}

Status SeparatedStore::DoScanAsOf(const AtomTypeDef& type, Timestamp t,
                                const VersionCallback& fn) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Scan in current-index order — ascending atom id — instead of
  // physical heap order. Heap order is not stable under migration
  // (freed slots get reused), so the canonical order keeps scan output
  // identical with and without a cold tier.
  return state->current_index->Scan(
      Slice(), Slice(), [&](const Slice& key, uint64_t packed) -> Result<bool> {
        (void)key;
        TCOB_ASSIGN_OR_RETURN(std::string raw,
                              state->current->Get(Rid::Unpack(packed)));
        Slice peek(raw);
        if (peek.empty()) return Status::Corruption("empty current record");
        // Decode enough to learn the atom id.
        peek.RemovePrefix(1);
        uint64_t id;
        TCOB_RETURN_NOT_OK(GetVarint64(&peek, &id));
        TCOB_ASSIGN_OR_RETURN(
            CurrentRecord rec,
            DecodeCurrent(schema, id, type.id, Slice(raw)));
        if (rec.has_live && rec.live.valid.Contains(t)) {
          return fn(rec.live);
        }
        if ((rec.has_live && t < rec.live.valid.begin) ||
            (!rec.has_live && t < rec.last_end)) {
          TCOB_ASSIGN_OR_RETURN(std::optional<AtomVersion> past,
                                FindPast(type, id, rec, t));
          if (past.has_value()) return fn(*past);
        }
        return true;
      });
}

Status SeparatedStore::DoScanVersions(const AtomTypeDef& type,
                                    const Interval& window,
                                    const VersionCallback& fn) const {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Canonical scan order: ascending atom id via the current index, each
  // atom's cold versions first (they are strictly the oldest), then its
  // hot chain, then the live version. Identical with and without a cold
  // tier — physical heap order is not stable under migration.
  std::map<AtomId, std::vector<AtomVersion>> cold;
  TCOB_RETURN_NOT_OK(ColdCollectAll(type, window, &cold));
  return state->current_index->Scan(
      Slice(), Slice(), [&](const Slice& key, uint64_t packed) -> Result<bool> {
        (void)key;
        TCOB_ASSIGN_OR_RETURN(std::string raw,
                              state->current->Get(Rid::Unpack(packed)));
        Slice peek(raw);
        if (peek.empty()) return Status::Corruption("empty current record");
        peek.RemovePrefix(1);
        uint64_t id;
        TCOB_RETURN_NOT_OK(GetVarint64(&peek, &id));
        TCOB_ASSIGN_OR_RETURN(CurrentRecord rec,
                              DecodeCurrent(schema, id, type.id, Slice(raw)));
        auto it = cold.find(id);
        if (it != cold.end()) {
          for (const AtomVersion& v : it->second) {
            TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(v));
            if (!keep_going) return false;
          }
        }
        TCOB_ASSIGN_OR_RETURN(std::vector<AtomVersion> past,
                              CollectPast(type, rec, window));
        for (const AtomVersion& v : past) {
          TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(v));
          if (!keep_going) return false;
        }
        if (rec.has_live && rec.live.valid.Overlaps(window)) {
          return fn(rec.live);
        }
        return true;
      });
}

Result<StoreSpaceStats> SeparatedStore::SpaceStats() const {
  StoreSpaceStats stats;
  for (const auto& [type_id, state] : types_) {
    (void)type_id;
    TCOB_ASSIGN_OR_RETURN(HeapFileStats cur, state.current->Stats());
    TCOB_ASSIGN_OR_RETURN(HeapFileStats hist, state.history->Stats());
    stats.heap_pages += cur.total_pages + hist.total_pages;
    TCOB_ASSIGN_OR_RETURN(
        PageNo cidx_pages,
        pool_->disk()->NumPages(state.current_index->file_id()));
    stats.index_pages += cidx_pages;
    if (state.version_index) {
      TCOB_ASSIGN_OR_RETURN(
          PageNo vidx_pages,
          pool_->disk()->NumPages(state.version_index->file_id()));
      stats.index_pages += vidx_pages;
    }
    stats.atom_count += cur.record_count;
    stats.version_count += cur.record_count + hist.record_count;
  }
  stats.total_bytes = (stats.heap_pages + stats.index_pages) * kPageSize;
  return stats;
}

Status SeparatedStore::Flush() { return pool_->FlushAll(); }

}  // namespace tcob

namespace tcob {

Result<uint64_t> SeparatedStore::VacuumBefore(const AtomTypeDef& type,
                                              Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Snapshot the current-store entries first (we mutate while iterating
  // otherwise).
  std::vector<std::pair<Rid, AtomId>> atoms;
  TCOB_RETURN_NOT_OK(state->current->Scan(
      [&](const Rid& rid, const Slice& raw) -> Result<bool> {
        Slice peek(raw);
        if (peek.empty()) return Status::Corruption("empty current record");
        peek.RemovePrefix(1);
        uint64_t id;
        TCOB_RETURN_NOT_OK(GetVarint64(&peek, &id));
        atoms.emplace_back(rid, id);
        return true;
      }));

  uint64_t removed = 0;
  for (const auto& [rid, id] : atoms) {
    TCOB_ASSIGN_OR_RETURN(std::string raw, state->current->Get(rid));
    TCOB_ASSIGN_OR_RETURN(CurrentRecord rec,
                          DecodeCurrent(schema, id, type.id, Slice(raw)));
    // Materialize the chain newest-to-oldest.
    std::vector<std::pair<Rid, AtomVersion>> chain;
    Rid r = rec.chain_head;
    while (r.valid()) {
      TCOB_ASSIGN_OR_RETURN(std::string hrec, state->history->Get(r));
      TCOB_ASSIGN_OR_RETURN(auto decoded, DecodeHistory(schema, Slice(hrec)));
      chain.emplace_back(r, std::move(decoded.first));
      r = decoded.second;
    }
    // Version ends decrease going older, so the drop set is a suffix.
    size_t cut = chain.size();
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i].second.valid.end <= cutoff) {
        cut = i;
        break;
      }
    }
    if (cut == chain.size()) continue;  // nothing to vacuum for this atom
    // Remove the dropped suffix (records + version-index entries).
    for (size_t i = cut; i < chain.size(); ++i) {
      TCOB_RETURN_NOT_OK(state->history->Delete(chain[i].first));
      if (state->version_index) {
        TCOB_RETURN_NOT_OK(state->version_index->Delete(
            VersionKey(id, chain[i].second.valid.begin)));
      }
      ++removed;
    }
    // Rebuild the kept prefix oldest-first so the chain pointers are
    // fresh (avoids in-place pointer surgery on variable-size records).
    for (size_t i = 0; i < cut; ++i) {
      TCOB_RETURN_NOT_OK(state->history->Delete(chain[i].first));
    }
    Rid prev;  // invalid
    for (size_t i = cut; i-- > 0;) {
      TCOB_ASSIGN_OR_RETURN(prev, AppendHistory(type, chain[i].second, prev));
    }
    rec.chain_head = prev;
    rec.chain_len = static_cast<uint32_t>(cut);
    if (!rec.has_live && cut == 0) {
      // The whole atom predates the cutoff: forget it entirely.
      TCOB_RETURN_NOT_OK(state->current->Delete(rid));
      std::string key;
      PutComparableU64(&key, id);
      TCOB_RETURN_NOT_OK(state->current_index->Delete(key));
      continue;
    }
    TCOB_RETURN_NOT_OK(StoreCurrent(type, id, rid, rec));
  }
  return removed;
}

Result<uint64_t> SeparatedStore::ReleaseMigrated(const AtomTypeDef& type,
                                                 Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(TypeState * state, StateOf(type.id));
  std::vector<AttrType> schema = type.AttrTypes();
  // Snapshot the current-store entries first (we mutate while iterating
  // otherwise).
  std::vector<std::pair<Rid, AtomId>> atoms;
  TCOB_RETURN_NOT_OK(state->current->Scan(
      [&](const Rid& rid, const Slice& raw) -> Result<bool> {
        Slice peek(raw);
        if (peek.empty()) return Status::Corruption("empty current record");
        peek.RemovePrefix(1);
        uint64_t id;
        TCOB_RETURN_NOT_OK(GetVarint64(&peek, &id));
        atoms.emplace_back(rid, id);
        return true;
      }));

  uint64_t removed = 0;
  for (const auto& [rid, id] : atoms) {
    TCOB_ASSIGN_OR_RETURN(std::string raw, state->current->Get(rid));
    TCOB_ASSIGN_OR_RETURN(CurrentRecord rec,
                          DecodeCurrent(schema, id, type.id, Slice(raw)));
    // Materialize the chain newest-to-oldest.
    std::vector<std::pair<Rid, AtomVersion>> chain;
    Rid r = rec.chain_head;
    while (r.valid()) {
      TCOB_ASSIGN_OR_RETURN(std::string hrec, state->history->Get(r));
      TCOB_ASSIGN_OR_RETURN(auto decoded, DecodeHistory(schema, Slice(hrec)));
      chain.emplace_back(r, std::move(decoded.first));
      r = decoded.second;
    }
    // The shared migration predicate wants the versions sorted by begin:
    // the reversed chain followed by the live version.
    std::vector<AtomVersion> versions;
    versions.reserve(chain.size() + 1);
    for (size_t i = chain.size(); i-- > 0;) versions.push_back(chain[i].second);
    if (rec.has_live) versions.push_back(rec.live);
    size_t migrate = MigratablePrefix(versions, cutoff);
    if (migrate == 0) continue;
    // The oldest `migrate` versions are the last ones of the newest-first
    // chain; remove them (records + version-index entries).
    size_t cut = chain.size() - migrate;
    for (size_t i = cut; i < chain.size(); ++i) {
      TCOB_RETURN_NOT_OK(state->history->Delete(chain[i].first));
      if (state->version_index) {
        TCOB_RETURN_NOT_OK(state->version_index->Delete(
            VersionKey(id, chain[i].second.valid.begin)));
      }
      ++removed;
    }
    // Rebuild the kept prefix oldest-first so the chain pointers are
    // fresh (same scheme as VacuumBefore).
    for (size_t i = 0; i < cut; ++i) {
      TCOB_RETURN_NOT_OK(state->history->Delete(chain[i].first));
    }
    Rid prev;  // invalid
    for (size_t i = cut; i-- > 0;) {
      TCOB_ASSIGN_OR_RETURN(prev, AppendHistory(type, chain[i].second, prev));
    }
    rec.chain_head = prev;
    rec.chain_len = static_cast<uint32_t>(cut);
    // Unlike VacuumBefore there is no "forget entirely" case: the anchor
    // rule keeps the newest closed version (or the live one) hot, so the
    // current record always survives migration.
    TCOB_RETURN_NOT_OK(StoreCurrent(type, id, rid, rec));
  }
  return removed;
}

Status SeparatedStore::VerifyStructure(const AtomTypeDef& type) const {
  TCOB_ASSIGN_OR_RETURN(TypeState* state, StateOf(type.id));
  TCOB_RETURN_NOT_OK(state->current_index->VerifyStructure());
  TCOB_RETURN_NOT_OK(state->current_index->Scan(
      Slice(), Slice(), [&](const Slice&, uint64_t v) -> Result<bool> {
        Result<std::string> rec = state->current->Get(Rid::Unpack(v));
        if (!rec.ok()) {
          return Status::Corruption("current index of type " + type.name +
                                    " references unreadable record: " +
                                    rec.status().message());
        }
        return true;
      }));
  if (state->version_index != nullptr) {
    TCOB_RETURN_NOT_OK(state->version_index->VerifyStructure());
    TCOB_RETURN_NOT_OK(state->version_index->Scan(
        Slice(), Slice(), [&](const Slice&, uint64_t v) -> Result<bool> {
          Result<std::string> rec = state->history->Get(Rid::Unpack(v));
          if (!rec.ok()) {
            return Status::Corruption("version index of type " + type.name +
                                      " references unreadable record: " +
                                      rec.status().message());
          }
          return true;
        }));
  }
  return Status::OK();
}

}  // namespace tcob
