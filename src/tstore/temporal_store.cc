#include "tstore/temporal_store.h"

#include <algorithm>
#include <map>

#include "common/coding.h"
#include "record/record_codec.h"
#include "tstore/cold_tier.h"

namespace tcob {

const char* StorageStrategyName(StorageStrategy s) {
  switch (s) {
    case StorageStrategy::kSnapshot:
      return "snapshot";
    case StorageStrategy::kIntegrated:
      return "integrated";
    case StorageStrategy::kSeparated:
      return "separated";
  }
  return "?";
}

Result<StorageStrategy> StorageStrategyFromName(const std::string& name) {
  if (name == "snapshot") return StorageStrategy::kSnapshot;
  if (name == "integrated") return StorageStrategy::kIntegrated;
  if (name == "separated") return StorageStrategy::kSeparated;
  return Status::InvalidArgument("unknown storage strategy: " + name);
}

Status EncodeAtomVersion(const std::vector<AttrType>& schema,
                         const AtomVersion& v, std::string* dst) {
  PutVarint64(dst, v.id);
  PutVarint32(dst, v.type);
  PutVarint32(dst, v.version_no);
  PutVarsint64(dst, v.valid.begin);
  PutVarsint64(dst, v.valid.end);
  return EncodeValues(schema, v.attrs, dst);
}

Result<AtomVersion> DecodeAtomVersion(const std::vector<AttrType>& schema,
                                      Slice* input) {
  AtomVersion v;
  TCOB_RETURN_NOT_OK(GetVarint64(input, &v.id));
  TCOB_RETURN_NOT_OK(GetVarint32(input, &v.type));
  TCOB_RETURN_NOT_OK(GetVarint32(input, &v.version_no));
  TCOB_RETURN_NOT_OK(GetVarsint64(input, &v.valid.begin));
  TCOB_RETURN_NOT_OK(GetVarsint64(input, &v.valid.end));
  TCOB_ASSIGN_OR_RETURN(v.attrs, DecodeValues(schema, input));
  return v;
}

ColdTierAccessStats TemporalAtomStore::cold_access_stats() const {
  return cold_ ? cold_->access_stats() : ColdTierAccessStats{};
}

size_t TemporalAtomStore::MigratablePrefix(
    const std::vector<AtomVersion>& versions, Timestamp cutoff) {
  size_t n = 0;
  while (n < versions.size() && !versions[n].valid.open_ended() &&
         versions[n].valid.end <= cutoff) {
    ++n;
  }
  // Anchor rule: a fully-historical atom keeps its newest version hot.
  if (n == versions.size() && n > 0) --n;
  return n;
}

Result<std::map<AtomId, std::vector<AtomVersion>>>
TemporalAtomStore::CollectMigratable(const AtomTypeDef& type,
                                     Timestamp cutoff) const {
  std::map<AtomId, std::vector<AtomVersion>> by_atom;
  TCOB_RETURN_NOT_OK(DoScanVersions(
      type, Interval::All(), [&](const AtomVersion& v) -> Result<bool> {
        by_atom[v.id].push_back(v);
        return true;
      }));
  // DoScanVersions merges the tiers; already-cold versions must not
  // migrate again. They are strictly the oldest prefix of each merged
  // timeline, so dropping the first |cold| entries leaves hot only.
  std::map<AtomId, std::vector<AtomVersion>> cold_atoms;
  TCOB_RETURN_NOT_OK(ColdCollectAll(type, Interval::All(), &cold_atoms));
  std::map<AtomId, std::vector<AtomVersion>> out;
  for (auto& [id, versions] : by_atom) {
    std::sort(versions.begin(), versions.end(),
              [](const AtomVersion& a, const AtomVersion& b) {
                return a.valid.begin < b.valid.begin;
              });
    auto cold_it = cold_atoms.find(id);
    if (cold_it != cold_atoms.end()) {
      if (versions.size() < cold_it->second.size()) {
        return Status::Corruption("atom " + std::to_string(id) +
                                  " of type " + type.name +
                                  ": fewer versions than its cold tier");
      }
      versions.erase(versions.begin(),
                     versions.begin() +
                         static_cast<ptrdiff_t>(cold_it->second.size()));
    }
    size_t n = MigratablePrefix(versions, cutoff);
    if (n == 0) continue;
    versions.resize(n);
    out.emplace(id, std::move(versions));
  }
  return out;
}

Result<std::vector<AtomVersion>> TemporalAtomStore::ColdVersions(
    const AtomTypeDef& type, AtomId id, const Interval& window) const {
  if (!cold_) return std::vector<AtomVersion>{};
  return cold_->VersionsOf(type, id, window);
}

Result<bool> TemporalAtomStore::ColdMightHave(const AtomTypeDef& type,
                                              AtomId id) const {
  if (!cold_) return false;
  return cold_->MightHave(type, id);
}

Status TemporalAtomStore::ColdCollectAll(
    const AtomTypeDef& type, const Interval& window,
    std::map<AtomId, std::vector<AtomVersion>>* out) const {
  if (!cold_) return Status::OK();
  return cold_->CollectAll(type, window, out);
}

Status TemporalAtomStore::VerifyIntegrity(const AtomTypeDef& type) const {
  std::map<AtomId, std::vector<AtomVersion>> by_atom;
  TCOB_RETURN_NOT_OK(DoScanVersions(
      type, Interval::All(), [&](const AtomVersion& v) -> Result<bool> {
        by_atom[v.id].push_back(v);
        return true;
      }));
  if (cold_ != nullptr) {
    TCOB_RETURN_NOT_OK(cold_->VerifyIntegrity(type));
    // DoScanVersions above already merged the tiers, so cross-tier
    // overlap — e.g. a version that migrated but was never released
    // from the hot store — appears twice and TimelineOf below catches
    // it. What remains to check is the anchor rule: every atom with
    // cold history must keep at least one hot (or live) version.
    std::map<AtomId, std::vector<AtomVersion>> cold_atoms;
    TCOB_RETURN_NOT_OK(cold_->CollectAll(type, Interval::All(), &cold_atoms));
    for (auto& [id, versions] : cold_atoms) {
      auto it = by_atom.find(id);
      if (it == by_atom.end() || it->second.size() <= versions.size()) {
        return Status::Corruption("atom " + std::to_string(id) + " of type " +
                                  type.name +
                                  ": cold versions without a hot anchor");
      }
    }
  }
  for (auto& [id, versions] : by_atom) {
    for (const AtomVersion& v : versions) {
      if (v.valid.empty()) {
        return Status::Corruption(
            "atom " + std::to_string(id) + " of type " + type.name +
            ": empty version interval " + v.valid.ToString());
      }
    }
    Result<VersionTimeline> timeline = TimelineOf(versions);
    if (!timeline.ok()) {
      return Status::Corruption("atom " + std::to_string(id) + " of type " +
                                type.name + ": " +
                                timeline.status().message());
    }
  }
  return VerifyStructure(type);
}

Result<TimelineTail> TemporalAtomStore::TailAsOf(
    const AtomTypeDef& type, AtomId id, Timestamp t,
    std::optional<AtomVersion>* version) const {
  TimelineTail tail = TimelineTail::Atom(id);
  Result<std::optional<AtomVersion>> at = GetAsOf(type, id, t);
  if (!at.ok()) {
    if (at.status().IsNotFound()) return tail;
    return at.status();
  }
  tail.exists = true;
  if (at->has_value()) tail.Fold((*at)->valid, t);
  *version = std::move(at).value();
  return tail;
}

TimelineTail AtomTail(AtomId id, const AtomVersion* newest) {
  TimelineTail tail = TimelineTail::Atom(id);
  if (newest != nullptr) tail.After(newest->valid);
  return tail;
}

Result<VersionTimeline> TimelineOf(const std::vector<AtomVersion>& versions) {
  std::vector<size_t> order(versions.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return versions[a].valid.begin < versions[b].valid.begin;
  });
  VersionTimeline timeline;
  for (size_t idx : order) {
    TCOB_RETURN_NOT_OK(timeline.Append(versions[idx].valid, idx));
  }
  return timeline;
}

}  // namespace tcob
