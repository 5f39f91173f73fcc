#include "mad/link_store.h"

#include <algorithm>
#include <tuple>

#include "common/coding.h"

namespace tcob {

void LinkStore::EncodeLink(AtomId from, AtomId to, const Interval& valid,
                           std::string* dst) {
  PutVarint64(dst, from);
  PutVarint64(dst, to);
  PutVarsint64(dst, valid.begin);
  PutVarsint64(dst, valid.end);
}

Result<LinkStore::LinkState*> LinkStore::StateOf(LinkTypeId link) const {
  std::lock_guard<std::mutex> lock(links_mu_);
  auto it = links_.find(link);
  if (it != links_.end()) return &it->second;
  LinkState state;
  TCOB_ASSIGN_OR_RETURN(
      state.heap,
      HeapFile::Open(pool_, prefix_ + "_link_" + std::to_string(link)));
  // Rebuild the adjacency index from the heap.
  Status scan = state.heap->Scan(
      [&state](const Rid& rid, const Slice& rec) -> Result<bool> {
        Slice in(rec);
        uint64_t from, to;
        Interval valid;
        TCOB_RETURN_NOT_OK(GetVarint64(&in, &from));
        TCOB_RETURN_NOT_OK(GetVarint64(&in, &to));
        TCOB_RETURN_NOT_OK(GetVarsint64(&in, &valid.begin));
        TCOB_RETURN_NOT_OK(GetVarsint64(&in, &valid.end));
        state.fwd[from].push_back(LinkEntry{to, valid, rid});
        state.rev[to].push_back(LinkEntry{from, valid, rid});
        return true;
      });
  TCOB_RETURN_NOT_OK(scan);
  auto [pos, inserted] = links_.emplace(link, std::move(state));
  (void)inserted;
  return &pos->second;
}

Status LinkStore::Connect(const LinkTypeDef& link, AtomId from, AtomId to,
                          Timestamp at) {
  TCOB_ASSIGN_OR_RETURN(LinkState * state, StateOf(link.id));
  TCOB_RETURN_NOT_OK(TailIn(*state, from, to, kForever, nullptr).Open(at));
  Interval valid(at, kForever);
  std::string rec;
  EncodeLink(from, to, valid, &rec);
  TCOB_ASSIGN_OR_RETURN(Rid rid, state->heap->Insert(rec));
  state->fwd[from].push_back(LinkEntry{to, valid, rid});
  state->rev[to].push_back(LinkEntry{from, valid, rid});
  return Status::OK();
}

Status LinkStore::Disconnect(const LinkTypeDef& link, AtomId from, AtomId to,
                             Timestamp at) {
  TCOB_ASSIGN_OR_RETURN(LinkState * state, StateOf(link.id));
  LinkEntry* e = nullptr;
  TCOB_RETURN_NOT_OK(TailIn(*state, from, to, kForever, &e).Close(at));
  Interval closed(e->valid.begin, at);
  std::string rec;
  EncodeLink(from, to, closed, &rec);
  TCOB_ASSIGN_OR_RETURN(Rid new_rid, state->heap->Update(e->rid, rec));
  // Mirror in the reverse index.
  for (LinkEntry& r : state->rev[to]) {
    if (r.other == from && r.rid == e->rid) {
      r.valid = closed;
      r.rid = new_rid;
      break;
    }
  }
  e->valid = closed;
  e->rid = new_rid;
  return Status::OK();
}

Result<TimelineTail> LinkStore::PairTail(const LinkTypeDef& link,
                                         AtomId from, AtomId to,
                                         Timestamp as_of) const {
  TCOB_ASSIGN_OR_RETURN(LinkState * state, StateOf(link.id));
  return TailIn(*state, from, to, as_of, nullptr);
}

TimelineTail LinkStore::TailIn(LinkState& state, AtomId from, AtomId to,
                               Timestamp as_of, LinkEntry** open_entry) {
  TimelineTail tail = TimelineTail::Link(from, to);
  auto it = state.fwd.find(from);
  if (it == state.fwd.end()) return tail;
  for (LinkEntry& e : it->second) {
    if (e.other != to) continue;
    tail.Fold(e.valid, as_of);
    if (open_entry != nullptr && e.valid.open_ended()) *open_entry = &e;
  }
  return tail;
}

Result<std::vector<AtomId>> LinkStore::NeighborsAsOf(const LinkTypeDef& link,
                                                     AtomId atom, bool forward,
                                                     Timestamp t) const {
  TCOB_ASSIGN_OR_RETURN(LinkState * state, StateOf(link.id));
  const auto& index = forward ? state->fwd : state->rev;
  std::vector<AtomId> out;
  auto it = index.find(atom);
  if (it == index.end()) return out;
  for (const LinkEntry& e : it->second) {
    if (e.valid.Contains(t)) out.push_back(e.other);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::pair<AtomId, Interval>>> LinkStore::NeighborsIn(
    const LinkTypeDef& link, AtomId atom, bool forward,
    const Interval& window) const {
  TCOB_ASSIGN_OR_RETURN(LinkState * state, StateOf(link.id));
  const auto& index = forward ? state->fwd : state->rev;
  std::vector<std::pair<AtomId, Interval>> out;
  auto it = index.find(atom);
  if (it == index.end()) return out;
  for (const LinkEntry& e : it->second) {
    if (e.valid.Overlaps(window)) out.emplace_back(e.other, e.valid);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  return out;
}

Status LinkStore::ForEachLink(
    const LinkTypeDef& link,
    const std::function<Result<bool>(AtomId, AtomId, const Interval&)>& fn)
    const {
  TCOB_ASSIGN_OR_RETURN(LinkState * state, StateOf(link.id));
  for (const auto& [from, entries] : state->fwd) {
    for (const LinkEntry& e : entries) {
      TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(from, e.other, e.valid));
      if (!keep_going) return Status::OK();
    }
  }
  return Status::OK();
}

Result<uint64_t> LinkStore::VacuumBefore(const LinkTypeDef& link,
                                         Timestamp cutoff) {
  TCOB_ASSIGN_OR_RETURN(LinkState * state, StateOf(link.id));
  uint64_t removed = 0;
  // Delete the heap records of closed-before-cutoff intervals, then
  // prune both in-memory adjacency maps.
  for (auto& [from, entries] : state->fwd) {
    (void)from;
    for (const LinkEntry& e : entries) {
      if (e.valid.end <= cutoff) {
        TCOB_RETURN_NOT_OK(state->heap->Delete(e.rid));
        ++removed;
      }
    }
  }
  auto prune = [cutoff](std::unordered_map<AtomId, std::vector<LinkEntry>>*
                            index) {
    for (auto it = index->begin(); it != index->end();) {
      auto& entries = it->second;
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [cutoff](const LinkEntry& e) {
                                     return e.valid.end <= cutoff;
                                   }),
                    entries.end());
      if (entries.empty()) {
        it = index->erase(it);
      } else {
        ++it;
      }
    }
  };
  prune(&state->fwd);
  prune(&state->rev);
  return removed;
}

Result<uint64_t> LinkStore::TotalPages() const {
  uint64_t pages = 0;
  for (const auto& [id, state] : links_) {
    (void)id;
    TCOB_ASSIGN_OR_RETURN(HeapFileStats stats, state.heap->Stats());
    pages += stats.total_pages;
  }
  return pages;
}

Status LinkStore::VerifyIntegrity(const LinkTypeDef& link) const {
  TCOB_ASSIGN_OR_RETURN(LinkState* state, StateOf(link.id));
  // (from, to, begin, end) -> fwd occurrences minus rev occurrences; the
  // two adjacency directions must describe the same connection multiset.
  std::map<std::tuple<AtomId, AtomId, Timestamp, Timestamp>, int64_t> balance;
  auto check_side = [&](const std::unordered_map<AtomId,
                                                 std::vector<LinkEntry>>& side,
                        bool forward) -> Status {
    for (const auto& [atom, entries] : side) {
      for (const LinkEntry& e : entries) {
        const AtomId from = forward ? atom : e.other;
        const AtomId to = forward ? e.other : atom;
        if (e.valid.empty()) {
          return Status::Corruption(
              "link type " + link.name + ": empty interval on connection " +
              std::to_string(from) + " -> " + std::to_string(to));
        }
        Result<std::string> rec = state->heap->Get(e.rid);
        if (!rec.ok()) {
          return Status::Corruption(
              "link type " + link.name + ": connection " +
              std::to_string(from) + " -> " + std::to_string(to) +
              " references unreadable record: " + rec.status().message());
        }
        balance[{from, to, e.valid.begin, e.valid.end}] += forward ? 1 : -1;
      }
    }
    return Status::OK();
  };
  TCOB_RETURN_NOT_OK(check_side(state->fwd, true));
  TCOB_RETURN_NOT_OK(check_side(state->rev, false));
  for (const auto& [key, count] : balance) {
    if (count != 0) {
      return Status::Corruption(
          "link type " + link.name + ": connection " +
          std::to_string(std::get<0>(key)) + " -> " +
          std::to_string(std::get<1>(key)) +
          " missing from the " + (count > 0 ? "reverse" : "forward") +
          " adjacency index");
    }
  }
  return Status::OK();
}

}  // namespace tcob
