#include "mad/materializer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>

#include "common/bounded_queue.h"
#include "common/metrics.h"

namespace tcob {

namespace {

/// A root source over an in-memory id list, in the list's order.
template <typename Ids>
auto RootsIn(const Ids& ids) {
  return [&ids](const std::function<Result<bool>(AtomId)>& visit) -> Status {
    for (AtomId id : ids) {
      TCOB_ASSIGN_OR_RETURN(bool more, visit(id));
      if (!more) break;
    }
    return Status::OK();
  };
}

}  // namespace

/// Fan-out protocol: workers run ahead of the consumer only as far as
/// their bounded channel allows. A worker stops its own partition at its
/// first real error (a deterministic position), the other workers
/// complete their partitions in full, and the first error in root order
/// is returned — the report the inline loop gives, with run-to-run
/// deterministic work counters. A `deliver` that returns false aborts
/// the workers and drains their in-flight tail.
template <typename R>
Status Materializer::ForEachRoot(
    const RootSource& roots, const Interval& window, bool skip_not_found,
    const std::function<Result<R>(AtomId, VersionCache*)>& materialize,
    const std::function<Result<bool>(R)>& deliver) const {
  last_worker_us_.clear();
  // Fanning out needs the roots up front (a scan cannot be partitioned);
  // without a pool to fan out to, the loop streams from the source.
  const bool pooled = pool_ != nullptr && pool_->workers() > 1;
  std::vector<AtomId> list;
  if (pooled) {
    TCOB_RETURN_NOT_OK(roots([&](AtomId root) -> Result<bool> {
      list.push_back(root);
      if ((list.size() & 63) == 0) TCOB_RETURN_NOT_OK(CheckContext());
      return true;
    }));
  }
  const size_t workers =
      pooled && list.size() > 1 ? std::min(pool_->workers(), list.size()) : 1;

  // One private cache per worker: caches are not thread-safe, and a
  // shared one would serialize the very lookups being spread out.
  // `dropped` keeps the stats of caches discarded under budget pressure.
  std::vector<VersionCache> caches;
  caches.reserve(workers);
  for (size_t w = 0; w < workers; ++w) caches.push_back(NewCache(window));
  std::vector<VersionCacheStats> dropped(workers);
  auto build = [&](AtomId root, size_t w) -> Result<R> {
    TCOB_RETURN_NOT_OK(CheckContext());
    if (lease_ != nullptr && lease_->TakePressure()) {
      // Only between roots: a build holds raw pins into its cache.
      dropped[w] += caches[w].stats();
      caches[w] = NewCache(window);
    }
    return materialize(root, &caches[w]);
  };

  // The consumer side, on this thread and in root order; false once the
  // query wants no more results.
  Status first_error = Status::OK();
  bool stopped = false;
  auto accept = [&](Result<R> r) -> bool {
    if (!first_error.ok() || stopped) return false;
    if (!r.ok()) {
      if (skip_not_found && r.status().IsNotFound()) return true;
      first_error = r.status();
      return false;
    }
    Result<bool> keep_going = deliver(std::move(r).value());
    if (!keep_going.ok()) {
      first_error = keep_going.status();
      return false;
    }
    stopped = !keep_going.value();
    return !stopped;
  };

  Status out = Status::OK();
  if (workers == 1) {
    auto visit = [&](AtomId root) -> Result<bool> {
      return accept(build(root, 0));
    };
    out = pooled ? RootsIn(list)(visit) : roots(visit);
  } else {
    constexpr size_t kChannelCapacity = 16;
    std::vector<std::unique_ptr<BoundedQueue<Result<R>>>> channels;
    channels.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      channels.push_back(
          std::make_unique<BoundedQueue<Result<R>>>(kChannelCapacity));
    }
    const QueryTag tag = ThreadQueryTag();
    std::atomic<bool> abort{false};
    last_worker_us_.assign(workers, 0.0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(workers);
    const size_t n = list.size();
    for (size_t w = 0; w < workers; ++w) {
      tasks.push_back([&, w, begin = n * w / workers,
                       end = n * (w + 1) / workers] {
        // Pool threads carry no query tag of their own: adopt the
        // submitting thread's for the batch so everything the worker
        // touches below (version cache, buffer pool, cold tier) counts
        // for its query.
        TraceQueryScope qscope(tag);
        TraceSpanScope span(trace_rec_, TraceSpanId::kWorker,
                            &last_worker_us_[w]);
        for (size_t i = begin; i < end; ++i) {
          if (abort.load(std::memory_order_acquire)) break;
          Result<R> r = build(list[i], w);
          const bool hard_error =
              !r.ok() && !(skip_not_found && r.status().IsNotFound());
          if (!channels[w]->Push(std::move(r))) break;  // consumer left
          if (hard_error) break;  // later roots cannot be the first error
        }
        channels[w]->CloseProducer();
      });
    }
    ThreadPool::BatchHandle batch = pool_->Submit(std::move(tasks));
    for (size_t w = 0; w < workers; ++w) {
      while (std::optional<Result<R>> item = channels[w]->Pop()) {
        accept(std::move(*item));  // drains only, once done
        if (stopped && !abort.exchange(true, std::memory_order_acq_rel)) {
          for (auto& channel : channels) channel->CloseConsumer();
        }
      }
    }
    pool_->Wait(batch);
  }
  for (const VersionCache& cache : caches) cache_stats_ += cache.stats();
  for (const VersionCacheStats& s : dropped) cache_stats_ += s;
  return first_error.ok() ? out : first_error;
}

Result<const AtomTypeDef*> Materializer::AtomTypeOf(TypeId id) const {
  return catalog_->GetAtomType(id);
}

Result<Molecule> Materializer::MaterializeAsOf(const MoleculeTypeDef& type,
                                               AtomId root,
                                               Timestamp t) const {
  return MaterializeAsOfImpl(type, root, t, nullptr);
}

Result<Molecule> Materializer::MaterializeAsOf(const MoleculeTypeDef& type,
                                               AtomId root, Timestamp t,
                                               VersionCache* cache) const {
  return MaterializeAsOfImpl(type, root, t, cache);
}

Result<Molecule> Materializer::MaterializeAsOfImpl(const MoleculeTypeDef& type,
                                                   AtomId root, Timestamp t,
                                                   VersionCache* cache) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root_type,
                        AtomTypeOf(type.root_type));
  std::optional<AtomVersion> root_version;
  if (cache != nullptr) {
    TCOB_ASSIGN_OR_RETURN(const AtomVersion* v,
                          cache->AsOf(*root_type, root, t));
    if (v != nullptr) root_version = *v;
  } else {
    TCOB_ASSIGN_OR_RETURN(root_version, store_->GetAsOf(*root_type, root, t));
  }
  if (!root_version.has_value()) {
    return Status::NotFound("root atom " + std::to_string(root) +
                            " not valid at " + TimestampToString(t));
  }

  Molecule mol;
  mol.type = type.id;
  mol.root = root;
  mol.atoms[root] = std::move(*root_version);
  std::map<AtomId, TypeId> atom_types = {{root, type.root_type}};

  // Fixpoint over the edge list: keep sweeping until no edge adds atoms
  // or edges (cyclic type graphs converge because both sets only grow).
  std::set<std::tuple<LinkTypeId, AtomId, AtomId>> edge_set;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const MoleculeEdge& edge : type.edges) {
      TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                            catalog_->GetLinkType(edge.link));
      TypeId source_type = edge.forward ? link->from_type : link->to_type;
      TypeId target_type = edge.forward ? link->to_type : link->from_type;
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* target_def,
                            AtomTypeOf(target_type));
      // Snapshot the current source atoms (the map mutates inside).
      std::vector<AtomId> sources;
      for (const auto& [id, tid] : atom_types) {
        if (tid == source_type) sources.push_back(id);
      }
      for (AtomId source : sources) {
        std::vector<AtomId> partners;
        if (cache != nullptr) {
          TCOB_ASSIGN_OR_RETURN(
              partners, cache->NeighborsAsOf(*link, source, edge.forward, t));
        } else {
          TCOB_ASSIGN_OR_RETURN(
              partners, links_->NeighborsAsOf(*link, source, edge.forward, t));
        }
        for (AtomId partner : partners) {
          AtomId from = edge.forward ? source : partner;
          AtomId to = edge.forward ? partner : source;
          auto key = std::make_tuple(link->id, from, to);
          if (mol.atoms.count(partner) == 0) {
            std::optional<AtomVersion> v;
            if (cache != nullptr) {
              TCOB_ASSIGN_OR_RETURN(const AtomVersion* pv,
                                    cache->AsOf(*target_def, partner, t));
              if (pv != nullptr) v = *pv;
            } else {
              TCOB_ASSIGN_OR_RETURN(v,
                                    store_->GetAsOf(*target_def, partner, t));
            }
            if (!v.has_value()) continue;  // dangling link; skip partner
            mol.atoms[partner] = std::move(*v);
            atom_types[partner] = target_type;
            changed = true;
          }
          if (edge_set.insert(key).second) {
            mol.edges.push_back(MoleculeEdgeInstance{link->id, from, to});
            changed = true;
          }
        }
      }
    }
  }
  std::sort(mol.edges.begin(), mol.edges.end());
  return mol;
}

Status Materializer::AllMoleculesAsOf(
    const MoleculeTypeDef& type, Timestamp t,
    const std::function<Result<bool>(Molecule)>& fn) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root_type,
                        AtomTypeOf(type.root_type));
  // A scanned root is valid at t by construction, so NotFound is a real
  // error here.
  return ForEachRoot<Molecule>(
      [&](const RootVisitor& visit) {
        return store_->ScanAsOf(
            *root_type, t,
            [&](const AtomVersion& root) { return visit(root.id); });
      },
      Interval::At(t), /*skip_not_found=*/false,
      [&](AtomId root, VersionCache* cache) {
        return MaterializeAsOfImpl(type, root, t, cache);
      },
      fn);
}

Status Materializer::MoleculesAsOf(
    const MoleculeTypeDef& type, const std::vector<AtomId>& roots,
    Timestamp t, const std::function<Result<bool>(Molecule)>& fn) const {
  // Candidate lists may over-approximate (index false positives).
  return ForEachRoot<Molecule>(
      RootsIn(roots), Interval::At(t), /*skip_not_found=*/true,
      [&](AtomId root, VersionCache* cache) {
        return MaterializeAsOfImpl(type, root, t, cache);
      },
      fn);
}

Result<Materializer::ReachableSet> Materializer::DiscoverReachable(
    const MoleculeTypeDef& type, AtomId root, const Interval& window,
    VersionCache* cache) const {
  ReachableSet reach;
  reach.atoms[root] = type.root_type;
  std::set<std::tuple<LinkTypeId, AtomId, AtomId, Timestamp>> seen_links;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const MoleculeEdge& edge : type.edges) {
      TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                            catalog_->GetLinkType(edge.link));
      TypeId source_type = edge.forward ? link->from_type : link->to_type;
      TypeId target_type = edge.forward ? link->to_type : link->from_type;
      std::vector<AtomId> sources;
      for (const auto& [id, tid] : reach.atoms) {
        if (tid == source_type) sources.push_back(id);
      }
      for (AtomId source : sources) {
        std::vector<std::pair<AtomId, Interval>> direct;
        const std::vector<std::pair<AtomId, Interval>>* partners;
        if (cache != nullptr) {
          TCOB_ASSIGN_OR_RETURN(partners,
                                cache->Neighbors(*link, source, edge.forward));
        } else {
          TCOB_ASSIGN_OR_RETURN(
              direct, links_->NeighborsIn(*link, source, edge.forward,
                                          window));
          partners = &direct;
        }
        for (const auto& [partner, valid] : *partners) {
          // The cache may be pinned over a wider window; stay exact.
          if (!valid.Overlaps(window)) continue;
          AtomId from = edge.forward ? source : partner;
          AtomId to = edge.forward ? partner : source;
          auto key = std::make_tuple(link->id, from, to, valid.begin);
          if (seen_links.insert(key).second) {
            reach.links.emplace_back(link->id, from, to, valid);
            changed = true;
          }
          if (reach.atoms.count(partner) == 0) {
            reach.atoms[partner] = target_type;
            changed = true;
          }
        }
      }
    }
  }
  return reach;
}

Result<MoleculeHistory> Materializer::History(const MoleculeTypeDef& type,
                                              AtomId root,
                                              const Interval& window) const {
  VersionCache cache = NewCache(window);
  Result<MoleculeHistory> out = HistorySweep(type, root, window, &cache);
  cache_stats_ += cache.stats();
  return out;
}

Result<MoleculeHistory> Materializer::History(const MoleculeTypeDef& type,
                                              AtomId root,
                                              const Interval& window,
                                              VersionCache* cache) const {
  return HistorySweep(type, root, window, cache);
}

Result<MoleculeHistory> Materializer::HistorySweep(
    const MoleculeTypeDef& type, AtomId root, const Interval& window,
    VersionCache* cache) const {
  if (window.empty()) {
    return Status::InvalidArgument("empty history window");
  }
  TCOB_ASSIGN_OR_RETURN(ReachableSet reach,
                        DiscoverReachable(type, root, window, cache));

  // Pin every reachable atom exactly once. Boundary derivation and the
  // whole sweep below run against these pinned version lists — no store
  // access happens past this point.
  std::map<AtomId, const VersionCache::AtomEntry*> pinned;
  for (const auto& [atom_id, type_id] : reach.atoms) {
    TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* atom_type, AtomTypeOf(type_id));
    TCOB_ASSIGN_OR_RETURN(const VersionCache::AtomEntry* entry,
                          cache->Pin(*atom_type, atom_id));
    pinned[atom_id] = entry;
  }

  // Change points inside the window, each classified: a version swap
  // (one version ending exactly where the next begins) keeps liveness
  // and connectivity intact, so the sweep patches the previous state in
  // place; births, deaths and link boundaries are structural and re-run
  // the in-memory fixpoint.
  struct Delta {
    std::vector<AtomId> swaps;
    bool structural = false;
  };
  std::map<Timestamp, Delta> deltas;
  auto mark_structural = [&](Timestamp t) {
    if (t > window.begin && t < window.end) deltas[t].structural = true;
  };
  for (const auto& [atom_id, entry] : pinned) {
    if (!entry->found) continue;
    const std::vector<AtomVersion>& versions = entry->versions;
    for (size_t i = 0; i < versions.size(); ++i) {
      const Interval& valid = versions[i].valid;
      bool swap_in = i > 0 && versions[i - 1].valid.end == valid.begin;
      if (valid.begin > window.begin && valid.begin < window.end) {
        if (swap_in) {
          deltas[valid.begin].swaps.push_back(atom_id);
        } else {
          mark_structural(valid.begin);  // (re)birth
        }
      }
      bool swap_out =
          i + 1 < versions.size() && versions[i + 1].valid.begin == valid.end;
      if (!valid.open_ended() && !swap_out) {
        mark_structural(valid.end);  // death
      }
    }
  }
  for (const auto& [link_id, from, to, valid] : reach.links) {
    (void)link_id;
    (void)from;
    (void)to;
    mark_structural(valid.begin);
    if (!valid.open_ended()) mark_structural(valid.end);
  }

  // Elementary intervals between consecutive boundaries.
  std::vector<Timestamp> points;
  points.reserve(deltas.size() + 2);
  points.push_back(window.begin);
  for (const auto& [t, delta] : deltas) {
    (void)delta;
    points.push_back(t);
  }
  points.push_back(window.end);

  // Adjacency over the discovered link instances, indexed per side so
  // the fixpoint below never touches the link store again.
  struct AdjInstance {
    AtomId from;
    AtomId to;
    Interval valid;
  };
  std::map<std::pair<LinkTypeId, AtomId>, std::vector<AdjInstance>> fwd, rev;
  for (const auto& [link_id, from, to, valid] : reach.links) {
    fwd[{link_id, from}].push_back({from, to, valid});
    rev[{link_id, to}].push_back({from, to, valid});
  }

  // In-memory fixpoint: same traversal as MaterializeAsOf, but against
  // the pinned timelines and the adjacency index. nullopt = gap (root —
  // or a linked partner record — absent, mirroring the store path).
  auto state_at = [&](Timestamp t) -> Result<std::optional<Molecule>> {
    const VersionCache::AtomEntry* root_entry = pinned.at(root);
    std::optional<uint64_t> root_idx;
    if (root_entry->found) root_idx = root_entry->timeline.AsOf(t);
    if (!root_idx.has_value()) return std::optional<Molecule>();
    Molecule mol;
    mol.type = type.id;
    mol.root = root;
    mol.atoms[root] = root_entry->versions[*root_idx];
    std::map<AtomId, TypeId> atom_types = {{root, type.root_type}};
    std::set<std::tuple<LinkTypeId, AtomId, AtomId>> edge_set;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const MoleculeEdge& edge : type.edges) {
        TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                              catalog_->GetLinkType(edge.link));
        TypeId source_type = edge.forward ? link->from_type : link->to_type;
        TypeId target_type = edge.forward ? link->to_type : link->from_type;
        std::vector<AtomId> sources;
        for (const auto& [id, tid] : atom_types) {
          if (tid == source_type) sources.push_back(id);
        }
        const auto& adj = edge.forward ? fwd : rev;
        for (AtomId source : sources) {
          auto adj_it = adj.find({link->id, source});
          if (adj_it == adj.end()) continue;
          for (const AdjInstance& inst : adj_it->second) {
            if (!inst.valid.Contains(t)) continue;
            AtomId partner = edge.forward ? inst.to : inst.from;
            auto key = std::make_tuple(link->id, inst.from, inst.to);
            if (mol.atoms.count(partner) == 0) {
              const VersionCache::AtomEntry* p = pinned.at(partner);
              if (!p->found) {
                // A link to a never-inserted atom surfaces as NotFound
                // on the store path, which History() renders as a gap.
                return std::optional<Molecule>();
              }
              std::optional<uint64_t> idx = p->timeline.AsOf(t);
              if (!idx.has_value()) continue;  // dangling link; skip partner
              mol.atoms[partner] = p->versions[*idx];
              atom_types[partner] = target_type;
              changed = true;
            }
            if (edge_set.insert(key).second) {
              mol.edges.push_back(
                  MoleculeEdgeInstance{link->id, inst.from, inst.to});
              changed = true;
            }
          }
        }
      }
    }
    std::sort(mol.edges.begin(), mol.edges.end());
    return std::optional<Molecule>(std::move(mol));
  };

  MoleculeHistory history;
  history.root = root;
  std::optional<Molecule> prev;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    Interval piece(points[i], points[i + 1]);
    std::optional<Molecule> cur;
    const Delta* delta =
        i == 0 ? nullptr : &deltas.find(points[i])->second;
    if (delta != nullptr && !delta->structural && prev.has_value()) {
      // Version-swap-only boundary: patch the changed members in place.
      cur = prev;
      for (AtomId atom_id : delta->swaps) {
        auto member = cur->atoms.find(atom_id);
        if (member == cur->atoms.end()) continue;  // not a member here
        const VersionCache::AtomEntry* entry = pinned.at(atom_id);
        std::optional<uint64_t> idx = entry->timeline.AsOf(piece.begin);
        // A swap guarantees a successor version starting at this instant.
        member->second = entry->versions[*idx];
      }
    } else {
      TCOB_ASSIGN_OR_RETURN(cur, state_at(piece.begin));
    }
    if (cur.has_value()) {
      if (!history.states.empty() &&
          history.states.back().valid.Meets(piece) &&
          history.states.back().molecule.SameState(*cur)) {
        history.states.back().valid.end = piece.end;  // coalesce
      } else {
        history.states.push_back(MoleculeState{piece, *cur});
      }
    }
    prev = std::move(cur);
  }
  return history;
}

Result<MoleculeHistory> Materializer::NaiveHistory(
    const MoleculeTypeDef& type, AtomId root, const Interval& window) const {
  if (window.empty()) {
    return Status::InvalidArgument("empty history window");
  }
  TCOB_ASSIGN_OR_RETURN(ReachableSet reach,
                        DiscoverReachable(type, root, window, nullptr));

  // Change points: version boundaries of every reachable atom plus link
  // validity boundaries, clipped to the window. Note the re-fetch: the
  // sweep path derives these from the cached version lists instead.
  std::set<Timestamp> boundaries = {window.begin};
  for (const auto& [atom_id, type_id] : reach.atoms) {
    TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* atom_type, AtomTypeOf(type_id));
    Result<std::vector<AtomVersion>> versions =
        store_->GetVersions(*atom_type, atom_id, window);
    if (!versions.ok()) {
      if (versions.status().IsNotFound()) continue;
      return versions.status();
    }
    for (const AtomVersion& v : versions.value()) {
      if (v.valid.begin > window.begin && v.valid.begin < window.end) {
        boundaries.insert(v.valid.begin);
      }
      if (!v.valid.open_ended() && v.valid.end > window.begin &&
          v.valid.end < window.end) {
        boundaries.insert(v.valid.end);
      }
    }
  }
  for (const auto& [link_id, from, to, valid] : reach.links) {
    (void)link_id;
    (void)from;
    (void)to;
    if (valid.begin > window.begin && valid.begin < window.end) {
      boundaries.insert(valid.begin);
    }
    if (!valid.open_ended() && valid.end > window.begin &&
        valid.end < window.end) {
      boundaries.insert(valid.end);
    }
  }

  // Elementary intervals between consecutive boundaries.
  std::vector<Timestamp> points(boundaries.begin(), boundaries.end());
  points.push_back(window.end);

  MoleculeHistory history;
  history.root = root;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    Interval piece(points[i], points[i + 1]);
    Result<Molecule> mol = MaterializeAsOfImpl(type, root, piece.begin,
                                               nullptr);
    if (!mol.ok()) {
      if (mol.status().IsNotFound()) continue;  // root dead: gap
      return mol.status();
    }
    if (!history.states.empty() &&
        history.states.back().valid.Meets(piece) &&
        history.states.back().molecule.SameState(mol.value())) {
      history.states.back().valid.end = piece.end;  // coalesce
    } else {
      history.states.push_back(MoleculeState{piece, std::move(mol).value()});
    }
  }
  return history;
}

Status Materializer::AllHistories(
    const MoleculeTypeDef& type, const Interval& window,
    const std::function<Result<bool>(MoleculeHistory)>& fn) const {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root_type,
                        AtomTypeOf(type.root_type));
  std::set<AtomId> roots;
  size_t scanned = 0;
  TCOB_RETURN_NOT_OK(store_->ScanVersions(
      *root_type, window, [&](const AtomVersion& v) -> Result<bool> {
        roots.insert(v.id);
        if ((++scanned & 63) == 0) TCOB_RETURN_NOT_OK(CheckContext());
        return true;
      }));
  return ForEachRoot<MoleculeHistory>(
      RootsIn(roots), window, /*skip_not_found=*/false,
      [&](AtomId root, VersionCache* cache) {
        return HistorySweep(type, root, window, cache);
      },
      [&](MoleculeHistory h) -> Result<bool> {
        // A root alive in the window but never materializable (its
        // states all gaps) is silent.
        if (h.states.empty()) return true;
        return fn(std::move(h));
      });
}

}  // namespace tcob
