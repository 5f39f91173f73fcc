#ifndef TCOB_MAD_MATERIALIZER_H_
#define TCOB_MAD_MATERIALIZER_H_

#include <functional>
#include <vector>

#include "catalog/catalog.h"
#include "common/cancellation.h"
#include "common/resource_budget.h"
#include "common/thread_pool.h"
#include "mad/link_store.h"
#include "mad/molecule.h"
#include "mad/version_cache.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// Builds molecules out of the atom and link networks — the dynamic
/// complex-object construction at the heart of the model.
///
/// Materialization is a breadth-first fixpoint over the molecule type's
/// edge list: starting from the root atom, every edge is traversed from
/// every already-collected atom of its source type, adding the partners
/// that are valid at the query instant. Cyclic type graphs terminate
/// because the atom set grows monotonically.
///
/// History and time-slice operators run against a query-scoped
/// VersionCache: each reachable atom's decoded version list is pinned
/// once, and History() sweeps the precomputed timelines instead of
/// re-materializing from the store at every change point (which costs
/// O(change points x atoms) store accesses — see NaiveHistory, kept as
/// the reference implementation).
///
/// Every all-roots operator runs through one per-root loop
/// (ForEachRoot). With a multi-worker ThreadPool and at least two roots,
/// the roots are collected and partitioned into contiguous batches;
/// each worker builds its batch against a private query-scoped cache
/// (read-only store access is thread-safe) and streams its results
/// through a bounded channel, and the consumer splices the channels in
/// root order while the workers keep producing (buffered results stay
/// bounded by workers x channel capacity, independent of the root
/// count). Otherwise the same loop runs inline on one cache, streaming
/// straight from the root source. Output and error behavior are the
/// same either way.
class Materializer {
 public:
  Materializer(const Catalog* catalog, const TemporalAtomStore* store,
               const LinkStore* links, ThreadPool* pool = nullptr)
      : catalog_(catalog), store_(store), links_(links), pool_(pool) {}

  /// Attaches the query's cancellation token and memory lease (either
  /// may be null). A Materializer is constructed per statement, so these
  /// are query-scoped: every operator checks `ctx` at its batch
  /// boundaries (per root in the all-roots loop, every few dozen
  /// root-scan callbacks — plus per cache miss inside VersionCache,
  /// which covers cold-segment decodes), and every cache it creates
  /// charges its pins to `lease`. When the lease reports budget
  /// pressure, the all-roots operators drop their pinned cache between
  /// roots and continue with a fresh one.
  void set_governance(const QueryContext* ctx, BudgetLease* lease) {
    ctx_ = ctx;
    lease_ = lease;
  }

  /// Attaches the flight recorder: fan-out workers run under a worker
  /// span with the query's ambient id, so their deep emissions (pool
  /// misses, cold decodes) attribute to the query. Null records nothing.
  void set_trace_recorder(TraceRecorder* rec) { trace_rec_ = rec; }

  /// A cache bound to this materializer's stores (and its governance
  /// scope), for callers that span one query over several operator
  /// invocations (e.g. the executor's per-root index path).
  VersionCache NewCache(const Interval& window = Interval::All()) const {
    VersionCache cache(store_, links_, window);
    cache.set_governance(ctx_, lease_);
    return cache;
  }

  /// The molecule rooted at `root` as of instant `t`. NotFound if the
  /// root atom does not exist or is not valid at `t`.
  Result<Molecule> MaterializeAsOf(const MoleculeTypeDef& type, AtomId root,
                                   Timestamp t) const;

  /// Cache-routed variant: atom and link probes go through `cache`
  /// (whose window must contain `t`), so molecules sharing sub-objects
  /// within one query decode each atom's versions only once.
  Result<Molecule> MaterializeAsOf(const MoleculeTypeDef& type, AtomId root,
                                   Timestamp t, VersionCache* cache) const;

  /// Streams every molecule of `type` valid at `t` (one per live root).
  /// All molecules share one query-scoped cache, so sub-objects
  /// referenced by many roots are fetched once.
  Status AllMoleculesAsOf(
      const MoleculeTypeDef& type, Timestamp t,
      const std::function<Result<bool>(Molecule)>& fn) const;

  /// Streams the molecules of the given roots (in order) as of `t`,
  /// skipping roots not valid at `t`. The executor's index path: the
  /// candidate list comes from a secondary index, which is
  /// version-grained and may over-approximate.
  Status MoleculesAsOf(const MoleculeTypeDef& type,
                       const std::vector<AtomId>& roots, Timestamp t,
                       const std::function<Result<bool>(Molecule)>& fn) const;

  /// The piecewise-constant evolution of the molecule rooted at `root`
  /// across `window`: change points are the union of the version
  /// boundaries of every atom ever reachable in the window and of every
  /// link among them. Adjacent identical states are coalesced; intervals
  /// where the root is dead appear as gaps.
  ///
  /// Incremental processing: every reachable atom is pinned into a
  /// query-scoped cache once, then the boundaries are swept over the
  /// precomputed timelines — version-only change points patch the
  /// previous state in place, structural ones (link or liveness changes)
  /// re-run the in-memory fixpoint. No store access happens after the
  /// pinning phase.
  Result<MoleculeHistory> History(const MoleculeTypeDef& type, AtomId root,
                                  const Interval& window) const;

  /// Same, against a caller-provided cache (window must contain
  /// `window`); lets one statement share pinned atoms across molecules.
  Result<MoleculeHistory> History(const MoleculeTypeDef& type, AtomId root,
                                  const Interval& window,
                                  VersionCache* cache) const;

  /// Reference implementation of History(): re-materializes the molecule
  /// from the store at every elementary interval. Kept for differential
  /// testing and as the baseline the benchmarks compare against.
  Result<MoleculeHistory> NaiveHistory(const MoleculeTypeDef& type,
                                       AtomId root,
                                       const Interval& window) const;

  /// Streams the histories of all molecules of `type` whose root exists
  /// at some point in `window`. All histories share one cache.
  Status AllHistories(
      const MoleculeTypeDef& type, const Interval& window,
      const std::function<Result<bool>(MoleculeHistory)>& fn) const;

  /// Cumulative stats of the caches this materializer created internally
  /// (one per History / AllMoleculesAsOf / AllHistories call). Caches
  /// passed in by callers are accounted by the caller (or merged in via
  /// AccumulateCacheStats).
  const VersionCacheStats& cache_stats() const { return cache_stats_; }
  void ResetCacheStats() const { cache_stats_ = VersionCacheStats(); }
  void AccumulateCacheStats(const VersionCacheStats& s) const {
    cache_stats_ += s;
  }

  /// Wall time (microseconds) each worker spent in the most recent
  /// all-roots operator; empty when it ran inline.
  /// EXPLAIN ANALYZE reports these as the per-worker span breakdown.
  const std::vector<double>& last_worker_micros() const {
    return last_worker_us_;
  }

 private:
  /// Atom-type lookup for every type reachable by `type`'s edges.
  Result<const AtomTypeDef*> AtomTypeOf(TypeId id) const;

  /// Fixpoint discovery of all atoms ever reachable from `root` within
  /// `window`, together with the link instances among them.
  struct ReachableSet {
    // atom id -> its type
    std::map<AtomId, TypeId> atoms;
    // every link instance (with validity) encountered during discovery
    std::vector<std::tuple<LinkTypeId, AtomId, AtomId, Interval>> links;
  };
  /// `cache` may be null (direct link-store access).
  Result<ReachableSet> DiscoverReachable(const MoleculeTypeDef& type,
                                         AtomId root, const Interval& window,
                                         VersionCache* cache) const;

  /// Shared fixpoint of both MaterializeAsOf overloads; `cache` may be
  /// null (direct store access).
  Result<Molecule> MaterializeAsOfImpl(const MoleculeTypeDef& type,
                                       AtomId root, Timestamp t,
                                       VersionCache* cache) const;

  /// The incremental sweep behind both History overloads.
  Result<MoleculeHistory> HistorySweep(const MoleculeTypeDef& type,
                                       AtomId root, const Interval& window,
                                       VersionCache* cache) const;

  /// Enumerates root ids in output order, calling the visitor on each
  /// until it returns false or an error.
  using RootVisitor = std::function<Result<bool>(AtomId)>;
  using RootSource = std::function<Status(const RootVisitor&)>;

  /// The per-root loop behind every all-roots operator.
  /// `materialize(root, cache)` builds one root against a query-scoped
  /// cache over `window`; `deliver` consumes the results on the calling
  /// thread, in root order, until it returns false. Before each root the
  /// query context is checked and, under budget pressure, the cache is
  /// dropped for a fresh one. NotFound roots are skipped when
  /// `skip_not_found` and are errors otherwise; the first error in root
  /// order is returned. Fans out across the pool when it has more than
  /// one worker and there are at least two roots; runs inline otherwise.
  template <typename R>
  Status ForEachRoot(
      const RootSource& roots, const Interval& window, bool skip_not_found,
      const std::function<Result<R>(AtomId, VersionCache*)>& materialize,
      const std::function<Result<bool>(R)>& deliver) const;

  /// OK while the query may keep running (always OK with no context).
  Status CheckContext() const {
    return ctx_ != nullptr ? ctx_->Check() : Status::OK();
  }

  const Catalog* catalog_;
  const TemporalAtomStore* store_;
  const LinkStore* links_;
  ThreadPool* pool_;
  const QueryContext* ctx_ = nullptr;
  BudgetLease* lease_ = nullptr;
  TraceRecorder* trace_rec_ = nullptr;
  mutable VersionCacheStats cache_stats_;
  // Each fan-out worker writes only its own slot, so no synchronization
  // is needed beyond the pool's batch-completion join.
  mutable std::vector<double> last_worker_us_;
};

}  // namespace tcob

#endif  // TCOB_MAD_MATERIALIZER_H_
