#ifndef TCOB_TSTORE_TEMPORAL_STORE_H_
#define TCOB_TSTORE_TEMPORAL_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/slice.h"
#include "record/value.h"
#include "time/interval.h"
#include "time/timeline.h"

namespace tcob {

/// One state of an atom: its attribute values stamped with the interval
/// during which they were valid.
struct AtomVersion {
  AtomId id = kInvalidAtomId;
  TypeId type = kInvalidTypeId;
  uint32_t version_no = 0;  // 1-based, per atom, monotonically increasing
  Interval valid;
  std::vector<Value> attrs;
};

/// Physical design alternatives for atom histories (the paper's subject).
enum class StorageStrategy {
  /// Baseline: every version is an independent full record in one heap;
  /// time selection scans an atom's versions linearly.
  kSnapshot,
  /// All versions of an atom clustered into one growing record ("version
  /// cluster"), spilling to overflow pages as the history grows.
  kIntegrated,
  /// Current store (exactly the live versions) + append-only history
  /// store with newest-to-oldest version chains.
  kSeparated,
};

const char* StorageStrategyName(StorageStrategy s);
Result<StorageStrategy> StorageStrategyFromName(const std::string& name);

/// Tuning knobs shared by the store implementations.
struct StoreOptions {
  /// kSeparated only: maintain a persistent (atom, begin) -> history-RID
  /// directory so past time slices use a logarithmic lookup instead of
  /// walking the version chain. Fig. 10 ablates this.
  bool separated_version_index = true;
};

/// Space accounting of one store (all atom types).
struct StoreSpaceStats {
  uint64_t heap_pages = 0;
  uint64_t index_pages = 0;
  uint64_t total_bytes = 0;
  uint64_t atom_count = 0;
  uint64_t version_count = 0;
};

/// Logical read-access accounting of one store (monotonic counters, like
/// BufferPoolStats). Each counted call is one storage round-trip — index
/// probes, page fetches, record decodes — so query-layer caches aim to
/// minimize exactly these numbers.
struct StoreAccessStats {
  uint64_t get_as_of = 0;
  uint64_t get_versions = 0;
  uint64_t scan_as_of = 0;
  uint64_t scan_versions = 0;

  uint64_t Total() const {
    return get_as_of + get_versions + scan_as_of + scan_versions;
  }

  /// The store slots of one query's work block.
  static StoreAccessStats Of(const QueryWork& w) {
    return {w[QueryWork::kStoreGetAsOf], w[QueryWork::kStoreGetVersions],
            w[QueryWork::kStoreScanAsOf], w[QueryWork::kStoreScanVersions]};
  }
};

class ColdTier;

/// Read-access accounting of the cold-history tier (monotonic counters;
/// each query's share feeds the EXPLAIN ANALYZE tiering section). Zero
/// when no cold tier is attached.
struct ColdTierAccessStats {
  uint64_t segments_pruned = 0;   // skipped via fence / atom-range test
  uint64_t segments_scanned = 0;  // payload actually decoded
  uint64_t cold_versions = 0;     // versions materialized from segments

  /// The cold-tier slots of one query's work block.
  static ColdTierAccessStats Of(const QueryWork& w) {
    return {w[QueryWork::kColdSegmentsPruned],
            w[QueryWork::kColdSegmentsScanned], w[QueryWork::kColdVersions]};
  }
};

/// Storage-strategy-independent interface over versioned atoms.
///
/// Insert opens version 1 (or, after a Delete, the next version) valid
/// in [from, forever); Update closes the live version at `from` and
/// opens its successor there; Delete closes it, leaving the atom with no
/// live version. Each checks the valid-time mutation rule
/// (TimelineTail, time/timeline.h) against the newest record it loads,
/// and either applies or fails with the rule's status; none reports OK
/// without changing the history. WAL replay never re-applies: recovery
/// starts from the checkpoint image and skips every record that image
/// already covers (DESIGN §3.3).
class TemporalAtomStore {
 public:
  using VersionCallback =
      std::function<Result<bool>(const AtomVersion&)>;

  virtual ~TemporalAtomStore() = default;

  virtual StorageStrategy strategy() const = 0;

  virtual Status Insert(const AtomTypeDef& type, AtomId id,
                        std::vector<Value> attrs, Timestamp from) = 0;
  virtual Status Update(const AtomTypeDef& type, AtomId id,
                        std::vector<Value> attrs, Timestamp from) = 0;
  virtual Status Delete(const AtomTypeDef& type, AtomId id,
                        Timestamp from) = 0;

  /// The version of atom `id` valid at `t`, or nullopt if the atom did
  /// not exist then. NotFound only if the atom was never inserted.
  Result<std::optional<AtomVersion>> GetAsOf(const AtomTypeDef& type,
                                             AtomId id, Timestamp t) const {
    get_as_of_.Increment();
    return DoGetAsOf(type, id, t);
  }

  /// All versions of `id` overlapping `window`, in time order.
  Result<std::vector<AtomVersion>> GetVersions(const AtomTypeDef& type,
                                               AtomId id,
                                               const Interval& window) const {
    get_versions_.Increment();
    return DoGetVersions(type, id, window);
  }

  /// Atom `id`'s timeline tail as a reader at `t` sees it (see
  /// TimelineTail::Fold), from one GetAsOf(t); `version` receives the
  /// version valid at `t`. An atom that was never inserted has a tail
  /// that does not exist.
  Result<TimelineTail> TailAsOf(const AtomTypeDef& type, AtomId id,
                                Timestamp t,
                                std::optional<AtomVersion>* version) const;

  /// Streams the version of *every* atom of `type` valid at `t`.
  Status ScanAsOf(const AtomTypeDef& type, Timestamp t,
                  const VersionCallback& fn) const {
    scan_as_of_.Increment();
    return DoScanAsOf(type, t, fn);
  }

  /// Streams every version of every atom of `type` overlapping `window`.
  Status ScanVersions(const AtomTypeDef& type, const Interval& window,
                      const VersionCallback& fn) const {
    scan_versions_.Increment();
    return DoScanVersions(type, window, fn);
  }

  /// Snapshot of the cumulative read-access counters (see
  /// StoreAccessStats). The counters are bookkeeping, not state: they are
  /// relaxed atomics incremented by concurrent readers, and resetting
  /// them is a const operation so benchmarks can meter individual query
  /// phases against a const store — safely even while readers run.
  StoreAccessStats access_stats() const {
    StoreAccessStats s;
    s.get_as_of = get_as_of_.value();
    s.get_versions = get_versions_.value();
    s.scan_as_of = scan_as_of_.value();
    s.scan_versions = scan_versions_.value();
    return s;
  }
  void ResetAccessStats() const {
    get_as_of_.Reset();
    get_versions_.Reset();
    scan_as_of_.Reset();
    scan_versions_.Reset();
  }

  /// Publishes the access counters into `registry` under tcob_store_*.
  void RegisterMetrics(MetricsRegistry* registry) const {
    registry->RegisterCounter("tcob_store_get_as_of_total", &get_as_of_);
    registry->RegisterCounter("tcob_store_get_versions_total", &get_versions_);
    registry->RegisterCounter("tcob_store_scan_as_of_total", &scan_as_of_);
    registry->RegisterCounter("tcob_store_scan_versions_total",
                              &scan_versions_);
  }

  virtual Result<StoreSpaceStats> SpaceStats() const = 0;

  /// Structural self-check of the physical state backing `type`: every
  /// version interval must be well-formed (begin < end) and each atom's
  /// versions must form a non-overlapping timeline; then the strategy's
  /// VerifyStructure validates its B+-trees and record plumbing.
  /// Read-only; returns Corruption describing the first violation.
  Status VerifyIntegrity(const AtomTypeDef& type) const;

  /// Strategy-specific structural checks behind VerifyIntegrity (B+-tree
  /// invariants, index-to-heap resolution). Default: nothing to check.
  virtual Status VerifyStructure(const AtomTypeDef& type) const {
    (void)type;
    return Status::OK();
  }

  /// Flushes all store state through the buffer pool to disk.
  virtual Status Flush() = 0;

  /// Temporal vacuuming: physically removes every version whose validity
  /// ends at or before `cutoff` (versions overlapping the cutoff stay).
  /// Returns the number of versions removed. Vacuuming is a physical
  /// reorganization, not a logged operation — the Database wraps it in
  /// checkpoints so WAL replay never observes a vacuumed store.
  virtual Result<uint64_t> VacuumBefore(const AtomTypeDef& type,
                                        Timestamp cutoff) = 0;

  // ---- cold-history tiering ----

  /// Attaches the cold tier. Afterwards every public read transparently
  /// merges hot store + cold segments in timeline order; mutations and
  /// NotFound semantics are unaffected (the anchor rule below keeps at
  /// least one version of every atom hot).
  void AttachColdTier(ColdTier* cold) { cold_ = cold; }
  ColdTier* cold_tier() const { return cold_; }

  /// Snapshot of the attached tier's read counters (zeros when none).
  ColdTierAccessStats cold_access_stats() const;

  /// Versions eligible for migration at `cutoff`, grouped per atom in
  /// ascending begin order: every version with valid.end <= cutoff,
  /// except that an atom whose versions would *all* migrate keeps its
  /// newest one hot (the anchor rule — hot stores never forget an atom,
  /// so id allocation, version numbering and NotFound semantics are
  /// identical with and without tiering). Reads only hot state.
  Result<std::map<AtomId, std::vector<AtomVersion>>> CollectMigratable(
      const AtomTypeDef& type, Timestamp cutoff) const;

  /// Physically removes exactly the versions CollectMigratable(cutoff)
  /// reported — called after they were durably written to the cold
  /// tier. Returns the number of versions removed.
  virtual Result<uint64_t> ReleaseMigrated(const AtomTypeDef& type,
                                           Timestamp cutoff) = 0;

 protected:
  /// Shared migration predicate: number of leading versions of a
  /// begin-sorted, non-overlapping chain that migrate at `cutoff`
  /// (closed versions form a prefix; the anchor rule holds one back
  /// when the whole chain is old). CollectMigratable and every
  /// ReleaseMigrated implementation use this, so the two sides always
  /// agree exactly.
  static size_t MigratablePrefix(const std::vector<AtomVersion>& versions,
                                 Timestamp cutoff);

  // Cold-tier read helpers for the strategy implementations; all are
  // no-ops (empty / false) when no tier is attached. Implemented in the
  // .cc against the full ColdTier type.
  bool has_cold() const { return cold_ != nullptr; }
  Result<std::vector<AtomVersion>> ColdVersions(const AtomTypeDef& type,
                                                AtomId id,
                                                const Interval& window) const;
  Result<bool> ColdMightHave(const AtomTypeDef& type, AtomId id) const;
  Status ColdCollectAll(const AtomTypeDef& type, const Interval& window,
                        std::map<AtomId, std::vector<AtomVersion>>* out) const;

 protected:
  /// Strategy-specific read paths behind the counting wrappers above.
  virtual Result<std::optional<AtomVersion>> DoGetAsOf(const AtomTypeDef& type,
                                                       AtomId id,
                                                       Timestamp t) const = 0;
  virtual Result<std::vector<AtomVersion>> DoGetVersions(
      const AtomTypeDef& type, AtomId id, const Interval& window) const = 0;
  virtual Status DoScanAsOf(const AtomTypeDef& type, Timestamp t,
                            const VersionCallback& fn) const = 0;
  virtual Status DoScanVersions(const AtomTypeDef& type,
                                const Interval& window,
                                const VersionCallback& fn) const = 0;

 private:
  ColdTier* cold_ = nullptr;

  // Relaxed-atomic Counters (see common/metrics.h): concurrent fan-out
  // readers bump them lock-free and totals stay exact.
  mutable Counter get_as_of_{QueryWork::kStoreGetAsOf};
  mutable Counter get_versions_{QueryWork::kStoreGetVersions};
  mutable Counter scan_as_of_{QueryWork::kStoreScanAsOf};
  mutable Counter scan_versions_{QueryWork::kStoreScanVersions};
};

// ---- shared record codecs ----

/// Full per-version record: [id][type][version_no][begin][end][attrs].
Status EncodeAtomVersion(const std::vector<AttrType>& schema,
                         const AtomVersion& v, std::string* dst);
Result<AtomVersion> DecodeAtomVersion(const std::vector<AttrType>& schema,
                                      Slice* input);

/// The timeline tail of atom `id` whose newest version is `newest`
/// (null: the atom does not exist).
TimelineTail AtomTail(AtomId id, const AtomVersion* newest);

/// Builds a VersionTimeline (payload = index) over a version list sorted
/// by begin. Fails on overlapping versions.
Result<VersionTimeline> TimelineOf(const std::vector<AtomVersion>& versions);

}  // namespace tcob

#endif  // TCOB_TSTORE_TEMPORAL_STORE_H_
