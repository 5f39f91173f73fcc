#ifndef TCOB_TSTORE_SEPARATED_STORE_H_
#define TCOB_TSTORE_SEPARATED_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/btree.h"
#include "storage/heap_file.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// The paper's advocated physical design: a *current store* holding
/// exactly the live version of every atom, and an append-only *history
/// store* receiving each version as it is closed, chained newest-to-
/// oldest. Optionally a persistent version index ((atom, begin) ->
/// history RID) replaces chain walking by logarithmic lookup.
///
/// Consequences (the shapes Fig. 5-8 expect):
///  * current-time access cost is independent of history length,
///  * past access pays a chain walk proportional to the temporal
///    distance (or an index lookup when the version index is on),
///  * updates are cheap: one append to history plus one in-place
///    current rewrite,
///  * full-history reads pay one fetch per closed version.
class SeparatedStore : public TemporalAtomStore {
 public:
  SeparatedStore(BufferPool* pool, std::string file_prefix,
                 StoreOptions options)
      : pool_(pool), prefix_(std::move(file_prefix)), options_(options) {}

  StorageStrategy strategy() const override {
    return StorageStrategy::kSeparated;
  }

  Status Insert(const AtomTypeDef& type, AtomId id, std::vector<Value> attrs,
                Timestamp from) override;
  Status Update(const AtomTypeDef& type, AtomId id, std::vector<Value> attrs,
                Timestamp from) override;
  Status Delete(const AtomTypeDef& type, AtomId id, Timestamp from) override;

  Result<StoreSpaceStats> SpaceStats() const override;
  Status Flush() override;
  Result<uint64_t> VacuumBefore(const AtomTypeDef& type,
                                Timestamp cutoff) override;
  Result<uint64_t> ReleaseMigrated(const AtomTypeDef& type,
                                   Timestamp cutoff) override;

  /// B+-tree invariants of both indexes, plus every index entry must
  /// resolve to a readable heap record.
  Status VerifyStructure(const AtomTypeDef& type) const override;

  /// Cumulative count of history-chain records visited (benchmark probe
  /// for Fig. 6 / Fig. 10).
  uint64_t chain_hops() const {
    return chain_hops_.load(std::memory_order_relaxed);
  }

 protected:
  Result<std::optional<AtomVersion>> DoGetAsOf(const AtomTypeDef& type,
                                               AtomId id,
                                               Timestamp t) const override;
  Result<std::vector<AtomVersion>> DoGetVersions(
      const AtomTypeDef& type, AtomId id,
      const Interval& window) const override;
  Status DoScanAsOf(const AtomTypeDef& type, Timestamp t,
                    const VersionCallback& fn) const override;
  Status DoScanVersions(const AtomTypeDef& type, const Interval& window,
                        const VersionCallback& fn) const override;

 private:
  struct TypeState {
    std::unique_ptr<HeapFile> current;
    std::unique_ptr<HeapFile> history;
    std::unique_ptr<BTree> current_index;  // id -> current Rid
    std::unique_ptr<BTree> version_index;  // (id, begin) -> history Rid
  };

  /// In-memory image of one current-store record.
  struct CurrentRecord {
    bool has_live = false;
    AtomVersion live;            // meaningful iff has_live
    uint32_t last_version_no = 0;  // newest version number ever assigned
    Timestamp last_end = kMinTimestamp;  // end of the newest closed version
    Rid chain_head;              // newest closed version, invalid if none
    uint32_t chain_len = 0;
  };

  Result<TypeState*> StateOf(TypeId type) const;

  static Status EncodeCurrent(const std::vector<AttrType>& schema,
                              const CurrentRecord& rec, AtomId id, TypeId type,
                              std::string* dst);
  static Result<CurrentRecord> DecodeCurrent(
      const std::vector<AttrType>& schema, AtomId id, TypeId type,
      Slice input);

  /// History record: version + RID of the next older version.
  static Status EncodeHistory(const std::vector<AttrType>& schema,
                              const AtomVersion& v, const Rid& prev,
                              std::string* dst);
  static Result<std::pair<AtomVersion, Rid>> DecodeHistory(
      const std::vector<AttrType>& schema, Slice input);

  Result<CurrentRecord> LoadCurrent(const AtomTypeDef& type, AtomId id,
                                    Rid* rid_out) const;
  Status StoreCurrent(const AtomTypeDef& type, AtomId id, const Rid& rid,
                      const CurrentRecord& rec);

  /// The timeline tail of `id` after loading its current record: a
  /// NotFound load is an atom that does not exist; other errors are
  /// returned.
  static Result<TimelineTail> CurrentTail(AtomId id,
                                          const Result<CurrentRecord>& current);

  /// Loads the current record of `id` (its location into `rid`), closes
  /// the live version at `from` and moves it to the history chain
  /// (DELETE, and the first half of UPDATE). The record is not stored.
  Result<CurrentRecord> CloseLive(const AtomTypeDef& type, AtomId id,
                                  Timestamp from, Rid* rid);

  /// Makes `attrs` the live version of `rec` from `from` on.
  static void OpenLive(CurrentRecord* rec, const AtomTypeDef& type, AtomId id,
                       std::vector<Value> attrs, Timestamp from);

  /// Moves a closed version into the history store, updating the version
  /// index if enabled; returns the new chain head.
  Result<Rid> AppendHistory(const AtomTypeDef& type,
                            const AtomVersion& closed, const Rid& prev);

  /// Finds the closed version of `id` valid at `t` (t earlier than the
  /// live version), via index or chain walk.
  Result<std::optional<AtomVersion>> FindPast(const AtomTypeDef& type,
                                              AtomId id,
                                              const CurrentRecord& cur,
                                              Timestamp t) const;

  /// Collects closed versions of `id` overlapping `window`, oldest first.
  /// When `proved_floor` is non-null it receives the oldest begin the hot
  /// walk proved knowledge of: callers probe the cold tier only when
  /// window.begin precedes it (kMinTimestamp when the walk stopped at a
  /// version already older than the window — hot covers everything the
  /// cold tier could add).
  Result<std::vector<AtomVersion>> CollectPast(
      const AtomTypeDef& type, const CurrentRecord& cur,
      const Interval& window, Timestamp* proved_floor = nullptr) const;

  static std::string VersionKey(AtomId id, Timestamp begin);

  BufferPool* pool_;
  std::string prefix_;
  StoreOptions options_;
  // Guards lazy TypeState creation; map nodes are stable once created, so
  // concurrent readers only contend on first touch of a type.
  mutable std::mutex types_mu_;
  mutable std::map<TypeId, TypeState> types_;
  mutable std::atomic<uint64_t> chain_hops_{0};
};

}  // namespace tcob

#endif  // TCOB_TSTORE_SEPARATED_STORE_H_
