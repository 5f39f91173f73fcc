#ifndef TCOB_TSTORE_INTEGRATED_STORE_H_
#define TCOB_TSTORE_INTEGRATED_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/btree.h"
#include "storage/heap_file.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// Physical design with embedded version clusters: all versions of an
/// atom live in one growing record, spilling into overflow pages as the
/// history lengthens.
///
/// Consequences (the shapes Fig. 5-8 expect):
///  * reading the *whole* history of an atom is a single (multi-page)
///    record fetch — the cheapest of the three designs,
///  * any access, including current-time access, pays for the entire
///    cluster, so time-slice cost grows with history length,
///  * updates rewrite the cluster, so update cost grows with history
///    length too.
class IntegratedStore : public TemporalAtomStore {
 public:
  IntegratedStore(BufferPool* pool, std::string file_prefix)
      : pool_(pool), prefix_(std::move(file_prefix)) {}

  StorageStrategy strategy() const override {
    return StorageStrategy::kIntegrated;
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

  /// B+-tree invariants of the index, plus every index entry must
  /// resolve to a readable heap record.
  Status VerifyStructure(const AtomTypeDef& type) const override;

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
    std::unique_ptr<HeapFile> heap;
    std::unique_ptr<BTree> index;  // id -> cluster Rid
  };

  Result<TypeState*> StateOf(TypeId type) const;

  /// Cluster codec: [id][type][n] then n x [vno][begin][end][attrs].
  static Status EncodeCluster(const std::vector<AttrType>& schema, AtomId id,
                              TypeId type,
                              const std::vector<AtomVersion>& versions,
                              std::string* dst);
  static Result<std::vector<AtomVersion>> DecodeCluster(
      const std::vector<AttrType>& schema, Slice input);

  /// Loads the cluster of `id`; NotFound if the atom was never inserted.
  Result<std::vector<AtomVersion>> LoadCluster(const AtomTypeDef& type,
                                               AtomId id, Rid* rid_out) const;

  /// The timeline tail of `id` after loading its cluster: a NotFound
  /// load is an atom that does not exist; other errors are returned.
  static Result<TimelineTail> ClusterTail(
      AtomId id, const Result<std::vector<AtomVersion>>& cluster);

  /// Loads the cluster of `id` (its location into `rid`) and closes the
  /// live version at `from` (DELETE, and the first half of UPDATE). The
  /// cluster is not stored.
  Result<std::vector<AtomVersion>> CloseLive(const AtomTypeDef& type,
                                             AtomId id, Timestamp from,
                                             Rid* rid);

  Status StoreCluster(const AtomTypeDef& type, AtomId id, const Rid& rid,
                      const std::vector<AtomVersion>& versions);

  BufferPool* pool_;
  std::string prefix_;
  // Guards lazy TypeState creation (map nodes are stable once created).
  mutable std::mutex types_mu_;
  mutable std::map<TypeId, TypeState> types_;
};

}  // namespace tcob

#endif  // TCOB_TSTORE_INTEGRATED_STORE_H_
