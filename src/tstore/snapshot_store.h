#ifndef TCOB_TSTORE_SNAPSHOT_STORE_H_
#define TCOB_TSTORE_SNAPSHOT_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/btree.h"
#include "storage/heap_file.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// Baseline physical design: the "temporally ungrouped" relational
/// mapping. Every version is an independent full record in one heap file
/// per atom type; a (atom, version_no) B+-tree locates an atom's
/// versions, which are then filtered linearly by time.
///
/// Consequences (the shapes Fig. 5-8 expect):
///  * updates are cheap appends,
///  * any access to one atom — current or past — touches all its
///    versions' index entries, so cost grows with history length,
///  * full-history reads pay one record fetch per version.
class SnapshotStore : public TemporalAtomStore {
 public:
  SnapshotStore(BufferPool* pool, std::string file_prefix)
      : pool_(pool), prefix_(std::move(file_prefix)) {}

  StorageStrategy strategy() const override {
    return StorageStrategy::kSnapshot;
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
    std::unique_ptr<BTree> index;  // (id, version_no) -> Rid
  };

  Result<TypeState*> StateOf(TypeId type) const;

  /// All versions of `id`, in version order.
  Result<std::vector<AtomVersion>> AllVersions(const AtomTypeDef& type,
                                               AtomId id) const;

  /// The newest version of `id` (one Floor probe + one record fetch), or
  /// nullopt if the atom was never inserted. `rid_out` receives its
  /// location. Keeps mutations O(log versions) — the baseline's one
  /// redeeming quality is cheap appends, so we don't squander it.
  Result<std::optional<AtomVersion>> NewestVersion(const AtomTypeDef& type,
                                                   AtomId id,
                                                   Rid* rid_out) const;

  /// Closes the live version of `id` at `from` in place (DELETE, and the
  /// first half of UPDATE) and returns it.
  Result<AtomVersion> CloseLive(const AtomTypeDef& type, AtomId id,
                                  Timestamp from);

  static std::string VersionKey(AtomId id, uint32_t version_no);

  BufferPool* pool_;
  std::string prefix_;
  // Guards lazy TypeState creation (map nodes are stable once created).
  mutable std::mutex types_mu_;
  mutable std::map<TypeId, TypeState> types_;
};

}  // namespace tcob

#endif  // TCOB_TSTORE_SNAPSHOT_STORE_H_
