#ifndef TCOB_INDEX_ATTR_INDEX_H_
#define TCOB_INDEX_ATTR_INDEX_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "index/btree.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// A half-bounded or bounded range over attribute values.
struct ValueRange {
  std::optional<Value> lower;
  bool lower_inclusive = true;
  std::optional<Value> upper;
  bool upper_inclusive = false;

  std::string ToString() const;
};

/// Maintains and queries the secondary attribute indexes.
///
/// One B+-tree per index; entry key = comparable(value) . atom-id .
/// begin-timestamp, payload = the version's end. Every atom version
/// contributes one entry (closed versions keep theirs), so lookups can
/// be AS OF any instant. Maintenance is driven by the Database's
/// logical-operation stream, once per operation the store accepted; WAL
/// replay applies each logged operation exactly once, so no hook has to
/// recognise its own effects.
class AttrIndexManager {
 public:
  AttrIndexManager(BufferPool* pool, const Catalog* catalog)
      : pool_(pool), catalog_(catalog) {}

  /// Index maintenance hooks, called *after* the store applied the
  /// operation (`old_version` is the live version it closed, if any).

  Status OnInsert(const AtomTypeDef& type, AtomId id,
                  const std::vector<Value>& attrs, Timestamp from);
  Status OnUpdate(const AtomTypeDef& type, AtomId id,
                  const AtomVersion& old_version,
                  const std::vector<Value>& attrs, Timestamp from);
  Status OnDelete(const AtomTypeDef& type, AtomId id,
                  const AtomVersion& old_version, Timestamp from);

  /// Backfills a freshly created index from the store's existing
  /// versions.
  Status Backfill(const AttrIndexDef& def, const AtomTypeDef& type,
                  const TemporalAtomStore& store);

  /// Atom ids having an indexed value in `range` valid at `t`, sorted
  /// and de-duplicated.
  Result<std::vector<AtomId>> LookupAsOf(const AttrIndexDef& def,
                                         const ValueRange& range,
                                         Timestamp t) const;

  /// True if `type` has at least one index (fast pre-check for the
  /// maintenance path).
  bool HasIndexes(TypeId type) const {
    return !catalog_->AttrIndexesOf(type).empty();
  }

  /// Total pages across all index trees (space accounting).
  Result<uint64_t> TotalPages() const;

  /// Temporal vacuuming: removes every index entry whose version ends at
  /// or before `cutoff`, across all indexes. Returns entries removed.
  Result<uint64_t> VacuumBefore(Timestamp cutoff);

  /// B+-tree structural check of every attribute index in the catalog.
  Status VerifyStructure() const;

 private:
  Result<BTree*> TreeOf(IndexId id) const;

  /// Order-preserving encoding of an attribute value (no type tag; all
  /// values in one index share the attribute's type).
  static Status EncodeComparableValue(const Value& v, std::string* dst);

  /// Full entry key: value . atom id . begin.
  static Status EncodeEntryKey(const Value& v, AtomId id, Timestamp begin,
                               std::string* dst);

  Status PutEntry(const AttrIndexDef& def, const Value& v, AtomId id,
                  const Interval& valid);

  BufferPool* pool_;
  const Catalog* catalog_;
  // Guards lazy tree opening; the trees themselves carry their own latch.
  mutable std::mutex trees_mu_;
  mutable std::map<IndexId, std::unique_ptr<BTree>> trees_;
};

}  // namespace tcob

#endif  // TCOB_INDEX_ATTR_INDEX_H_
