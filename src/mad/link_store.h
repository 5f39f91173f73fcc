#ifndef TCOB_MAD_LINK_STORE_H_
#define TCOB_MAD_LINK_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "record/value.h"
#include "storage/heap_file.h"
#include "time/interval.h"
#include "time/timeline.h"

namespace tcob {

/// One connection instance: partner atom + validity + storage location.
struct LinkEntry {
  AtomId other = kInvalidAtomId;
  Interval valid;
  Rid rid;  // record in the link heap (internal)
};

/// Persistent store of versioned link instances.
///
/// A connection between two atoms is itself a temporal fact: it holds
/// during an interval, can be severed, and re-established later. The
/// store keeps one heap file per link type (records of
/// [from][to][begin][end]) plus an in-memory adjacency index in both
/// directions, rebuilt on open.
///
/// Connect opens an interval of the pair and Disconnect closes it, each
/// checked with the valid-time mutation rule (TimelineTail,
/// time/timeline.h) against the pair's adjacency entries: a mutation
/// either applies or fails with the rule's status. WAL replay applies
/// each record exactly once (see Database::Recover), so no mutation has
/// to recognise its own effects.
class LinkStore {
 public:
  LinkStore(BufferPool* pool, std::string file_prefix)
      : pool_(pool), prefix_(std::move(file_prefix)) {}

  /// Establishes `from` -> `to` starting at `at` (open-ended).
  Status Connect(const LinkTypeDef& link, AtomId from, AtomId to,
                 Timestamp at);

  /// Severs the open connection `from` -> `to` at `at`.
  Status Disconnect(const LinkTypeDef& link, AtomId from, AtomId to,
                    Timestamp at);

  /// The timeline tail of the pair `from` -> `to` as a reader at `as_of`
  /// sees it (see TimelineTail::Fold); kForever sees every interval.
  Result<TimelineTail> PairTail(const LinkTypeDef& link, AtomId from,
                                AtomId to, Timestamp as_of) const;

  /// Partners of `atom` over `link` valid at `t`. `forward` means `atom`
  /// is on the link's from-side.
  Result<std::vector<AtomId>> NeighborsAsOf(const LinkTypeDef& link,
                                            AtomId atom, bool forward,
                                            Timestamp t) const;

  /// Partner/validity pairs of `atom` over `link` overlapping `window`.
  Result<std::vector<std::pair<AtomId, Interval>>> NeighborsIn(
      const LinkTypeDef& link, AtomId atom, bool forward,
      const Interval& window) const;

  /// Streams every connection interval of `link` (order unspecified).
  Status ForEachLink(
      const LinkTypeDef& link,
      const std::function<Result<bool>(AtomId, AtomId, const Interval&)>& fn)
      const;

  /// Total pages across all link heaps.
  Result<uint64_t> TotalPages() const;

  /// Temporal vacuuming: removes every connection interval ending at or
  /// before `cutoff`. Returns the number of link records removed.
  Result<uint64_t> VacuumBefore(const LinkTypeDef& link, Timestamp cutoff);

  Status Flush() { return pool_->FlushAll(); }

  /// Structural self-check: every interval well-formed, every adjacency
  /// entry's record readable from the heap, and the forward and reverse
  /// adjacency maps exact mirrors of each other. Read-only; returns
  /// Corruption describing the first violation.
  Status VerifyIntegrity(const LinkTypeDef& link) const;

 private:
  struct LinkState {
    std::unique_ptr<HeapFile> heap;
    std::unordered_map<AtomId, std::vector<LinkEntry>> fwd;
    std::unordered_map<AtomId, std::vector<LinkEntry>> rev;
  };

  Result<LinkState*> StateOf(LinkTypeId link) const;

  /// PairTail over `state`; `open_entry` (may be null) receives the
  /// pair's open-ended forward entry, if any.
  static TimelineTail TailIn(LinkState& state, AtomId from, AtomId to,
                             Timestamp as_of, LinkEntry** open_entry);

  static void EncodeLink(AtomId from, AtomId to, const Interval& valid,
                         std::string* dst);

  BufferPool* pool_;
  std::string prefix_;
  // Guards lazy LinkState creation (adjacency rebuild on first touch);
  // map nodes are stable once created, and the adjacency index itself is
  // only mutated by the single-threaded write path.
  mutable std::mutex links_mu_;
  mutable std::map<LinkTypeId, LinkState> links_;
};

}  // namespace tcob

#endif  // TCOB_MAD_LINK_STORE_H_
