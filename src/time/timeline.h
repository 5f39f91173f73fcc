#ifndef TCOB_TIME_TIMELINE_H_
#define TCOB_TIME_TIMELINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "time/interval.h"
#include "time/temporal_element.h"

namespace tcob {

/// The newest end of one entity's timeline: everything the valid-time
/// mutation rule needs to know. Every mutation of an atom or a link pair
/// is one step on it: open an interval at `t` (INSERT, re-insert,
/// CONNECT), close the open one at `t` (DELETE, DISCONNECT), or both at
/// the same instant (UPDATE). The stores, the link store, transactions
/// and the commit path all check their mutations with Open/Close below,
/// so each violation has one status class and one message everywhere.
struct TimelineTail {
  enum class Kind : uint8_t { kAtom, kLink };

  /// The tail of an atom, or of the link pair `from` -> `to`, that has
  /// no interval yet.
  static TimelineTail Atom(uint64_t id) { return {Kind::kAtom, id, 0}; }
  static TimelineTail Link(uint64_t from, uint64_t to) {
    return {Kind::kLink, from, to};
  }

  /// Sets the tail to the one `newest`, the entity's latest interval,
  /// leaves behind.
  void After(const Interval& newest);

  /// Folds one interval of the timeline (in any order) into the tail as
  /// a reader at `as_of` sees it: an interval that begins after `as_of`
  /// does not exist yet, and one that ends after it is still open.
  void Fold(const Interval& valid, Timestamp as_of);

  /// Opens an interval at `t`. Fails with AlreadyExists while one is
  /// open, and with InvalidArgument before the last closed one's end
  /// (opening exactly at that end is allowed).
  Status Open(Timestamp t);

  /// Closes the open interval at `t`. Fails with NotFound if there is
  /// none and the entity does not exist (a link pair without an open
  /// interval never exists for this purpose), with InvalidArgument if
  /// the atom is not live, or if `t` is not after the interval's begin.
  Status Close(Timestamp t);

  Kind kind = Kind::kAtom;
  uint64_t id = 0;  // the atom, or the pair's from-atom
  uint64_t to = 0;  // the pair's to-atom
  bool exists = false;                 // has had an interval
  bool open = false;                   // its newest interval is open
  Timestamp begin = kMinTimestamp;     // of the open interval
  Timestamp last_end = kMinTimestamp;  // of the newest closed interval
};

/// One entry of a VersionTimeline: a validity interval tagged with an
/// opaque payload handle (version number, RID, vector index — caller's
/// choice).
struct TimelineEntry {
  Interval valid;
  uint64_t payload = 0;
};

/// The time-ordered history of one object: a sequence of non-overlapping
/// validity intervals, each naming a payload (version).
///
/// Intervals are kept sorted by begin. Gaps are legal — they represent
/// periods during which the object did not exist (logically deleted and
/// later re-inserted). Overlap is an invariant violation and is rejected.
class VersionTimeline {
 public:
  VersionTimeline() = default;

  /// Appends an entry; its interval must begin at or after the end of the
  /// last entry (histories are built in chronological order). The entry
  /// opens at its begin and, unless open-ended, closes at its end: two
  /// steps of the TimelineTail rule.
  Status Append(const Interval& valid, uint64_t payload);

  /// Payload valid at instant t, if any.
  std::optional<uint64_t> AsOf(Timestamp t) const;

  /// All entries whose validity overlaps `window`, in time order.
  std::vector<TimelineEntry> Overlapping(const Interval& window) const;

  /// The union of all validity intervals (the object's lifespan).
  TemporalElement Lifespan() const;

  /// All distinct interval boundaries (begins and finite ends) inside
  /// `window`, plus window.begin itself if the timeline is live there.
  /// Used to derive molecule-level change points.
  std::vector<Timestamp> BoundariesIn(const Interval& window) const;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<TimelineEntry>& entries() const { return entries_; }
  const TimelineEntry& back() const { return entries_.back(); }

  /// True if the newest entry is open-ended (object currently alive).
  bool IsLive() const {
    return !entries_.empty() && entries_.back().valid.open_ended();
  }

  std::string ToString() const;

 private:
  std::vector<TimelineEntry> entries_;  // sorted by valid.begin, disjoint
};

}  // namespace tcob

#endif  // TCOB_TIME_TIMELINE_H_
