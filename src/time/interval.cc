#include "time/interval.h"

#include <cassert>

namespace tcob {

std::string TimestampToString(Timestamp t) {
  if (t == kForever) return "forever";
  return std::to_string(t);
}

std::string Interval::ToString() const {
  if (empty()) return "[empty)";
  return std::string("[").append(TimestampToString(begin)).append(", ")
      .append(TimestampToString(end)).append(")");
}

AllenRelation ClassifyAllen(const Interval& a, const Interval& b) {
  assert(!a.empty() && !b.empty());
  if (a.end < b.begin) return AllenRelation::kBefore;
  if (a.end == b.begin) return AllenRelation::kMeets;
  if (b.end < a.begin) return AllenRelation::kAfter;
  if (b.end == a.begin) return AllenRelation::kMetBy;
  // From here the intervals properly intersect.
  if (a.begin == b.begin) {
    if (a.end == b.end) return AllenRelation::kEquals;
    return a.end < b.end ? AllenRelation::kStarts : AllenRelation::kStartedBy;
  }
  if (a.end == b.end) {
    return a.begin > b.begin ? AllenRelation::kFinishes
                             : AllenRelation::kFinishedBy;
  }
  if (a.begin > b.begin && a.end < b.end) return AllenRelation::kDuring;
  if (b.begin > a.begin && b.end < a.end) return AllenRelation::kContains;
  return a.begin < b.begin ? AllenRelation::kOverlaps
                           : AllenRelation::kOverlappedBy;
}

const char* AllenRelationName(AllenRelation r) {
  switch (r) {
    case AllenRelation::kBefore:
      return "before";
    case AllenRelation::kMeets:
      return "meets";
    case AllenRelation::kOverlaps:
      return "overlaps";
    case AllenRelation::kStarts:
      return "starts";
    case AllenRelation::kDuring:
      return "during";
    case AllenRelation::kFinishes:
      return "finishes";
    case AllenRelation::kEquals:
      return "equals";
    case AllenRelation::kFinishedBy:
      return "finished-by";
    case AllenRelation::kContains:
      return "contains";
    case AllenRelation::kStartedBy:
      return "started-by";
    case AllenRelation::kOverlappedBy:
      return "overlapped-by";
    case AllenRelation::kMetBy:
      return "met-by";
    case AllenRelation::kAfter:
      return "after";
  }
  return "?";
}

}  // namespace tcob
