#include "time/timeline.h"

#include <algorithm>

namespace tcob {

/// "atom 7" or "link 1->3", for the rule's messages.
static std::string NameOf(const TimelineTail& tail) {
  return tail.kind == TimelineTail::Kind::kAtom
             ? "atom " + std::to_string(tail.id)
             : "link " + std::to_string(tail.id) + "->" +
                   std::to_string(tail.to);
}

void TimelineTail::After(const Interval& newest) {
  exists = true;
  open = newest.open_ended();
  if (open) {
    begin = newest.begin;
  } else {
    last_end = newest.end;
  }
}

void TimelineTail::Fold(const Interval& valid, Timestamp as_of) {
  if (valid.begin > as_of) return;
  exists = true;
  if (valid.open_ended() || valid.end > as_of) {
    open = true;
    begin = valid.begin;
  } else {
    last_end = std::max(last_end, valid.end);
  }
}

Status TimelineTail::Open(Timestamp t) {
  const bool atom = kind == Kind::kAtom;
  if (open) {
    return Status::AlreadyExists(NameOf(*this) + " is already " +
                                 (atom ? "live" : "connected") + " (since " +
                                 TimestampToString(begin) + ")");
  }
  if (t < last_end) {
    return Status::InvalidArgument(
        NameOf(*this) + " cannot " + (atom ? "become live" : "connect") +
        " at " + TimestampToString(t) + ": its last " +
        (atom ? "version" : "connection") + " ended at " +
        TimestampToString(last_end));
  }
  exists = true;
  open = true;
  begin = t;
  return Status::OK();
}

Status TimelineTail::Close(Timestamp t) {
  const bool atom = kind == Kind::kAtom;
  if (!open) {
    if (!atom) return Status::NotFound(NameOf(*this) + " is not connected");
    if (!exists) return Status::NotFound(NameOf(*this) + " does not exist");
    return Status::InvalidArgument(NameOf(*this) + " is not live");
  }
  if (t <= begin) {
    return Status::InvalidArgument(
        NameOf(*this) + " cannot change at " + TimestampToString(t) +
        ": its " + (atom ? "live version" : "connection") + " began at " +
        TimestampToString(begin));
  }
  open = false;
  last_end = t;
  return Status::OK();
}

Status VersionTimeline::Append(const Interval& valid, uint64_t payload) {
  TimelineTail tail;
  if (!entries_.empty()) tail.After(entries_.back().valid);
  Status step = tail.Open(valid.begin);
  if (step.ok() && !valid.open_ended()) step = tail.Close(valid.end);
  if (!step.ok()) {
    return Status::InvalidArgument("timeline entry " + valid.ToString() +
                                   " does not follow " + ToString());
  }
  entries_.push_back({valid, payload});
  return Status::OK();
}

std::optional<uint64_t> VersionTimeline::AsOf(Timestamp t) const {
  // First entry with valid.end > t; it contains t iff its begin <= t.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), t,
      [](Timestamp v, const TimelineEntry& e) { return v < e.valid.end; });
  if (it != entries_.end() && it->valid.Contains(t)) return it->payload;
  return std::nullopt;
}

std::vector<TimelineEntry> VersionTimeline::Overlapping(
    const Interval& window) const {
  std::vector<TimelineEntry> out;
  if (window.empty()) return out;
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), window.begin,
      [](Timestamp v, const TimelineEntry& e) { return v < e.valid.end; });
  for (; it != entries_.end() && it->valid.begin < window.end; ++it) {
    out.push_back(*it);
  }
  return out;
}

TemporalElement VersionTimeline::Lifespan() const {
  TemporalElement span;
  for (const TimelineEntry& e : entries_) span.Add(e.valid);
  return span;
}

std::vector<Timestamp> VersionTimeline::BoundariesIn(
    const Interval& window) const {
  std::vector<Timestamp> out;
  for (const TimelineEntry& e : Overlapping(window)) {
    if (e.valid.begin >= window.begin) out.push_back(e.valid.begin);
    if (!e.valid.open_ended() && e.valid.end < window.end) {
      out.push_back(e.valid.end);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string VersionTimeline::ToString() const {
  std::string out = "timeline[";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i) out += " ";
    out += entries_[i].valid.ToString() + "->" +
           std::to_string(entries_[i].payload);
  }
  out += "]";
  return out;
}

}  // namespace tcob
