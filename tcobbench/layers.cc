#include "layers.h"

#include <cstdio>

namespace tcobbench {

size_t SpanLog::Open(const char* name) {
  int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, client_, op_, parent, NowNs(), 0});
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

double SpanLog::Close(size_t i) {
  spans_[i].end_ns = NowNs();
  if (!open_.empty() && open_.back() == static_cast<int32_t>(i)) {
    open_.pop_back();
  }
  return spans_[i].us();
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"parent\":%d}}",
                   first ? "" : ",", s.name, s.client,
                   (s.start_ns - origin) / 1e3, s.us(),
                   static_cast<unsigned long long>(s.op), s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

tcob::Result<std::optional<tcob::AtomVersion>> TimedStore::DoGetAsOf(
    const tcob::AtomTypeDef& type, tcob::AtomId id, tcob::Timestamp t) const {
  ScopedSpan span(log_, "tstore.get_as_of");
  int64_t t0 = NowNs();
  auto out = inner_->GetAsOf(type, id, t);
  ns_ += NowNs() - t0;
  return out;
}

tcob::Result<std::vector<tcob::AtomVersion>> TimedStore::DoGetVersions(
    const tcob::AtomTypeDef& type, tcob::AtomId id,
    const tcob::Interval& window) const {
  ScopedSpan span(log_, "tstore.get_versions");
  int64_t t0 = NowNs();
  auto out = inner_->GetVersions(type, id, window);
  ns_ += NowNs() - t0;
  return out;
}

TimedStore::VersionCallback TimedStore::Excluding(const VersionCallback& fn,
                                                  int64_t* callback_ns) const {
  return [&fn, callback_ns](const tcob::AtomVersion& v) {
    int64_t t0 = NowNs();
    auto more = fn(v);
    *callback_ns += NowNs() - t0;
    return more;
  };
}

tcob::Status TimedStore::DoScanAsOf(const tcob::AtomTypeDef& type,
                                    tcob::Timestamp t,
                                    const VersionCallback& fn) const {
  int64_t callback_ns = 0;
  int64_t t0 = NowNs();
  tcob::Status st = inner_->ScanAsOf(type, t, Excluding(fn, &callback_ns));
  ns_ += NowNs() - t0 - callback_ns;
  return st;
}

tcob::Status TimedStore::DoScanVersions(const tcob::AtomTypeDef& type,
                                        const tcob::Interval& window,
                                        const VersionCallback& fn) const {
  int64_t callback_ns = 0;
  int64_t t0 = NowNs();
  tcob::Status st =
      inner_->ScanVersions(type, window, Excluding(fn, &callback_ns));
  ns_ += NowNs() - t0 - callback_ns;
  return st;
}

Counters Counters::Of(const tcob::Database& db) {
  const tcob::MetricsSnapshot m = db.MetricsSnapshot();
  Counters c;
  c.store_accesses = m.CounterOr("tcob_store_get_as_of_total") +
                     m.CounterOr("tcob_store_get_versions_total") +
                     m.CounterOr("tcob_store_scan_as_of_total") +
                     m.CounterOr("tcob_store_scan_versions_total");
  c.pool_fetches = m.CounterOr("tcob_pool_fetches_total");
  c.pool_hits = m.CounterOr("tcob_pool_hits_total");
  c.pool_misses = m.CounterOr("tcob_pool_misses_total");
  c.pool_evictions = m.CounterOr("tcob_pool_evictions_total");
  c.disk_reads = m.CounterOr("tcob_disk_reads_total");
  c.disk_writes = m.CounterOr("tcob_disk_writes_total");
  c.wal_appends = m.CounterOr("tcob_wal_appends_total");
  c.wal_bytes = m.CounterOr("tcob_wal_appended_bytes_total");
  c.wal_syncs = m.CounterOr("tcob_wal_syncs_total");
  auto group = m.histograms.find("tcob_wal_group_commit_size");
  if (group != m.histograms.end()) {
    c.group_commits = group->second.count;
    c.group_commit_members = group->second.sum;
  }
  const uint64_t atom_hits = m.CounterOr("tcob_vcache_atom_hits_total");
  const uint64_t link_hits = m.CounterOr("tcob_vcache_link_hits_total");
  c.vcache_hits = atom_hits + link_hits;
  c.vcache_probes = c.vcache_hits +
                    m.CounterOr("tcob_vcache_atom_misses_total") +
                    m.CounterOr("tcob_vcache_link_misses_total");
  c.versions_pinned = m.CounterOr("tcob_vcache_versions_pinned_total");
  c.txn_conflicts = m.CounterOr("tcob_txn_conflicts_total");
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  store_accesses += o.store_accesses;
  pool_fetches += o.pool_fetches;
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  pool_evictions += o.pool_evictions;
  disk_reads += o.disk_reads;
  disk_writes += o.disk_writes;
  wal_appends += o.wal_appends;
  wal_bytes += o.wal_bytes;
  wal_syncs += o.wal_syncs;
  group_commits += o.group_commits;
  group_commit_members += o.group_commit_members;
  vcache_hits += o.vcache_hits;
  vcache_probes += o.vcache_probes;
  versions_pinned += o.versions_pinned;
  txn_conflicts += o.txn_conflicts;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.store_accesses = store_accesses - o.store_accesses;
  d.pool_fetches = pool_fetches - o.pool_fetches;
  d.pool_hits = pool_hits - o.pool_hits;
  d.pool_misses = pool_misses - o.pool_misses;
  d.pool_evictions = pool_evictions - o.pool_evictions;
  d.disk_reads = disk_reads - o.disk_reads;
  d.disk_writes = disk_writes - o.disk_writes;
  d.wal_appends = wal_appends - o.wal_appends;
  d.wal_bytes = wal_bytes - o.wal_bytes;
  d.wal_syncs = wal_syncs - o.wal_syncs;
  d.group_commits = group_commits - o.group_commits;
  d.group_commit_members = group_commit_members - o.group_commit_members;
  d.vcache_hits = vcache_hits - o.vcache_hits;
  d.vcache_probes = vcache_probes - o.vcache_probes;
  d.versions_pinned = versions_pinned - o.versions_pinned;
  d.txn_conflicts = txn_conflicts - o.txn_conflicts;
  return d;
}

}  // namespace tcobbench
