#ifndef TCOB_TSTORE_COLD_TIER_H_
#define TCOB_TSTORE_COLD_TIER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/resource_budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/heap_file.h"
#include "tstore/segment.h"
#include "tstore/temporal_store.h"

namespace tcob {

/// Space accounting of the cold tier for one atom type.
struct ColdSpaceStats {
  uint64_t segments = 0;
  uint64_t versions = 0;
  uint64_t blob_bytes = 0;   // compressed segment payload bytes
  uint64_t total_pages = 0;  // on-disk pages of the cold heap file
};

/// Cumulative migration accounting (monotonic counters).
struct ColdTierMigrationStats {
  uint64_t segments_built = 0;
  uint64_t versions_migrated = 0;
  uint64_t input_bytes = 0;   // full-record encoding of migrated versions
  uint64_t output_bytes = 0;  // delta-compressed segment bytes
};

/// The cold-history tier: immutable delta-compressed segments holding
/// closed atom versions older than the tiering watermark.
///
/// One heap file per atom type ("<prefix>_cold_<type>"), each record one
/// segment blob, read and written through the shared BufferPool — so
/// cold pages carry CRC footers, compete for the same frames, and every
/// mutation (migration append, vacuum drop/rewrite) stages in the page
/// journal and becomes durable only at the enclosing checkpoint's commit
/// point, exactly like the live stores.
///
/// Read paths prune on the per-segment fence interval and atom-id range
/// before touching a page; the pruned/scanned counters feed EXPLAIN
/// ANALYZE. The hot stores guarantee (anchor rule) that every atom with
/// cold versions still has at least one hot version, and that all cold
/// versions of an atom are strictly older than its hot ones.
class ColdTier {
 public:
  ColdTier(BufferPool* pool, std::string prefix)
      : pool_(pool), prefix_(std::move(prefix)) {}

  ColdTier(const ColdTier&) = delete;
  ColdTier& operator=(const ColdTier&) = delete;

  /// In-memory descriptor of one segment record.
  struct SegmentInfo {
    Rid rid;
    Interval fence;
    AtomId min_atom = kInvalidAtomId;
    AtomId max_atom = kInvalidAtomId;
    uint32_t atom_count = 0;
    uint64_t version_count = 0;
    uint64_t bytes = 0;
  };

  /// Appends segments holding `atoms` (per atom: closed versions in
  /// ascending begin order), partitioned so each segment's input stays
  /// near `segment_target_bytes`. Segment encoding is CPU-only and fans
  /// out on `encoder_pool` when provided; heap appends stay serial.
  /// Returns the number of versions written.
  Result<uint64_t> Migrate(
      const AtomTypeDef& type,
      const std::map<AtomId, std::vector<AtomVersion>>& atoms,
      ThreadPool* encoder_pool, uint64_t segment_target_bytes);

  /// Every cold version of `id` overlapping `window`, ascending begin.
  Result<std::vector<AtomVersion>> VersionsOf(const AtomTypeDef& type,
                                              AtomId id,
                                              const Interval& window) const;

  /// All cold versions of every atom overlapping `window`, merged into
  /// *out (appended per atom, then each atom's list sorted by begin).
  Status CollectAll(const AtomTypeDef& type, const Interval& window,
                    std::map<AtomId, std::vector<AtomVersion>>* out) const;

  /// Cheap gate: false when no segment's atom-id range covers `id`.
  /// Never touches a payload page (directory metadata only).
  Result<bool> MightHave(const AtomTypeDef& type, AtomId id) const;

  /// Drops every cold version whose validity ends at or before `cutoff`:
  /// whole segments with fence.end <= cutoff are deleted without being
  /// read; straddling segments are decoded, filtered and rewritten.
  /// Returns the number of versions removed.
  Result<uint64_t> VacuumBefore(const AtomTypeDef& type, Timestamp cutoff);

  /// Re-opens and fully decodes every segment (CRC, structure, interval
  /// sanity) and cross-checks the in-memory catalog against it.
  Status VerifyIntegrity(const AtomTypeDef& type) const;

  Result<ColdSpaceStats> SpaceStats(const AtomTypeDef& type) const;

  /// Copies of the segment descriptors of `type` (for `.tiering`).
  Result<std::vector<SegmentInfo>> Segments(const AtomTypeDef& type) const;

  ColdTierAccessStats access_stats() const {
    ColdTierAccessStats s;
    s.segments_pruned = segments_pruned_.value();
    s.segments_scanned = segments_scanned_.value();
    s.cold_versions = cold_versions_read_.value();
    return s;
  }
  void ResetAccessStats() const {
    segments_pruned_.Reset();
    segments_scanned_.Reset();
    cold_versions_read_.Reset();
  }

  ColdTierMigrationStats migration_stats() const {
    ColdTierMigrationStats s;
    s.segments_built = segments_built_.value();
    s.versions_migrated = versions_migrated_.value();
    s.input_bytes = input_bytes_.value();
    s.output_bytes = output_bytes_.value();
    return s;
  }

  /// Charges segment decode buffers against `budget` (may be null) for
  /// the duration of each decode. A refused charge never fails a read —
  /// it only counts as budget pressure.
  void set_memory_budget(ResourceBudget* budget) { memory_budget_ = budget; }

  /// Attaches the flight recorder (segment-build events).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Publishes the tier counters into `registry` under tcob_cold_*.
  void RegisterMetrics(MetricsRegistry* registry) const {
    registry->RegisterCounter("tcob_cold_segments_pruned_total",
                              &segments_pruned_);
    registry->RegisterCounter("tcob_cold_segments_scanned_total",
                              &segments_scanned_);
    registry->RegisterCounter("tcob_cold_versions_read_total",
                              &cold_versions_read_);
    registry->RegisterCounter("tcob_cold_segments_built_total",
                              &segments_built_);
    registry->RegisterCounter("tcob_cold_versions_migrated_total",
                              &versions_migrated_);
    registry->RegisterCounter("tcob_cold_input_bytes_total", &input_bytes_);
    registry->RegisterCounter("tcob_cold_output_bytes_total", &output_bytes_);
  }

 private:
  struct TypeState {
    std::unique_ptr<HeapFile> heap;
    std::vector<SegmentInfo> segments;
  };

  std::string HeapName(TypeId type) const {
    return prefix_ + "_cold_" + std::to_string(type);
  }

  /// Returns the cached state for `type`, rebuilding the in-memory
  /// segment catalog from the heap file on first touch. Read paths pass
  /// create=false and get nullptr when no cold file exists; the
  /// migration path passes create=true and formats one.
  Result<TypeState*> EnsureState(const AtomTypeDef& type, bool create) const;

  Result<SegmentInfo> DescribeBlob(const Rid& rid, const std::string& blob,
                                   const AtomTypeDef& type) const;

  BufferPool* pool_;
  std::string prefix_;
  ResourceBudget* memory_budget_ = nullptr;
  TraceRecorder* trace_ = nullptr;

  // Lazy catalog; guarded by mu_ for load/registration. Loaded states
  // are only mutated by the single-threaded write path (migrate,
  // vacuum), while concurrent query workers read them lock-free.
  mutable std::mutex mu_;
  mutable std::map<TypeId, std::unique_ptr<TypeState>> types_;

  mutable Counter segments_pruned_{QueryWork::kColdSegmentsPruned};
  mutable Counter segments_scanned_{QueryWork::kColdSegmentsScanned};
  mutable Counter cold_versions_read_{QueryWork::kColdVersions};
  mutable Counter segments_built_;
  mutable Counter versions_migrated_;
  mutable Counter input_bytes_;
  mutable Counter output_bytes_;
};

}  // namespace tcob

#endif  // TCOB_TSTORE_COLD_TIER_H_
