#include "common/trace_ring.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace tcob {

namespace {

/// Steady-clock microseconds (the same clock every span timer in the
/// engine uses, so trace timestamps line up with EXPLAIN ANALYZE).
uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One-entry thread-local ring cache. Most threads talk to one recorder
/// at a time (their database's); switching recorders falls back to the
/// registry lookup under the recorder mutex.
thread_local uint64_t g_cached_recorder_id = 0;
thread_local void* g_cached_ring = nullptr;
/// Set when the thread's ordinal has been returned (thread exit): from
/// then on the thread records nothing, as its rings may have a new owner.
thread_local bool g_ordinal_released = false;

/// Small process-wide thread ordinal: stable for the thread's lifetime
/// and far more readable in a trace viewer than a pthread id. Ordinals
/// are recycled when their thread exits, so the next new thread takes
/// over the dead thread's rings instead of registering fresh ones — a
/// per-query producer thread must not leave a ring behind per query.
/// The mutex hand-off orders the dead writer's ring stores before the
/// new writer's.
class ThreadOrdinal {
 public:
  ThreadOrdinal() {
    Pool& pool = Shared();
    std::lock_guard<std::mutex> lock(pool.mu);
    if (pool.free.empty()) {
      value_ = pool.next++;
    } else {
      value_ = pool.free.back();
      pool.free.pop_back();
    }
  }
  ~ThreadOrdinal() {
    Pool& pool = Shared();
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.free.push_back(value_);
    g_ordinal_released = true;
    g_cached_recorder_id = 0;
    g_cached_ring = nullptr;
  }
  uint32_t value() const { return value_; }

 private:
  struct Pool {
    std::mutex mu;
    uint32_t next = 1;
    std::vector<uint32_t> free;
  };
  /// Leaked, so threads exiting during static destruction still find it.
  static Pool& Shared() {
    static Pool* pool = new Pool;
    return *pool;
  }

  uint32_t value_ = 0;
};

uint32_t ThisThreadOrdinal() {
  thread_local ThreadOrdinal ordinal;
  return ordinal.value();
}

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

constexpr size_t kWordsPerEvent = 4;

}  // namespace

const char* TraceCategoryName(uint32_t cat_bit) {
  switch (cat_bit) {
    case kTraceCatQuery: return "query";
    case kTraceCatSpan: return "span";
    case kTraceCatWal: return "wal";
    case kTraceCatCheckpoint: return "checkpoint";
    case kTraceCatTier: return "tier";
    case kTraceCatPool: return "pool";
    case kTraceCatAdmission: return "admission";
    case kTraceCatCancel: return "cancel";
    case kTraceCatBudget: return "budget";
    case kTraceCatHealth: return "health";
    case kTraceCatIo: return "io";
    case kTraceCatTxn: return "txn";
    default: return "?";
  }
}

uint32_t TraceEventCategory(TraceEventType t) {
  switch (t) {
    case TraceEventType::kQueryBegin:
    case TraceEventType::kQueryEnd:
      return kTraceCatQuery;
    case TraceEventType::kSpanBegin:
    case TraceEventType::kSpanEnd:
      return kTraceCatSpan;
    case TraceEventType::kWalAppend:
    case TraceEventType::kWalFsyncBegin:
    case TraceEventType::kWalFsyncEnd:
      return kTraceCatWal;
    case TraceEventType::kCheckpointPhaseBegin:
    case TraceEventType::kCheckpointPhaseEnd:
      return kTraceCatCheckpoint;
    case TraceEventType::kTierPhaseBegin:
    case TraceEventType::kTierPhaseEnd:
    case TraceEventType::kTierSegmentBuild:
      return kTraceCatTier;
    case TraceEventType::kPoolMiss:
    case TraceEventType::kPoolEvict:
    case TraceEventType::kPoolSteal:
      return kTraceCatPool;
    case TraceEventType::kAdmissionEnqueue:
    case TraceEventType::kAdmissionGrant:
    case TraceEventType::kAdmissionTimeout:
      return kTraceCatAdmission;
    case TraceEventType::kCancelFire:
    case TraceEventType::kDeadlineFire:
      return kTraceCatCancel;
    case TraceEventType::kBudgetRefusal:
    case TraceEventType::kBudgetPressure:
      return kTraceCatBudget;
    case TraceEventType::kHealthTransition:
      return kTraceCatHealth;
    case TraceEventType::kIoRetry:
      return kTraceCatIo;
    case TraceEventType::kTxnBegin:
    case TraceEventType::kTxnCommit:
    case TraceEventType::kTxnAbort:
    case TraceEventType::kTxnConflict:
      return kTraceCatTxn;
  }
  return kTraceCatQuery;
}

char TraceEventPhase(TraceEventType t) {
  switch (t) {
    case TraceEventType::kQueryBegin:
    case TraceEventType::kSpanBegin:
    case TraceEventType::kWalFsyncBegin:
    case TraceEventType::kCheckpointPhaseBegin:
    case TraceEventType::kTierPhaseBegin:
      return 'B';
    case TraceEventType::kQueryEnd:
    case TraceEventType::kSpanEnd:
    case TraceEventType::kWalFsyncEnd:
    case TraceEventType::kCheckpointPhaseEnd:
    case TraceEventType::kTierPhaseEnd:
      return 'E';
    default:
      return 'i';
  }
}

namespace {

const char* SpanName(uint64_t arg) {
  switch (static_cast<TraceSpanId>(arg)) {
    case TraceSpanId::kPlan: return "plan";
    case TraceSpanId::kExecute: return "execute";
    case TraceSpanId::kAggregate: return "aggregate";
    case TraceSpanId::kSort: return "sort";
    case TraceSpanId::kStream: return "stream";
    case TraceSpanId::kWorker: return "worker";
  }
  return "span";
}

const char* CheckpointPhaseName(uint64_t arg) {
  switch (static_cast<TraceCheckpointPhase>(arg)) {
    case TraceCheckpointPhase::kFlushPages: return "ckpt:flush_pages";
    case TraceCheckpointPhase::kSaveCatalog: return "ckpt:save_catalog";
    case TraceCheckpointPhase::kJournalCommit: return "ckpt:journal_commit";
    case TraceCheckpointPhase::kJournalApply: return "ckpt:journal_apply";
    case TraceCheckpointPhase::kSaveMeta: return "ckpt:save_meta";
    case TraceCheckpointPhase::kWalTruncate: return "ckpt:wal_truncate";
  }
  return "ckpt";
}

const char* TierPhaseName(uint64_t arg) {
  switch (static_cast<TraceTierPhase>(arg)) {
    case TraceTierPhase::kCheckpoint: return "tier:checkpoint";
    case TraceTierPhase::kCollect: return "tier:collect";
    case TraceTierPhase::kMigrate: return "tier:migrate";
    case TraceTierPhase::kRelease: return "tier:release";
  }
  return "tier";
}

}  // namespace

const char* TraceEventName(TraceEventType t, uint64_t arg) {
  switch (t) {
    case TraceEventType::kQueryBegin:
    case TraceEventType::kQueryEnd:
      return "query";
    case TraceEventType::kSpanBegin:
    case TraceEventType::kSpanEnd:
      return SpanName(arg);
    case TraceEventType::kWalAppend: return "wal_append";
    case TraceEventType::kWalFsyncBegin:
    case TraceEventType::kWalFsyncEnd:
      return "wal_fsync";
    case TraceEventType::kCheckpointPhaseBegin:
    case TraceEventType::kCheckpointPhaseEnd:
      return CheckpointPhaseName(arg);
    case TraceEventType::kTierPhaseBegin:
    case TraceEventType::kTierPhaseEnd:
      return TierPhaseName(arg);
    case TraceEventType::kTierSegmentBuild: return "tier_segment";
    case TraceEventType::kPoolMiss: return "pool_miss";
    case TraceEventType::kPoolEvict: return "pool_evict";
    case TraceEventType::kPoolSteal: return "pool_steal";
    case TraceEventType::kAdmissionEnqueue: return "admission_enqueue";
    case TraceEventType::kAdmissionGrant: return "admission_grant";
    case TraceEventType::kAdmissionTimeout: return "admission_timeout";
    case TraceEventType::kCancelFire: return "cancel_fire";
    case TraceEventType::kDeadlineFire: return "deadline_fire";
    case TraceEventType::kBudgetRefusal: return "budget_refusal";
    case TraceEventType::kBudgetPressure: return "budget_pressure";
    case TraceEventType::kHealthTransition: return "health_transition";
    case TraceEventType::kIoRetry: return "io_retry";
    case TraceEventType::kTxnBegin: return "txn_begin";
    case TraceEventType::kTxnCommit: return "txn_commit";
    case TraceEventType::kTxnAbort: return "txn_abort";
    case TraceEventType::kTxnConflict: return "txn_conflict";
  }
  return "event";
}

int TraceCategoryIndex(uint32_t cat_bit) {
  for (int i = 0; i < kTraceCategoryCount; ++i) {
    if (cat_bit == (1u << i)) return i;
  }
  return 0;
}

/// One thread's single-writer ring: `capacity` fixed 4-word slots plus
/// a head counter. The writer fills the slot's words (relaxed) and then
/// publishes with a release store of head; readers acquire-load head,
/// copy, re-load head and discard anything the writer could have lapped
/// (index <= head' - capacity). All cross-thread words are atomic, so
/// concurrent dump-while-recording is TSan-clean by construction.
struct TraceRecorder::Ring {
  Ring(size_t capacity_events, uint32_t thread_ordinal)
      : capacity(capacity_events),
        tid(thread_ordinal),
        words(std::make_unique<std::atomic<uint64_t>[]>(capacity_events *
                                                        kWordsPerEvent)) {
    for (size_t i = 0; i < capacity * kWordsPerEvent; ++i) {
      words[i].store(0, std::memory_order_relaxed);
    }
  }

  const size_t capacity;
  const uint32_t tid;
  std::unique_ptr<std::atomic<uint64_t>[]> words;
  std::atomic<uint64_t> head{0};
};

TraceRecorder::TraceRecorder(const TraceOptions& options)
    : id_(NextRecorderId()),
      enabled_(options.enabled),
      configured_mask_(options.categories),
      live_mask_(options.enabled ? options.categories : 0),
      ring_capacity_(std::max<uint64_t>(
          64, options.ring_bytes / (kWordsPerEvent * sizeof(uint64_t)))) {}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  live_mask_.store(on ? configured_mask_.load(std::memory_order_relaxed) : 0,
                   std::memory_order_relaxed);
}

void TraceRecorder::set_categories(uint32_t mask) {
  configured_mask_.store(mask, std::memory_order_relaxed);
  if (enabled_.load(std::memory_order_relaxed)) {
    live_mask_.store(mask, std::memory_order_relaxed);
  }
}

TraceRecorder::Ring* TraceRecorder::RingForThisThread() {
  if (g_cached_recorder_id == id_) {
    return static_cast<Ring*>(g_cached_ring);
  }
  if (g_ordinal_released) return nullptr;
  uint32_t tid = ThisThreadOrdinal();
  std::lock_guard<std::mutex> lock(mu_);
  Ring* ring = nullptr;
  for (const auto& r : rings_) {
    if (r->tid == tid) {
      ring = r.get();
      break;
    }
  }
  if (ring == nullptr) {
    rings_.push_back(std::make_unique<Ring>(ring_capacity_, tid));
    ring = rings_.back().get();
  }
  g_cached_recorder_id = id_;
  g_cached_ring = ring;
  return ring;
}

void TraceRecorder::Emit(TraceEventType type, uint64_t arg) {
  uint32_t cat = TraceEventCategory(type);
  if ((live_mask_.load(std::memory_order_relaxed) & cat) == 0) return;
  Record(NowMicros(), type, arg, ThreadQueryTag().id);
}

void TraceRecorder::EmitAt(uint64_t ts_us, TraceEventType type, uint64_t arg,
                           uint64_t query_id) {
  uint32_t cat = TraceEventCategory(type);
  if ((live_mask_.load(std::memory_order_relaxed) & cat) == 0) return;
  Record(ts_us, type, arg, query_id);
}

void TraceRecorder::Record(uint64_t ts_us, TraceEventType type, uint64_t arg,
                           uint64_t query_id) {
  Ring* ring = RingForThisThread();
  if (ring == nullptr) return;
  uint64_t seq = ring->head.load(std::memory_order_relaxed);
  size_t base = (seq % ring->capacity) * kWordsPerEvent;
  if (seq >= ring->capacity) {
    // Overwriting the oldest event: classify the drop from the old
    // slot's packed type word (this thread wrote it, so it's coherent).
    uint64_t old_w1 = ring->words[base + 1].load(std::memory_order_relaxed);
    auto old_type = static_cast<TraceEventType>(old_w1 & 0xffffu);
    dropped_[TraceCategoryIndex(TraceEventCategory(old_type))].Increment();
  }
  ring->words[base].store(ts_us, std::memory_order_relaxed);
  ring->words[base + 1].store(
      (static_cast<uint64_t>(ring->tid) << 32) |
          static_cast<uint64_t>(static_cast<uint16_t>(type)),
      std::memory_order_relaxed);
  ring->words[base + 2].store(query_id, std::memory_order_relaxed);
  ring->words[base + 3].store(arg, std::memory_order_relaxed);
  ring->head.store(seq + 1, std::memory_order_release);
  recorded_[TraceCategoryIndex(TraceEventCategory(type))].Increment();
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  struct Raw {
    uint64_t seq;
    TraceEvent ev;
  };
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    uint64_t h1 = ring->head.load(std::memory_order_acquire);
    uint64_t window = std::min<uint64_t>(h1, ring->capacity);
    std::vector<Raw> local;
    local.reserve(window);
    for (uint64_t seq = h1 - window; seq < h1; ++seq) {
      size_t base = (seq % ring->capacity) * kWordsPerEvent;
      Raw r;
      r.seq = seq;
      r.ev.ts_us = ring->words[base].load(std::memory_order_relaxed);
      uint64_t w1 = ring->words[base + 1].load(std::memory_order_relaxed);
      r.ev.tid = static_cast<uint32_t>(w1 >> 32);
      r.ev.type = static_cast<TraceEventType>(w1 & 0xffffu);
      r.ev.query_id = ring->words[base + 2].load(std::memory_order_relaxed);
      r.ev.arg = ring->words[base + 3].load(std::memory_order_relaxed);
      local.push_back(r);
    }
    // Anything the writer may have lapped while we copied is torn —
    // including the slot of the write possibly in flight at head', which
    // reuses the slot of seq head' - capacity. Discard both.
    uint64_t h2 = ring->head.load(std::memory_order_acquire);
    for (const Raw& r : local) {
      if (h2 >= ring->capacity && r.seq <= h2 - ring->capacity) continue;
      out.push_back(r.ev);
    }
  }
  // Global timeline; stable so same-microsecond events keep their
  // per-thread program order (each ring was appended in order).
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::string TraceRecorder::DumpJson() const {
  std::vector<TraceEvent> events = Snapshot();

  // Strictly balance spans per thread: a close whose open was
  // overwritten (or whose name no longer matches the innermost open) is
  // dropped; opens still dangling at the end are closed at the last
  // timestamp. The result always satisfies LIFO name-matched balance.
  struct Open {
    size_t index;
    const char* name;
  };
  std::vector<char> keep(events.size(), 1);
  std::vector<std::pair<uint32_t, std::vector<Open>>> stacks;
  auto stack_of = [&stacks](uint32_t tid) -> std::vector<Open>& {
    for (auto& [t, s] : stacks) {
      if (t == tid) return s;
    }
    stacks.emplace_back(tid, std::vector<Open>{});
    return stacks.back().second;
  };
  uint64_t last_ts = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (ev.ts_us > last_ts) last_ts = ev.ts_us;
    char ph = TraceEventPhase(ev.type);
    if (ph == 'B') {
      stack_of(ev.tid).push_back({i, TraceEventName(ev.type, ev.arg)});
    } else if (ph == 'E') {
      auto& stack = stack_of(ev.tid);
      const char* name = TraceEventName(ev.type, ev.arg);
      if (!stack.empty() &&
          std::string(stack.back().name) == name) {
        stack.pop_back();
      } else {
        keep[i] = 0;  // orphaned close
      }
    }
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"ts\":0,\"args\":{\"name\":\"tcob\"}}";
  auto emit_one = [&os](const char* name, const char* cat, char ph,
                        uint64_t ts, uint32_t tid, uint64_t qid,
                        uint64_t arg) {
    os << ",{\"name\":\"" << name << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"" << ph << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":"
       << tid;
    if (ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"args\":{\"qid\":" << qid << ",\"arg\":" << arg << "}}";
  };
  for (size_t i = 0; i < events.size(); ++i) {
    if (!keep[i]) continue;
    const TraceEvent& ev = events[i];
    emit_one(TraceEventName(ev.type, ev.arg),
             TraceCategoryName(TraceEventCategory(ev.type)),
             TraceEventPhase(ev.type), ev.ts_us, ev.tid, ev.query_id,
             ev.arg);
  }
  // Close dangling opens (LIFO per thread) so viewers and the validator
  // see balanced spans even mid-flight.
  for (auto& [tid, stack] : stacks) {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const TraceEvent& b = events[it->index];
      emit_one(it->name, TraceCategoryName(TraceEventCategory(b.type)), 'E',
               last_ts, tid, b.query_id, b.arg);
    }
  }
  os << "]}";
  return os.str();
}

bool TraceRecorder::DumpToFile(const std::string& path) const {
  std::string json = DumpJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t n = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = (n == json.size());
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

void TraceRecorder::RegisterMetrics(MetricsRegistry* registry) const {
  for (int i = 0; i < kTraceCategoryCount; ++i) {
    std::string cat = TraceCategoryName(1u << i);
    registry->RegisterCounter("tcob_trace_" + cat + "_recorded_total",
                              &recorded_[i]);
    registry->RegisterCounter("tcob_trace_" + cat + "_dropped_total",
                              &dropped_[i]);
  }
}

}  // namespace tcob
