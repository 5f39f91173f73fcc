#ifndef TCOB_STORAGE_BUFFER_POOL_H_
#define TCOB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/trace_ring.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace tcob {

/// Cumulative buffer-pool counters (monotonic since construction).
struct BufferPoolStats {
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  double HitRate() const {
    return fetches ? static_cast<double>(hits) / fetches : 0.0;
  }

  /// The pool slots of one query's work block.
  static BufferPoolStats Of(const QueryWork& w) {
    return {w[QueryWork::kPoolFetches], w[QueryWork::kPoolHits],
            w[QueryWork::kPoolMisses], w[QueryWork::kPoolEvictions],
            w[QueryWork::kPoolDirtyWritebacks]};
  }
};

/// Fixed-capacity page cache with LRU replacement and pin counting,
/// organized as independently latched shards keyed by hash(file, page).
///
/// One pool serves every file of the database, so eviction pressure is
/// shared between heap files and indexes exactly as in the modeled
/// system. The read path (FetchPage / Unpin) is thread-safe: each shard
/// owns its page table and LRU list behind one mutex, frames come from a
/// shared arena, and counters are atomic. Latch discipline: at most one
/// shard latch is held at a time; the arena latch nests strictly inside
/// a shard latch (shard -> arena, never shard -> shard). A shard under
/// memory pressure evicts from its own LRU first and steals an unpinned
/// frame from a sibling shard only after releasing its own latch.
///
/// Pins protect frames against eviction during multi-step operations;
/// page *contents* carry no latch — writers remain single-threaded by
/// design, only readers run concurrently.
class BufferPool {
 public:
  /// `capacity` is the number of page frames held in memory; `shards` is
  /// the number of latched partitions (0 = default, clamped to capacity).
  BufferPool(DiskManager* disk, size_t capacity, size_t shards = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the frame for (file, page_no), pinned. Reads from disk on
  /// miss, verifying the page's checksum footer (mismatch surfaces as
  /// Status::Corruption naming the file and page); may evict an unpinned
  /// LRU frame (writing it back if dirty).
  Result<Page*> FetchPage(FileId file, PageNo page_no);

  /// Allocates a fresh page in `file` and returns its pinned, zeroed frame.
  Result<Page*> NewPage(FileId file);

  /// Releases one pin; marks the frame dirty if `dirty`.
  void Unpin(Page* page, bool dirty);

  /// Writes back a specific dirty page (leaves it cached).
  Status FlushPage(FileId file, PageNo page_no);

  /// Writes back every dirty frame (leaves them cached).
  Status FlushAll();

  /// Drops every frame (must all be unpinned); dirty frames are written.
  Status Reset();

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  BufferPoolStats stats() const;
  void ResetStats();
  DiskManager* disk() const { return disk_; }

  /// Publishes the pool counters into `registry` under tcob_pool_*.
  void RegisterMetrics(MetricsRegistry* registry) const;

  /// Attaches the flight recorder (miss/evict/steal events).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  static uint64_t Key(FileId file, PageNo page_no) {
    return (static_cast<uint64_t>(file) << 32) | page_no;
  }

  /// One latched partition of the page table.
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, Page*> table;
    // LRU list: front = most recently used. Only unpinned pages are
    // eligible for eviction, but all cached pages stay in the list.
    std::list<Page*> lru;
    std::unordered_map<Page*, std::list<Page*>::iterator> lru_pos;
  };

  Shard& ShardOf(uint64_t key) {
    // Fibonacci multiplicative mix so consecutive page numbers spread;
    // shard count is a power of two, so the mask selects uniformly.
    return *shards_[((key * 0x9E3779B97F4A7C15ull) >> 32) & shard_mask_];
  }

  /// Stamps the checksum footer into the frame and writes it to disk.
  /// Every page leaving the pool goes through here, so all on-disk pages
  /// carry a valid footer.
  Status WriteBack(Page* page);

  /// Pops a frame from the shared arena (free list or fresh allocation),
  /// or nullptr when the pool is at capacity.
  Page* TryAcquireArenaFrame();

  /// Evicts the LRU unpinned page of `shard` (latch must be held),
  /// writing it back if dirty. Returns the freed frame, or nullptr when
  /// every cached page of the shard is pinned.
  Result<Page*> EvictFrom(Shard& shard);

  /// Full frame-acquisition protocol for `shard` (latch held on entry
  /// and on return): arena, own-shard eviction, then stealing from
  /// sibling shards (which drops and re-takes `lock`, so the caller must
  /// re-check its page table). Returns nullptr after a steal round that
  /// freed a frame into the arena; ResourceExhausted when no unpinned
  /// frame exists anywhere.
  Result<Page*> AcquireFrame(Shard& shard, std::unique_lock<std::mutex>& lock);

  void TouchLru(Shard& shard, Page* page);

  DiskManager* disk_;
  size_t capacity_;
  uint64_t shard_mask_;  // shard count - 1 (count is a power of two)
  std::vector<std::unique_ptr<Shard>> shards_;

  // Frame arena, shared by all shards.
  std::mutex arena_mu_;
  std::vector<std::unique_ptr<Page>> frames_;
  std::vector<Page*> free_frames_;

  // Relaxed-atomic Counters (see common/metrics.h): exact under the
  // concurrent read path, lock-free on the fetch hot path.
  Counter fetches_{QueryWork::kPoolFetches};
  Counter hits_{QueryWork::kPoolHits};
  Counter misses_{QueryWork::kPoolMisses};
  Counter evictions_{QueryWork::kPoolEvictions};
  Counter dirty_writebacks_{QueryWork::kPoolDirtyWritebacks};
  TraceRecorder* trace_ = nullptr;
};

/// RAII pin guard: unpins on scope exit.
class PageGuard {
 public:
  PageGuard() : pool_(nullptr), page_(nullptr), dirty_(false) {}
  PageGuard(BufferPool* pool, Page* page)
      : pool_(pool), page_(page), dirty_(false) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& o) noexcept
      : pool_(o.pool_), page_(o.page_), dirty_(o.dirty_) {
    o.pool_ = nullptr;
    o.page_ = nullptr;
    o.dirty_ = false;
  }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      page_ = o.page_;
      dirty_ = o.dirty_;
      o.pool_ = nullptr;
      o.page_ = nullptr;
      o.dirty_ = false;
    }
    return *this;
  }

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  char* data() const { return page_->data; }
  void MarkDirty() { dirty_ = true; }
  bool dirty() const { return dirty_; }

  void Release() {
    if (pool_ && page_) {
      pool_->Unpin(page_, dirty_);
      pool_ = nullptr;
      page_ = nullptr;
      dirty_ = false;
    }
  }

 private:
  BufferPool* pool_;
  Page* page_;
  bool dirty_;
};

}  // namespace tcob

#endif  // TCOB_STORAGE_BUFFER_POOL_H_
