#include "db/database.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "query/cursor.h"
#include "query/executor.h"
#include "query/planner.h"
#include "wal/log_record.h"

namespace tcob {

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kReadOnly:
      return "read-only";
    case HealthState::kFailed:
      return "failed";
  }
  return "unknown";
}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& dir, const DatabaseOptions& options) {
  std::unique_ptr<Database> db(new Database(dir, options));
  TCOB_RETURN_NOT_OK(db->Init());
  return db;
}

Database::~Database() {
  // A Transaction still alive sees the token expire and degrades to
  // FailedPrecondition instead of dereferencing freed components.
  alive_token_.reset();
  if (!initialized_) {
    // Open failed partway; the directory's contents are untrusted and
    // must not be overwritten by a best-effort flush.
    return;
  }
  if (options_.read_only) {
    // A read-only open promises to leave the directory untouched.
    return;
  }
  if (!fail_stop_.ok()) {
    // A stable-storage write already failed; we cannot tell what is
    // durable, so write nothing more — recovery from the WAL is the
    // source of truth.
    return;
  }
  // A full checkpoint: the meta watermark may only advance in lockstep
  // with the journaled pages being applied, and Checkpoint is the one
  // code path that guarantees that.
  Status s = Checkpoint();
  if (!s.ok()) {
    TCOB_LOG(kError) << "checkpoint on close failed: " << s.ToString();
  }
}

Status Database::Init() {
  env_ = options_.env != nullptr ? options_.env : IoEnv::Default();
  memory_budget_.set_trace(&trace_rec_);
  admission_.set_trace(&trace_rec_);
  if (options_.io_retry.enabled()) {
    // Every component below sees the retrying decorator; transient read
    // failures are absorbed (bounded backoff) instead of surfacing.
    retry_env_ = std::make_unique<RetryingIoEnv>(env_, options_.io_retry);
    retry_env_->set_trace(&trace_rec_);
    env_ = retry_env_.get();
  }
  TCOB_RETURN_NOT_OK(env_->CreateDir(dir_));
  // Page-journal recovery runs before anything reads a data page: a
  // committed journal is a checkpoint whose in-place apply was cut
  // short, and its pages plus its meta watermark must win together.
  journal_ = std::make_unique<PageJournal>(env_, dir_);
  TCOB_ASSIGN_OR_RETURN(JournalRecovery jrec, journal_->Open());
  if (jrec.committed) {
    TCOB_RETURN_NOT_OK(journal_->ApplyCommitted());
    TCOB_RETURN_NOT_OK(
        WriteFileAtomic(env_, dir_ + "/clock.tcob", jrec.meta_blob));
  }
  TCOB_RETURN_NOT_OK(journal_->Reset());
  TCOB_ASSIGN_OR_RETURN(disk_, DiskManager::Open(dir_, env_, journal_.get()));
  pool_ = std::make_unique<BufferPool>(disk_.get(), options_.buffer_pool_pages);
  pool_->set_trace(&trace_rec_);
  size_t workers = options_.parallelism;
  if (workers == 0) {
    // The CPUs this thread may run on, not the machine's: a process
    // pinned to one CPU gains nothing from fan-out workers.
    cpu_set_t allowed;
    workers = sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                  ? static_cast<size_t>(CPU_COUNT(&allowed))
                  : std::thread::hardware_concurrency();
    workers = std::max<size_t>(1, workers);
  }
  if (workers > 1) {
    query_pool_ = std::make_unique<ThreadPool>(workers);
  }
  Result<Catalog> loaded = Catalog::LoadFromFile(env_, dir_ + "/catalog.tcob");
  if (loaded.ok()) {
    catalog_ = std::move(loaded).value();
  } else if (!loaded.status().IsNotFound()) {
    return loaded.status();
  }
  store_ = MakeTemporalStore(options_.strategy, pool_.get(),
                             std::string(StorageStrategyName(
                                 options_.strategy)),
                             options_.store);
  if (options_.tiering.enabled) {
    // Attached before recovery, so every store read from here on sees
    // the full history (replay's index-maintenance lookups included).
    cold_tier_ = std::make_unique<ColdTier>(
        pool_.get(), std::string(StorageStrategyName(options_.strategy)));
    cold_tier_->set_memory_budget(&memory_budget_);
    cold_tier_->set_trace(&trace_rec_);
    store_->AttachColdTier(cold_tier_.get());
  }
  links_ = std::make_unique<LinkStore>(pool_.get(), "links");
  attr_indexes_ = std::make_unique<AttrIndexManager>(pool_.get(), &catalog_);
  TCOB_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(dir_ + "/wal.log", env_));
  wal_->set_trace(&trace_rec_);
  TCOB_RETURN_NOT_OK(LoadMeta());
  TCOB_RETURN_NOT_OK(Recover());
  recovery_stats_.journal_pages_applied =
      jrec.committed ? jrec.committed_pages : 0;
  recovery_stats_.journal_discarded_bytes = jrec.discarded_bytes;
  if (!options_.read_only && (recovery_stats_.discarded_txn_ops > 0 ||
                              recovery_stats_.wal_dropped_tail_bytes > 0)) {
    // Recovery ignored records that are still physically in the log
    // (orphaned uncommitted-transaction operations, a torn tail) and
    // consumed no sequence numbers for them. New appends would land
    // *after* those remnants while reusing their op_seqs — and a commit
    // record reusing an orphaned txn id would make the next recovery
    // replay the orphan as committed. Checkpointing here flushes the
    // recovered state and truncates the log, so remnants never coexist
    // with new records. On failure the instance opens degraded
    // (poisoned read-only by CheckpointLocked): mutations stay refused
    // until TryRecover's checkpoint succeeds, so the hazard cannot
    // materialize through the degraded instance either.
    Status cleaned = Checkpoint();
    if (!cleaned.ok()) {
      TCOB_LOG(kError) << "post-recovery WAL cleanup checkpoint failed: "
                       << cleaned.ToString();
    }
  }
  RegisterMetrics();
  initialized_ = true;
  return Status::OK();
}

void Database::RegisterMetrics() {
  trace_rec_.RegisterMetrics(&metrics_);
  store_->RegisterMetrics(&metrics_);
  if (cold_tier_ != nullptr) cold_tier_->RegisterMetrics(&metrics_);
  pool_->RegisterMetrics(&metrics_);
  disk_->RegisterMetrics(&metrics_);
  wal_->RegisterMetrics(&metrics_);
  metrics_.RegisterCounter("tcob_statements_total", &statements_total_);
  metrics_.RegisterCounter("tcob_queries_total", &queries_total_);
  metrics_.RegisterCounter("tcob_slow_queries_total", &slow_queries_total_);
  metrics_.RegisterCounter("tcob_checkpoints_total", &checkpoints_total_);
  metrics_.RegisterCounter("tcob_vcache_atom_hits_total",
                           &vcache_atom_hits_total_);
  metrics_.RegisterCounter("tcob_vcache_atom_misses_total",
                           &vcache_atom_misses_total_);
  metrics_.RegisterCounter("tcob_vcache_link_hits_total",
                           &vcache_link_hits_total_);
  metrics_.RegisterCounter("tcob_vcache_link_misses_total",
                           &vcache_link_misses_total_);
  metrics_.RegisterCounter("tcob_vcache_versions_pinned_total",
                           &vcache_versions_pinned_total_);
  metrics_.RegisterCounter("tcob_query_cancelled_total",
                           &query_cancelled_total_);
  metrics_.RegisterCounter("tcob_query_deadline_exceeded_total",
                           &query_deadline_exceeded_total_);
  metrics_.RegisterCounter("tcob_txns_begun_total", &txns_begun_total_);
  metrics_.RegisterCounter("tcob_txns_committed_total",
                           &txns_committed_total_);
  metrics_.RegisterCounter("tcob_txns_aborted_total", &txns_aborted_total_);
  metrics_.RegisterCounter("tcob_txn_conflicts_total",
                           &txn_conflicts_total_);
  metrics_.RegisterHistogram("tcob_query_latency_us", &query_latency_us_);
  metrics_.RegisterHistogram("tcob_wal_group_commit_size",
                             &group_commit_size_);
  metrics_.RegisterGaugeFn("tcob_txns_active", [this]() {
    return static_cast<int64_t>(txn_manager_.active_txns());
  });
  metrics_.RegisterGaugeFn("tcob_clock_now", [this]() {
    return static_cast<int64_t>(Now());
  });
  metrics_.RegisterGaugeFn("tcob_health_state", [this]() {
    return static_cast<int64_t>(health_state());
  });
  metrics_.RegisterGaugeFn("tcob_memory_budget_cap_bytes", [this]() {
    return static_cast<int64_t>(memory_budget_.cap());
  });
  metrics_.RegisterGaugeFn("tcob_memory_charged_bytes", [this]() {
    return static_cast<int64_t>(memory_budget_.charged());
  });
  metrics_.RegisterGaugeFn("tcob_memory_peak_bytes", [this]() {
    return static_cast<int64_t>(memory_budget_.peak());
  });
  metrics_.RegisterGaugeFn("tcob_memory_budget_rejections_total", [this]() {
    return static_cast<int64_t>(memory_budget_.rejected());
  });
  metrics_.RegisterGaugeFn("tcob_admission_inflight", [this]() {
    return static_cast<int64_t>(admission_.inflight());
  });
  metrics_.RegisterGaugeFn("tcob_admission_queue_depth", [this]() {
    return static_cast<int64_t>(admission_.queue_depth());
  });
  metrics_.RegisterGaugeFn("tcob_admission_peak_queue_depth", [this]() {
    return static_cast<int64_t>(admission_.peak_queue_depth());
  });
  metrics_.RegisterGaugeFn("tcob_admission_admitted_total", [this]() {
    return static_cast<int64_t>(admission_.admitted());
  });
  metrics_.RegisterGaugeFn("tcob_admission_rejected_total", [this]() {
    return static_cast<int64_t>(admission_.rejected());
  });
  metrics_.RegisterGaugeFn("tcob_io_retries_total", [this]() {
    return retry_env_ != nullptr
               ? static_cast<int64_t>(retry_env_->retries())
               : 0;
  });
  metrics_.RegisterGaugeFn("tcob_recovery_replayed_ops", [this]() {
    return static_cast<int64_t>(recovery_stats_.replayed_ops);
  });
  metrics_.RegisterGaugeFn("tcob_recovery_skipped_ops", [this]() {
    return static_cast<int64_t>(recovery_stats_.skipped_ops);
  });
  metrics_.RegisterGaugeFn("tcob_recovery_journal_pages_applied", [this]() {
    return static_cast<int64_t>(recovery_stats_.journal_pages_applied);
  });
  metrics_.RegisterGaugeFn("tcob_recovery_wal_dropped_tail_bytes", [this]() {
    return static_cast<int64_t>(recovery_stats_.wal_dropped_tail_bytes);
  });
  metrics_.RegisterGaugeFn("tcob_recovery_discarded_txn_ops", [this]() {
    return static_cast<int64_t>(recovery_stats_.discarded_txn_ops);
  });
}

Status Database::Recover() {
  auto schema_lookup =
      [this](TypeId type) -> Result<std::vector<AttrType>> {
    TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def, catalog_.GetAtomType(type));
    return def->AttrTypes();
  };
  // Operations below the checkpoint watermark are already reflected in
  // the flushed stores; replaying them would double-apply. They linger
  // in the WAL only when a crash hit between the checkpoint's meta save
  // and its WAL truncation — exactly the window re-crash recovery hits.
  const uint64_t base = next_op_seq_;
  recovery_stats_ = RecoveryStats{};
  recovery_stats_.checkpoint_base_seq = base;
  // Pass 1: which transactions actually committed? A transaction's
  // operations and its commit record are appended in one writer-mutex
  // critical section, so an uncommitted transaction's operations can
  // only be the log's final records (the crash hit between the group's
  // enqueue and its fsync) — but per-transaction atomicity is decided
  // here by the commit record's presence, not by position.
  std::set<uint64_t> committed_txns;
  uint64_t max_txn_id = 0;
  Status scan = wal_->ReadAll([&](const Slice& payload) -> Result<bool> {
    TCOB_ASSIGN_OR_RETURN(WalOp op, WalOp::Decode(payload, schema_lookup));
    if (op.type == WalOpType::kCommit && op.txn_id != 0) {
      committed_txns.insert(op.txn_id);
    }
    if (op.txn_id > max_txn_id) max_txn_id = op.txn_id;
    return true;
  });
  TCOB_RETURN_NOT_OK(scan);
  // Transaction ids are not durable (the counter restarts at 1 on every
  // open), but atomicity above is decided by matching a commit record's
  // txn id against operation records — so a fresh transaction must never
  // reuse an id still present in the log. Advance past everything seen;
  // Init additionally truncates the log (via a checkpoint) when orphaned
  // records were discarded, so they cannot outlive this open at all.
  if (max_txn_id >= next_txn_id_.load(std::memory_order_relaxed)) {
    next_txn_id_.store(max_txn_id + 1, std::memory_order_relaxed);
  }
  // Pass 2: apply. Operations of uncommitted transactions are
  // discarded wholesale and do not consume sequence numbers (the
  // watermark must equal what the surviving prefix applied).
  WalReadStats wal_stats;
  Status replay = wal_->ReadAll(
      [&](const Slice& payload) -> Result<bool> {
        TCOB_ASSIGN_OR_RETURN(WalOp op, WalOp::Decode(payload, schema_lookup));
        if (op.txn_id != 0 && op.type != WalOpType::kCommit &&
            op.type != WalOpType::kCheckpoint &&
            committed_txns.count(op.txn_id) == 0) {
          ++recovery_stats_.discarded_txn_ops;
          return true;
        }
        if (op.op_seq + 1 > next_op_seq_) next_op_seq_ = op.op_seq + 1;
        if (op.type == WalOpType::kCommit ||
            op.type == WalOpType::kCheckpoint) {
          return true;
        }
        if (op.op_seq < base) {
          ++recovery_stats_.skipped_ops;
          return true;
        }
        // Only validated commits are logged, so every record applies.
        TCOB_RETURN_NOT_OK(ApplyOp(op));
        ObserveTimestamp(op.valid_from);
        ++recovery_stats_.replayed_ops;
        return true;
      },
      &wal_stats);
  TCOB_RETURN_NOT_OK(replay);
  if (recovery_stats_.discarded_txn_ops > 0) {
    TCOB_LOG(kWarn) << "discarded " << recovery_stats_.discarded_txn_ops
                    << " operation(s) of uncommitted transaction(s)";
  }
  recovery_stats_.wal_dropped_tail_bytes = wal_stats.dropped_tail_bytes;
  recovery_stats_.wal_tail_was_corrupt = wal_stats.tail_was_corrupt;
  if (wal_stats.dropped_tail_bytes > 0) {
    TCOB_LOG(kWarn) << "dropped " << wal_stats.dropped_tail_bytes
                    << " byte(s) of "
                    << (wal_stats.tail_was_corrupt ? "corrupt" : "torn")
                    << " WAL tail";
  }
  if (recovery_stats_.replayed_ops > 0 || recovery_stats_.skipped_ops > 0) {
    TCOB_LOG(kInfo) << "recovered " << recovery_stats_.replayed_ops
                    << " WAL operation(s), skipped "
                    << recovery_stats_.skipped_ops
                    << " below checkpoint base " << base;
  }
  return Status::OK();
}

Status Database::ApplyOp(const WalOp& op) {
  switch (op.type) {
    case WalOpType::kInsertAtom: {
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                            catalog_.GetAtomType(op.atom_type));
      catalog_.AdvanceAtomIdWatermark(op.atom_id + 1);
      TCOB_RETURN_NOT_OK(
          store_->Insert(*type, op.atom_id, op.attrs, op.valid_from));
      if (attr_indexes_->HasIndexes(type->id)) {
        TCOB_RETURN_NOT_OK(attr_indexes_->OnInsert(*type, op.atom_id,
                                                   op.attrs, op.valid_from));
      }
      return Status::OK();
    }
    case WalOpType::kUpdateAtom: {
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                            catalog_.GetAtomType(op.atom_type));
      // Capture the version being closed before the store mutates it
      // (index maintenance needs its value and begin).
      std::optional<AtomVersion> old_version;
      if (attr_indexes_->HasIndexes(type->id)) {
        TCOB_ASSIGN_OR_RETURN(
            old_version,
            store_->GetAsOf(*type, op.atom_id, op.valid_from - 1));
      }
      TCOB_RETURN_NOT_OK(
          store_->Update(*type, op.atom_id, op.attrs, op.valid_from));
      if (old_version.has_value()) {
        TCOB_RETURN_NOT_OK(attr_indexes_->OnUpdate(
            *type, op.atom_id, *old_version, op.attrs, op.valid_from));
      }
      return Status::OK();
    }
    case WalOpType::kDeleteAtom: {
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                            catalog_.GetAtomType(op.atom_type));
      std::optional<AtomVersion> old_version;
      if (attr_indexes_->HasIndexes(type->id)) {
        TCOB_ASSIGN_OR_RETURN(
            old_version,
            store_->GetAsOf(*type, op.atom_id, op.valid_from - 1));
      }
      TCOB_RETURN_NOT_OK(store_->Delete(*type, op.atom_id, op.valid_from));
      if (old_version.has_value()) {
        TCOB_RETURN_NOT_OK(attr_indexes_->OnDelete(*type, op.atom_id,
                                                   *old_version,
                                                   op.valid_from));
      }
      return Status::OK();
    }
    case WalOpType::kConnect: {
      TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                            catalog_.GetLinkType(op.link_type));
      return links_->Connect(*link, op.from_id, op.to_id, op.valid_from);
    }
    case WalOpType::kDisconnect: {
      TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                            catalog_.GetLinkType(op.link_type));
      return links_->Disconnect(*link, op.from_id, op.to_id, op.valid_from);
    }
    case WalOpType::kCommit:
    case WalOpType::kCheckpoint:
      return Status::OK();
  }
  return Status::Internal("unhandled wal op");
}

void Database::MaybeDumpTraceOnFailure(const char* label) {
  if (!options_.trace.dump_on_failure || !trace_rec_.is_enabled()) return;
  const std::string dir =
      options_.trace.dump_dir.empty() ? dir_ : options_.trace.dump_dir;
  const std::string path = dir + "/trace-" + label + "-" +
                           std::to_string(++trace_dump_seq_) + ".json";
  if (trace_rec_.DumpToFile(path)) {
    TCOB_LOG(kWarn) << "flight recorder dumped to " << path;
  }
}

void Database::Poison(const Status& cause) {
  if (!fail_stop_.ok()) return;  // keep the first failure
  fail_stop_ = Status::IOError(
      "database is read-only after a stable-storage failure: " +
      cause.ToString());
  health_state_ = HealthState::kReadOnly;
  trace_rec_.Emit(TraceEventType::kHealthTransition,
                  static_cast<uint64_t>(HealthState::kReadOnly));
  TCOB_LOG(kError) << "entering fail-stop mode: " << cause.ToString();
  MaybeDumpTraceOnFailure("read-only");
}

void Database::FailHard(const Status& cause) {
  // kFailed trumps kReadOnly: even if a storage failure was recorded
  // first, a diverged in-memory image is the stronger condition.
  if (health_state_ != HealthState::kFailed) {
    fail_stop_ = Status::IOError(
        "database failed (in-memory state diverged from the log): " +
        cause.ToString());
    health_state_ = HealthState::kFailed;
    trace_rec_.Emit(TraceEventType::kHealthTransition,
                    static_cast<uint64_t>(HealthState::kFailed));
    TCOB_LOG(kError) << "entering failed mode: " << cause.ToString();
    MaybeDumpTraceOnFailure("failed");
  }
}

Status Database::DumpTraceToFile(const std::string& path) const {
  if (!trace_rec_.DumpToFile(path)) {
    return Status::IOError("cannot write trace dump to " + path);
  }
  return Status::OK();
}

// ---- transactions ----

Transaction Database::Begin() {
  const uint64_t txn_id =
      next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  Timestamp snapshot = kMinTimestamp;
  uint64_t snapshot_seq = 0;
  {
    // Snapshot instant: the chronon just before NOW. A commit group
    // stamps its VALID FROM NOW operations under writer_mu_
    // (CommitGroup), so everything committed after this point lands at
    // >= NOW, strictly after the snapshot — concurrent committers stay
    // invisible. Pinning must itself hold writer_mu_: a group is logged
    // and applied op by op under it (advancing NOW per op), and an
    // unlocked pin could land between its log and its apply or
    // mid-apply, seeing some of its ops but not the others. A pin
    // therefore waits behind an in-flight group fsync.
    std::lock_guard<std::mutex> lk(writer_mu_);
    snapshot = Now() - 1;
    snapshot_seq = txn_manager_.BeginTxn(txn_id, snapshot);
  }
  txns_begun_total_.Increment();
  trace_rec_.Emit(TraceEventType::kTxnBegin, txn_id);
  return Transaction(this, txn_id, snapshot, snapshot_seq, alive_token_);
}

void Database::OnTxnAborted(uint64_t txn_id) {
  txn_manager_.EndTxn(txn_id);
  txns_aborted_total_.Increment();
  trace_rec_.Emit(TraceEventType::kTxnAbort, txn_id);
}

// ---- the write path ----

Status Database::Write(Writer* w) {
  if (w->ops.empty()) {
    // A write-free transaction commits trivially: nothing to validate,
    // nothing to log.
    txn_manager_.EndTxn(w->txn_id);
    txns_committed_total_.Increment();
    trace_rec_.Emit(TraceEventType::kTxnCommit, w->txn_id);
    return Status::OK();
  }
  for (const WalOp& op : w->ops) w->keys.push_back(WriteKeyForOp(op));
  if (!options_.group_commit) {
    // Every commit is a group of its own; writer_mu_ orders them.
    CommitGroup({w});
    return w->status;
  }
  std::unique_lock<std::mutex> ql(queue_mu_);
  queue_.push_back(w);
  while (!w->done && w != queue_.front()) w->cv.wait(ql);
  if (w->done) return w->status;
  // The leader. Committers that queue while it waits out the window (or
  // while the previous group's fsync ran) join its group.
  if (options_.sync_wal && options_.group_commit_window_micros > 0) {
    w->cv.wait_for(
        ql, std::chrono::microseconds(options_.group_commit_window_micros));
  }
  // A committer sharing a key with one queued before it waits for a
  // later group: each member validates against the state before the
  // group, which no other member of the group changes.
  std::vector<Writer*> group;
  std::set<TxnWriteKey> queued_keys;
  for (Writer* m : queue_) {
    const bool disjoint = std::none_of(
        m->keys.begin(), m->keys.end(),
        [&](const TxnWriteKey& k) { return queued_keys.count(k) != 0; });
    if (disjoint) group.push_back(m);
    queued_keys.insert(m->keys.begin(), m->keys.end());
  }
  ql.unlock();
  CommitGroup(group);
  ql.lock();
  for (Writer* m : group) {
    m->done = true;
    if (m != w) m->cv.notify_one();
  }
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [](const Writer* m) { return m->done; }),
               queue_.end());
  if (!queue_.empty()) queue_.front()->cv.notify_one();
  return w->status;
}

void Database::CommitGroup(const std::vector<Writer*>& group) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  const Status writable = CheckWritable();
  Timestamp now = Now();
  uint64_t seq = next_op_seq_;
  std::vector<Writer*> logged;
  for (Writer* w : group) {
    w->status = writable.ok() ? Validate(w, &now, &seq) : writable;
    if (w->status.ok()) logged.push_back(w);
  }
  // Log, then make durable. A refused member was never encoded, so it
  // leaves no record behind.
  Status durable = Status::OK();
  for (const Writer* w : logged) {
    for (const std::string& record : w->records) {
      if (durable.ok()) durable = wal_->Append(record);
    }
  }
  if (durable.ok() && options_.sync_wal && !logged.empty()) {
    if (options_.group_commit) group_commit_size_.Observe(logged.size());
    durable = wal_->Sync();
  }
  if (!durable.ok()) {
    // The log's durable state is unknowable (a record may be torn, a
    // failed fsync may have dropped it); stop writing. Nothing of the
    // group was applied, so reads keep serving acknowledged history.
    Poison(durable);
    for (Writer* w : logged) w->status = durable;
  } else {
    next_op_seq_ = seq;
    for (Writer* w : logged) {
      // After an earlier member's apply failed, this one's records are
      // logged but cannot be applied to a diverged image.
      w->status = CheckReadable();
      for (const WalOp& op : w->ops) {
        if (!w->status.ok()) break;
        Status applied = ApplyOp(op);
        if (!applied.ok()) {
          // Validation passed, so the stores cannot refuse: the image
          // diverged from the log, which recovery would apply in full.
          w->status = Status::Internal("apply failed after logging: " +
                                       applied.ToString());
          FailHard(w->status);
          break;
        }
        ObserveTimestamp(op.valid_from);
      }
    }
  }
  // Register under writer_mu_, so a snapshot pinned after this group
  // sees both its effects and its commit sequence.
  for (Writer* w : group) {
    if (w->status.ok()) {
      txn_manager_.Commit(w->txn_id, std::move(w->keys));
      if (w->txn_id != 0) {
        txns_committed_total_.Increment();
        trace_rec_.Emit(TraceEventType::kTxnCommit, w->txn_id);
      }
    } else if (w->txn_id != 0) {
      txn_manager_.EndTxn(w->txn_id);
    }
  }
}

Status Database::Validate(Writer* w, Timestamp* now, uint64_t* seq) {
  const bool txn = w->txn_id != 0;
  auto lose = [&](Status conflict) {
    txn_conflicts_total_.Increment();
    trace_rec_.Emit(TraceEventType::kTxnConflict, w->txn_id);
    return conflict;
  };
  // First-committer-wins: anyone who committed one of our write keys
  // after our snapshot wins; we abort and our buffered ops vanish. It
  // also proves the snapshot tails still current.
  if (txn) {
    Status valid = txn_manager_.CheckConflict(w->snapshot_seq, w->keys);
    if (!valid.ok()) return lose(valid);
  }
  Timestamp clock = *now;
  uint64_t next = *seq;
  for (size_t i = 0; i < w->ops.size(); ++i) {
    WalOp& op = w->ops[i];
    // VALID FROM NOW resolves here, under writer_mu_, not when the op
    // was issued or buffered: a commit that slipped in between would
    // otherwise leave this stamp at or before a snapshot pinned after
    // it, making the op retroactively visible inside that snapshot.
    // Explicit stamps keep their positions and pull the clock past them.
    if (op.stamped_now) op.valid_from = clock;
    auto [tail, unread] = w->tails.try_emplace(w->keys[i]);
    std::optional<AtomVersion> live;
    if (unread) {
      TCOB_ASSIGN_OR_RETURN(tail->second, CurrentTail(op, &live));
    }
    Status step = StepTail(op, &tail->second);
    if (!step.ok()) {
      if (!txn) return step;
      // Buffering checked the ops at their provisional stamps, so only
      // re-stamping can fail here: a NOW op buffered before an explicit
      // stamp overtakes it once concurrent commits pushed NOW past it.
      return lose(Status::TxnConflict(
          "concurrent commits advanced NOW past this transaction's "
          "explicit stamps, and re-stamping its VALID FROM NOW operations "
          "reorders its writes (" + step.message() +
          ") — retry the transaction"));
    }
    std::vector<AttrType> schema;
    if (op.type == WalOpType::kInsertAtom ||
        op.type == WalOpType::kUpdateAtom) {
      TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def,
                            catalog_.GetAtomType(op.atom_type));
      if (w->assignments != nullptr) {
        // Unchanged attributes carry over from the live version read
        // just now, under writer_mu_: read any earlier and a concurrent
        // update to another attribute is lost.
        TCOB_ASSIGN_OR_RETURN(
            op.attrs, ResolveAssignmentsFor(*def, *w->assignments,
                                            &live->attrs));
      }
      schema = def->AttrTypes();
    }
    op.op_seq = next++;
    TCOB_RETURN_NOT_OK(op.Encode(schema, &w->records.emplace_back()));
    if (op.valid_from >= clock) clock = op.valid_from + 1;
  }
  if (txn) {
    WalOp commit;
    commit.type = WalOpType::kCommit;
    commit.txn_id = w->txn_id;
    commit.op_seq = next++;
    TCOB_RETURN_NOT_OK(commit.Encode({}, &w->records.emplace_back()));
  }
  *now = clock;
  *seq = next;
  return Status::OK();
}

Result<TimelineTail> Database::CurrentTail(const WalOp& op,
                                           std::optional<AtomVersion>* live) {
  if (op.type == WalOpType::kConnect || op.type == WalOpType::kDisconnect) {
    TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                          catalog_.GetLinkType(op.link_type));
    return links_->PairTail(*link, op.from_id, op.to_id, kForever - 1);
  }
  if (op.type == WalOpType::kInsertAtom) return TimelineTail::Atom(op.atom_id);
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        catalog_.GetAtomType(op.atom_type));
  // Only a live version contains the last instant.
  return store_->TailAsOf(*type, op.atom_id, kForever - 1, live);
}

Result<AtomId> Database::WriteAtomStatement(
    WalOpType type, const std::string& type_name, AtomId id,
    std::vector<Value> attrs, Timestamp from, bool from_now,
    const std::vector<std::pair<std::string, Value>>* assignments) {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* def,
                        catalog_.GetAtomTypeByName(type_name));
  Writer w;
  WalOp& op = w.ops.emplace_back();
  op.type = type;
  op.stamped_now = from_now;
  // An INSERT's surrogate is allocated once its type resolved.
  op.atom_id = type == WalOpType::kInsertAtom ? catalog_.NextAtomId() : id;
  op.atom_type = def->id;
  op.valid_from = from;
  op.attrs = std::move(attrs);
  w.assignments = assignments;
  TCOB_RETURN_NOT_OK(Write(&w));
  return op.atom_id;
}

Status Database::WriteLinkStatement(WalOpType type,
                                    const std::string& link_name,
                                    AtomId from_id, AtomId to_id,
                                    Timestamp at, bool from_now) {
  TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                        catalog_.GetLinkTypeByName(link_name));
  Writer w;
  WalOp& op = w.ops.emplace_back();
  op.type = type;
  op.stamped_now = from_now;
  op.link_type = link->id;
  op.from_id = from_id;
  op.to_id = to_id;
  op.valid_from = at;
  return Write(&w);
}

// ---- DDL ----

// The catalog save is atomic (temp file + rename + directory sync), so
// a crash mid-DDL leaves either the old or the new catalog, never a
// partial one. A failed save still poisons the database: the rename may
// or may not have reached disk.
Status Database::SaveCatalog() {
  Status saved = catalog_.SaveToFile(env_, dir_ + "/catalog.tcob");
  if (!saved.ok()) Poison(saved);
  return saved;
}

Result<TypeId> Database::CreateAtomType(const std::string& name,
                                        std::vector<AttributeDef> attributes) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  TCOB_RETURN_NOT_OK(CheckWritable());
  TCOB_ASSIGN_OR_RETURN(TypeId id,
                        catalog_.CreateAtomType(name, std::move(attributes)));
  TCOB_RETURN_NOT_OK(SaveCatalog());
  return id;
}

Result<LinkTypeId> Database::CreateLinkType(const std::string& name,
                                            const std::string& from_type,
                                            const std::string& to_type) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  TCOB_RETURN_NOT_OK(CheckWritable());
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* from,
                        catalog_.GetAtomTypeByName(from_type));
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* to,
                        catalog_.GetAtomTypeByName(to_type));
  TCOB_ASSIGN_OR_RETURN(LinkTypeId id,
                        catalog_.CreateLinkType(name, from->id, to->id));
  TCOB_RETURN_NOT_OK(SaveCatalog());
  return id;
}

Result<MoleculeTypeId> Database::CreateMoleculeType(
    const std::string& name, const std::string& root_type,
    const std::vector<std::pair<std::string, bool>>& edges) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  TCOB_RETURN_NOT_OK(CheckWritable());
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* root,
                        catalog_.GetAtomTypeByName(root_type));
  std::vector<MoleculeEdge> resolved;
  for (const auto& [link_name, forward] : edges) {
    TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                          catalog_.GetLinkTypeByName(link_name));
    resolved.push_back(MoleculeEdge{link->id, forward});
  }
  TCOB_ASSIGN_OR_RETURN(
      MoleculeTypeId id,
      catalog_.CreateMoleculeType(name, root->id, std::move(resolved)));
  TCOB_RETURN_NOT_OK(SaveCatalog());
  return id;
}

Result<IndexId> Database::CreateAttrIndex(const std::string& name,
                                          const std::string& type_name,
                                          const std::string& attr_name) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  TCOB_RETURN_NOT_OK(CheckWritable());
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        catalog_.GetAtomTypeByName(type_name));
  TCOB_ASSIGN_OR_RETURN(IndexId id,
                        catalog_.CreateAttrIndex(name, type->id, attr_name));
  TCOB_RETURN_NOT_OK(SaveCatalog());
  TCOB_ASSIGN_OR_RETURN(const AttrIndexDef* def, catalog_.GetAttrIndex(id));
  TCOB_RETURN_NOT_OK(attr_indexes_->Backfill(*def, *type, *store_));
  return id;
}

// ---- value handling ----

Result<Value> Database::Coerce(const Value& v, AttrType target) {
  if (v.is_null()) return Value::Null(target);
  if (v.type() == target) return v;
  if (v.type() == AttrType::kInt) {
    switch (target) {
      case AttrType::kDouble:
        return Value::Double(static_cast<double>(v.AsInt()));
      case AttrType::kTimestamp:
        return Value::Time(v.AsInt());
      case AttrType::kId:
        return Value::Id(static_cast<AtomId>(v.AsInt()));
      default:
        break;
    }
  }
  return Status::TypeError(std::string("cannot assign ") +
                           AttrTypeName(v.type()) + " to " +
                           AttrTypeName(target));
}

Result<std::vector<Value>> Database::ResolveAssignmentsFor(
    const AtomTypeDef& type,
    const std::vector<std::pair<std::string, Value>>& assignments,
    const std::vector<Value>* base) {
  std::vector<Value> out;
  out.reserve(type.attributes.size());
  if (base != nullptr) {
    out = *base;
  } else {
    for (const AttributeDef& attr : type.attributes) {
      out.push_back(Value::Null(attr.type));
    }
  }
  for (const auto& [name, value] : assignments) {
    int idx = type.AttrIndex(name);
    if (idx < 0) {
      return Status::InvalidArgument("unknown attribute " + type.name + "." +
                                     name);
    }
    TCOB_ASSIGN_OR_RETURN(out[idx],
                          Coerce(value, type.attributes[idx].type));
  }
  return out;
}

// ---- DML ----

Result<AtomId> Database::InsertAtom(
    const std::string& type_name,
    const std::vector<std::pair<std::string, Value>>& assignments,
    Timestamp from, bool from_now) {
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        catalog_.GetAtomTypeByName(type_name));
  TCOB_ASSIGN_OR_RETURN(std::vector<Value> values,
                        ResolveAssignmentsFor(*type, assignments, nullptr));
  return InsertAtomValues(type_name, std::move(values), from, from_now);
}

Result<AtomId> Database::InsertAtomValues(const std::string& type_name,
                                          std::vector<Value> values,
                                          Timestamp from, bool from_now) {
  return WriteAtomStatement(WalOpType::kInsertAtom, type_name, 0,
                            std::move(values), from, from_now, nullptr);
}

Status Database::UpdateAtom(
    const std::string& type_name, AtomId id,
    const std::vector<std::pair<std::string, Value>>& assignments,
    Timestamp from, bool from_now) {
  return WriteAtomStatement(WalOpType::kUpdateAtom, type_name, id, {}, from,
                            from_now, &assignments)
      .status();
}

Status Database::UpdateAtomValues(const std::string& type_name, AtomId id,
                                  std::vector<Value> values, Timestamp from,
                                  bool from_now) {
  return WriteAtomStatement(WalOpType::kUpdateAtom, type_name, id,
                            std::move(values), from, from_now, nullptr)
      .status();
}

Status Database::DeleteAtom(const std::string& type_name, AtomId id,
                            Timestamp from, bool from_now) {
  return WriteAtomStatement(WalOpType::kDeleteAtom, type_name, id, {}, from,
                            from_now, nullptr)
      .status();
}

Status Database::Connect(const std::string& link_name, AtomId from_id,
                         AtomId to_id, Timestamp at, bool from_now) {
  return WriteLinkStatement(WalOpType::kConnect, link_name, from_id, to_id,
                            at, from_now);
}

Status Database::Disconnect(const std::string& link_name, AtomId from_id,
                            AtomId to_id, Timestamp at, bool from_now) {
  return WriteLinkStatement(WalOpType::kDisconnect, link_name, from_id,
                            to_id, at, from_now);
}

// ---- queries ----

/// Everything one SELECT cursor's execution needs alive until it is
/// finalized: the statement copy, the trace, the query's work block, and
/// the materializer/executor pair the producer thread runs against.
struct Database::SelectCursorContext {
  SelectStmt stmt;
  QueryStats trace;
  /// Started at open; total_us and first_row_us are offsets from it.
  StopwatchUs total_timer;
  /// The storage work of this query's threads (every thread under `tag`).
  QueryWork work;
  /// Cancellation scope of this query (deadline armed from options);
  /// shared with the cursor so Cancel() reaches the producer.
  std::shared_ptr<QueryContext> qctx;
  /// Per-query memory accounting against the database budget
  /// (immovable, so emplaced once the context exists).
  std::optional<BudgetLease> lease;
  /// True while this query holds an admission slot (released exactly
  /// once, in FinalizeSelectTrace).
  bool admitted = false;
  /// This query's id (stamped into every event the query's threads
  /// emit) and `work`; every thread working for the query runs under it.
  QueryTag tag;
  /// The stream's final status, for the disposition stamp.
  Status final_status = Status::OK();
  /// Receives the finished trace (EXPLAIN ANALYZE); may be null.
  QueryStats* stats_out = nullptr;
  std::optional<Materializer> mat;
  std::optional<SelectExecutor> exec;
  SelectPlan plan;
};

Result<std::unique_ptr<Cursor>> Database::NewSelectCursor(
    const SelectStmt& stmt, const std::string* text, double parse_us,
    QueryStats* stats, const Transaction* txn) {
  TCOB_RETURN_NOT_OK(CheckReadable());
  auto ctx = std::make_shared<SelectCursorContext>();
  ctx->stats_out = stats;
  // The cursor may outlive the caller's statement (Query returns before
  // the rows are pulled), so the context owns a deep copy.
  ctx->stmt = CloneSelect(stmt);
  // Inside a transaction every read is pinned to its snapshot: NOW
  // resolves to the snapshot instant, and an explicit VALID AT later
  // than the snapshot is clamped back to it, so the transaction can
  // never observe a concurrent committer.
  Timestamp exec_now = Now();
  if (txn != nullptr) {
    const Timestamp snapshot = txn->snapshot();
    exec_now = snapshot;
    if (ctx->stmt.mode == TemporalMode::kAsOf && !ctx->stmt.at_now &&
        ctx->stmt.at > snapshot) {
      ctx->stmt.at = snapshot;
    }
  }
  if (text != nullptr) ctx->trace.statement = *text;
  ctx->trace.strategy = StorageStrategyName(options_.strategy);
  ctx->trace.parse_us = parse_us;
  ctx->qctx = QueryContext::WithDeadline(options_.default_query_deadline_micros);
  ctx->tag = {next_query_id_.fetch_add(1, std::memory_order_relaxed),
              &ctx->work};
  // The open path (admission, planning) runs on this thread under the
  // query's tag; the producer thread and the finalize hook re-establish
  // it themselves, and fan-out workers adopt the producer's.
  TraceQueryScope qscope(ctx->tag);
  trace_rec_.Emit(TraceEventType::kQueryBegin);
  ctx->lease.emplace(&memory_budget_);
  if (admission_.max_inflight() > 0) {
    StopwatchUs wait_timer;
    Status slot =
        admission_.Acquire(ctx->qctx.get(), options_.admission_timeout_micros);
    ctx->trace.admission_wait_us = wait_timer.ElapsedUs();
    if (!slot.ok()) {
      ctx->final_status = slot;
      FinalizeSelectTrace(ctx.get());
      return slot;
    }
    ctx->admitted = true;
  }
  ctx->mat.emplace(&catalog_, store_.get(), links_.get(), query_pool_.get());
  ctx->mat->set_governance(ctx->qctx.get(), &*ctx->lease);
  ctx->mat->set_trace_recorder(&trace_rec_);
  ctx->exec.emplace(&catalog_, &*ctx->mat, exec_now, attr_indexes_.get());
  ctx->exec->set_trace(&ctx->trace);
  ctx->exec->set_context(ctx->qctx.get());
  ctx->exec->set_recorder(&trace_rec_);

  Result<SelectPlan> plan = ctx->exec->Plan(ctx->stmt);
  if (!plan.ok()) {
    ctx->final_status = plan.status();
    FinalizeSelectTrace(ctx.get());
    return plan.status();
  }
  ctx->plan = std::move(plan).value();
  // The producer thread owns a share of the context; the finalize hook
  // runs back on this thread (Next/Close after the producer joined).
  auto producer = [ctx](RowSink* sink) -> Status {
    TraceQueryScope qscope(ctx->tag);
    return ctx->exec->ExecuteStreaming(ctx->stmt, ctx->plan, sink);
  };
  auto on_first_row = [ctx] {
    ctx->trace.first_row_us =
        ctx->trace.parse_us + ctx->total_timer.ElapsedUs();
  };
  auto finalize = [this, ctx](const Status& status,
                              const StreamingCursorStats& stats) {
    ctx->final_status = status;  // sticky in the cursor; kept for the trace
    ctx->trace.rows = stats.rows_streamed;
    ctx->trace.rows_streamed = stats.rows_streamed;
    // The producer stamped what its stages held; the queue adds its own.
    ctx->trace.peak_buffered_rows =
        std::max(ctx->trace.peak_buffered_rows, stats.peak_buffered_rows);
    FinalizeSelectTrace(ctx.get());
  };
  StreamingCursor::Options copts;
  copts.context = ctx->qctx;
  copts.lease = &*ctx->lease;
  return std::unique_ptr<Cursor>(new StreamingCursor(
      ctx->plan.columns, ctx->plan.message, std::move(producer),
      std::move(finalize), std::move(on_first_row), copts));
}

void Database::FinalizeSelectTrace(SelectCursorContext* ctx) {
  // Finalize may run on the consumer thread long after the open scope
  // ended; re-adopt the query tag so the end-of-life events attribute.
  TraceQueryScope qscope(ctx->tag);
  QueryStats& trace = ctx->trace;
  trace.store = StoreAccessStats::Of(ctx->work);
  trace.tiering = ColdTierAccessStats::Of(ctx->work);
  trace.pool = BufferPoolStats::Of(ctx->work);
  trace.total_us = trace.parse_us + ctx->total_timer.ElapsedUs();
  if (ctx->lease.has_value()) {
    trace.peak_memory_bytes = ctx->lease->peak();
    trace.memory_overflow_bytes = ctx->lease->overflow();
  }
  const Status& outcome = ctx->final_status;
  if (outcome.IsCancelled() ||
      (outcome.ok() && ctx->qctx != nullptr && ctx->qctx->cancelled())) {
    trace.disposition = "cancelled";
    query_cancelled_total_.Increment();
    trace_rec_.Emit(TraceEventType::kCancelFire);
  } else if (outcome.IsDeadlineExceeded()) {
    trace.disposition = "deadline-exceeded";
    query_deadline_exceeded_total_.Increment();
    trace_rec_.Emit(TraceEventType::kDeadlineFire);
  } else if (!outcome.ok()) {
    trace.disposition = "error";
  }
  trace_rec_.Emit(TraceEventType::kQueryEnd,
                  static_cast<uint64_t>(trace.rows));
  if (ctx->admitted) {
    admission_.Release();
    ctx->admitted = false;
  }

  queries_total_.Increment();
  query_latency_us_.Observe(static_cast<uint64_t>(trace.total_us));
  vcache_atom_hits_total_.Add(trace.cache.atom_hits);
  vcache_atom_misses_total_.Add(trace.cache.atom_misses);
  vcache_link_hits_total_.Add(trace.cache.link_hits);
  vcache_link_misses_total_.Add(trace.cache.link_misses);
  vcache_versions_pinned_total_.Add(trace.cache.versions_pinned);
  const uint64_t threshold = options_.slow_query_threshold_micros;
  if (threshold > 0 && trace.total_us >= static_cast<double>(threshold)) {
    slow_queries_total_.Increment();
    TCOB_LOG(kWarn) << "slow query (" << trace.total_us << "us >= "
                    << threshold << "us): "
                    << (trace.statement.empty() ? "<ast>" : trace.statement)
                    << " | plan: " << trace.plan << " | rows: " << trace.rows
                    << " | store accesses: " << trace.store.Total()
                    << " | disposition: " << trace.disposition
                    << " | peak mem: " << trace.peak_memory_bytes << "B";
  }
  if (ctx->stats_out != nullptr) *ctx->stats_out = trace;
}

Result<ResultSet> Database::ShowStats() {
  ResultSet out;
  out.columns = {"METRIC", "VALUE"};
  auto add = [&out](const std::string& metric, int64_t value) {
    out.rows.push_back({Value::String(metric), Value::Int(value)});
  };
  add("clock_now", now_);
  add("strategy", static_cast<int64_t>(options_.strategy));
  out.rows.back()[1] = Value::String(StorageStrategyName(options_.strategy));
  TCOB_ASSIGN_OR_RETURN(StoreSpaceStats space, store_->SpaceStats());
  add("store_heap_pages", static_cast<int64_t>(space.heap_pages));
  add("store_index_pages", static_cast<int64_t>(space.index_pages));
  add("store_total_bytes", static_cast<int64_t>(space.total_bytes));
  TCOB_ASSIGN_OR_RETURN(uint64_t link_pages, links_->TotalPages());
  add("link_pages", static_cast<int64_t>(link_pages));
  TCOB_ASSIGN_OR_RETURN(uint64_t idx_pages, attr_indexes_->TotalPages());
  add("attr_index_pages", static_cast<int64_t>(idx_pages));
  const BufferPoolStats& pool = pool_->stats();
  add("pool_capacity_pages", static_cast<int64_t>(pool_->capacity()));
  add("pool_fetches", static_cast<int64_t>(pool.fetches));
  add("pool_hits", static_cast<int64_t>(pool.hits));
  add("pool_evictions", static_cast<int64_t>(pool.evictions));
  const DiskStats& disk = disk_->stats();
  add("disk_reads", static_cast<int64_t>(disk.reads));
  add("disk_writes", static_cast<int64_t>(disk.writes));
  TCOB_ASSIGN_OR_RETURN(uint64_t wal_bytes, wal_->SizeBytes());
  add("wal_bytes", static_cast<int64_t>(wal_bytes));
  if (cold_tier_ != nullptr) {
    ColdSpaceStats cold;
    for (const AtomTypeDef* t : catalog_.AtomTypes()) {
      TCOB_ASSIGN_OR_RETURN(ColdSpaceStats cs, cold_tier_->SpaceStats(*t));
      cold.segments += cs.segments;
      cold.versions += cs.versions;
      cold.blob_bytes += cs.blob_bytes;
      cold.total_pages += cs.total_pages;
    }
    add("cold_segments", static_cast<int64_t>(cold.segments));
    add("cold_versions", static_cast<int64_t>(cold.versions));
    add("cold_blob_bytes", static_cast<int64_t>(cold.blob_bytes));
    add("cold_pages", static_cast<int64_t>(cold.total_pages));
  }
  return out;
}

ResultSet Database::ShowCatalog() const {
  ResultSet out;
  out.columns = {"KIND", "NAME", "DETAIL"};
  for (const AtomTypeDef* t : catalog_.AtomTypes()) {
    std::string detail;
    for (size_t i = 0; i < t->attributes.size(); ++i) {
      if (i) detail += ", ";
      detail += t->attributes[i].name + " " +
                AttrTypeName(t->attributes[i].type);
    }
    out.rows.push_back({Value::String("ATOM_TYPE"), Value::String(t->name),
                        Value::String(detail)});
  }
  for (const LinkTypeDef* l : catalog_.LinkTypes()) {
    const AtomTypeDef* from = nullptr;
    const AtomTypeDef* to = nullptr;
    Result<const AtomTypeDef*> rf = catalog_.GetAtomType(l->from_type);
    Result<const AtomTypeDef*> rt = catalog_.GetAtomType(l->to_type);
    if (rf.ok()) from = rf.value();
    if (rt.ok()) to = rt.value();
    out.rows.push_back(
        {Value::String("LINK"), Value::String(l->name),
         Value::String((from ? from->name : "?") + " -> " +
                       (to ? to->name : "?"))});
  }
  for (const AttrIndexDef* idx : catalog_.AttrIndexes()) {
    Result<const AtomTypeDef*> t = catalog_.GetAtomType(idx->atom_type);
    std::string detail = "?";
    if (t.ok()) {
      detail =
          t.value()->name + "." + t.value()->attributes[idx->attr_pos].name;
    }
    out.rows.push_back({Value::String("INDEX"), Value::String(idx->name),
                        Value::String(detail)});
  }
  for (const MoleculeTypeDef* m : catalog_.MoleculeTypes()) {
    Result<const AtomTypeDef*> root = catalog_.GetAtomType(m->root_type);
    out.rows.push_back(
        {Value::String("MOLECULE_TYPE"), Value::String(m->name),
         Value::String("root " + (root.ok() ? root.value()->name : "?") +
                       ", " + std::to_string(m->edges.size()) + " edge(s)")});
  }
  return out;
}

// ---- maintenance ----

Result<uint64_t> Database::VacuumBefore(Timestamp cutoff) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  // Every version an open transaction's snapshot can see stays: the
  // cutoff is held at the oldest open snapshot instant (snapshots are
  // pinned under writer_mu_ too, so none can appear below it meanwhile).
  cutoff = std::min(cutoff, txn_manager_.OldestSnapshot());
  // Vacuuming is not logged. It runs between two checkpoints: a crash
  // inside it recovers the first one's image with no WAL to replay, and
  // the second commits the removal in one journal commit.
  TCOB_RETURN_NOT_OK(CheckpointLocked());
  uint64_t removed = 0;
  for (const AtomTypeDef* type : catalog_.AtomTypes()) {
    TCOB_ASSIGN_OR_RETURN(uint64_t n, store_->VacuumBefore(*type, cutoff));
    removed += n;
    if (cold_tier_ != nullptr) {
      // Cold versions are strictly older than hot ones, so if the hot
      // vacuum emptied an atom its cold history predates the cutoff too
      // — the cross-tier timeline invariants survive any cutoff.
      TCOB_ASSIGN_OR_RETURN(uint64_t c,
                            cold_tier_->VacuumBefore(*type, cutoff));
      removed += c;
    }
  }
  for (const LinkTypeDef* link : catalog_.LinkTypes()) {
    TCOB_RETURN_NOT_OK(links_->VacuumBefore(*link, cutoff).status());
  }
  TCOB_RETURN_NOT_OK(attr_indexes_->VacuumBefore(cutoff).status());
  TCOB_RETURN_NOT_OK(CheckpointLocked());
  return removed;
}

Result<uint64_t> Database::TierMigrate() {
  std::lock_guard<std::mutex> lk(writer_mu_);
  TCOB_RETURN_NOT_OK(CheckWritable());
  if (cold_tier_ == nullptr) return static_cast<uint64_t>(0);
  // Same checkpoint discipline as VacuumBefore: the migration is a
  // physical reorganization, not a logged operation. The WAL is empty
  // while it runs, and its effects become durable only at the trailing
  // checkpoint's journal-commit point — a crash anywhere in between
  // recovers to the pre-migration image.
  {
    TraceScope scope(&trace_rec_, TraceEventType::kTierPhaseBegin,
                     TraceEventType::kTierPhaseEnd,
                     static_cast<uint64_t>(TraceTierPhase::kCheckpoint));
    TCOB_RETURN_NOT_OK(CheckpointLocked());
  }
  const Timestamp cutoff = now_ > options_.tiering.cold_age
                               ? now_ - options_.tiering.cold_age
                               : kMinTimestamp;
  uint64_t migrated = 0;
  for (const AtomTypeDef* type : catalog_.AtomTypes()) {
    std::map<AtomId, std::vector<AtomVersion>> eligible;
    {
      TraceScope scope(&trace_rec_, TraceEventType::kTierPhaseBegin,
                       TraceEventType::kTierPhaseEnd,
                       static_cast<uint64_t>(TraceTierPhase::kCollect));
      TCOB_ASSIGN_OR_RETURN(eligible,
                            store_->CollectMigratable(*type, cutoff));
    }
    if (eligible.empty()) continue;
    uint64_t written = 0;
    {
      TraceScope scope(&trace_rec_, TraceEventType::kTierPhaseBegin,
                       TraceEventType::kTierPhaseEnd,
                       static_cast<uint64_t>(TraceTierPhase::kMigrate));
      TCOB_ASSIGN_OR_RETURN(
          written,
          cold_tier_->Migrate(*type, eligible, query_pool_.get(),
                              options_.tiering.segment_target_bytes));
    }
    uint64_t released = 0;
    {
      TraceScope scope(&trace_rec_, TraceEventType::kTierPhaseBegin,
                       TraceEventType::kTierPhaseEnd,
                       static_cast<uint64_t>(TraceTierPhase::kRelease));
      TCOB_ASSIGN_OR_RETURN(released,
                            store_->ReleaseMigrated(*type, cutoff));
    }
    if (written != released) {
      return Status::Corruption(
          "tier migration of type " + type->name + " wrote " +
          std::to_string(written) + " version(s) but released " +
          std::to_string(released));
    }
    migrated += released;
  }
  {
    TraceScope scope(&trace_rec_, TraceEventType::kTierPhaseBegin,
                     TraceEventType::kTierPhaseEnd,
                     static_cast<uint64_t>(TraceTierPhase::kCheckpoint));
    TCOB_RETURN_NOT_OK(CheckpointLocked());
  }
  return migrated;
}

// ---- durability ----

Status Database::Checkpoint() {
  std::lock_guard<std::mutex> lk(writer_mu_);
  return CheckpointLocked();
}

Status Database::CheckpointLocked() {
  TCOB_RETURN_NOT_OK(CheckWritable());
  // Ordering is the crash-safety argument:
  //  1. every dirty page reaches the page journal (checksummed on
  //     writeback) — the data files are still exactly the image of the
  //     previous checkpoint,
  //  2. the catalog is replaced atomically (it is not WAL-logged, so it
  //     must be durable before the watermark can advance past operations
  //     that depend on it),
  //  3. the journal commit — one fsync covering the staged pages AND the
  //     meta image (clock + op_seq watermark) embedded in the commit
  //     record. This is the atomic point: before it, recovery sees the
  //     old checkpoint's files and replays the full WAL; after it,
  //     recovery re-applies the journal physically (idempotent) and
  //     reinstalls the matching watermark,
  //  4. the in-place apply: journaled pages overwrite the data files,
  //     which are then synced along with the directory,
  //  5. the meta file and the journal reset — redundant with the commit
  //     record (recovery would redo 4–5 from the journal), kept so the
  //     steady state is a clean directory,
  //  6. only then may the WAL forget the covered operations. A crash
  //     before this leaves them in the WAL; the watermark makes
  //     replaying them a no-op.
  auto phase = [this](TraceCheckpointPhase p, const std::function<Status()>& fn) {
    TraceScope scope(&trace_rec_, TraceEventType::kCheckpointPhaseBegin,
                     TraceEventType::kCheckpointPhaseEnd,
                     static_cast<uint64_t>(p));
    return fn();
  };
  Status s = [&]() -> Status {
    TCOB_RETURN_NOT_OK(phase(TraceCheckpointPhase::kFlushPages,
                             [&] { return pool_->FlushAll(); }));
    TCOB_RETURN_NOT_OK(phase(TraceCheckpointPhase::kSaveCatalog, [&] {
      return catalog_.SaveToFile(env_, dir_ + "/catalog.tcob");
    }));
    TCOB_RETURN_NOT_OK(phase(TraceCheckpointPhase::kJournalCommit,
                             [&] { return journal_->Commit(EncodeMeta()); }));
    TCOB_RETURN_NOT_OK(phase(TraceCheckpointPhase::kJournalApply,
                             [&] { return journal_->ApplyCommitted(); }));
    TCOB_RETURN_NOT_OK(
        phase(TraceCheckpointPhase::kSaveMeta, [&] { return SaveMeta(); }));
    TCOB_RETURN_NOT_OK(phase(TraceCheckpointPhase::kWalTruncate, [&] {
      Status truncated = journal_->Reset();
      if (truncated.ok()) truncated = wal_->Truncate();
      return truncated;
    }));
    return Status::OK();
  }();
  if (!s.ok()) {
    Poison(s);
  } else {
    checkpoints_total_.Increment();
  }
  return s;
}

Status Database::Flush() {
  std::lock_guard<std::mutex> lk(writer_mu_);
  TCOB_RETURN_NOT_OK(CheckWritable());
  TCOB_RETURN_NOT_OK(pool_->FlushAll());
  return SaveCatalog();
}

Status Database::TryRecover() {
  if (health_state_ == HealthState::kHealthy) return Status::OK();
  if (health_state_ == HealthState::kFailed) {
    return Status::IOError(
        "cannot recover a failed database instance in place; re-open it "
        "(original failure: " + fail_stop_.ToString() + ")");
  }
  // Probe the environment with a real durable write before trusting it
  // again: a failure here is evidence the outage persists, and the
  // instance stays read-only with its original cause intact.
  const std::string probe_path = dir_ + "/.recover_probe.tmp";
  Status probed = [&]() -> Status {
    TCOB_ASSIGN_OR_RETURN(std::unique_ptr<IoFile> f,
                          env_->OpenFile(probe_path));
    TCOB_RETURN_NOT_OK(f->WriteAt(0, Slice("tcob recover probe")));
    TCOB_RETURN_NOT_OK(f->Sync());
    f.reset();
    return env_->RemoveFile(probe_path);
  }();
  if (!probed.ok()) {
    TCOB_LOG(kWarn) << "recovery probe failed, staying read-only: "
                    << probed.ToString();
    return probed;
  }
  const Status original = fail_stop_;
  // A failed fsync latches the log for good: the kernel may have
  // dropped dirty pages the old descriptor can never re-sync, so no
  // retry through it is trustworthy. Recovery needs a fresh handle;
  // the checkpoint below rebuilds durability from the applied
  // in-memory state and truncates the stale tail, so no byte of the
  // old log is trusted across the swap.
  if (!wal_->health().ok()) {
    Result<std::unique_ptr<WriteAheadLog>> reopened =
        WriteAheadLog::Open(dir_ + "/wal.log", env_);
    if (!reopened.ok()) {
      TCOB_LOG(kWarn) << "recovery WAL reopen failed, staying read-only: "
                      << reopened.status().ToString();
      return reopened.status();
    }
    wal_ = std::move(reopened.value());
    wal_->RegisterMetrics(&metrics_);
  }
  fail_stop_ = Status::OK();
  health_state_ = HealthState::kHealthy;
  trace_rec_.Emit(TraceEventType::kHealthTransition,
                  static_cast<uint64_t>(HealthState::kHealthy));
  // Re-establish a durable baseline. The WAL tail may hold a record the
  // original failure tore (its op was never applied in memory); the
  // checkpoint makes everything applied durable and truncates that tail
  // away. A failure here re-poisons with the new cause.
  Status checkpointed = Checkpoint();
  if (!checkpointed.ok()) return checkpointed;
  TCOB_LOG(kInfo) << "recovered to full service (was: "
                  << original.ToString() << ")";
  return Status::OK();
}

namespace {
constexpr uint32_t kMetaMagic = 0x4d4f4354;  // "TCOM"
constexpr size_t kMetaSize = 4 + 8 + 8 + 4;  // magic, now, op_seq, crc
}  // namespace

std::string Database::EncodeMeta() const {
  std::string bytes;
  PutFixed32(&bytes, kMetaMagic);
  PutFixed64(&bytes, static_cast<uint64_t>(now_));
  PutFixed64(&bytes, next_op_seq_);
  PutFixed32(&bytes, Crc32c(bytes.data(), bytes.size()));
  return bytes;
}

Status Database::SaveMeta() const {
  return WriteFileAtomic(env_, dir_ + "/clock.tcob", EncodeMeta());
}

Status Database::LoadMeta() {
  const std::string path = dir_ + "/clock.tcob";
  Result<std::string> read = ReadFileToString(env_, path);
  if (!read.ok()) {
    if (read.status().IsNotFound()) return Status::OK();  // fresh database
    return read.status();
  }
  const std::string& bytes = read.value();
  if (bytes.size() == 8) {
    // Legacy format: the bare clock, no watermark, no checksum.
    now_ = static_cast<Timestamp>(DecodeFixed64(bytes.data()));
    return Status::OK();
  }
  if (bytes.size() != kMetaSize) {
    return Status::Corruption("meta file " + path + ": unexpected size " +
                              std::to_string(bytes.size()));
  }
  if (DecodeFixed32(bytes.data()) != kMetaMagic) {
    return Status::Corruption("meta file " + path + ": bad magic");
  }
  const uint32_t stored = DecodeFixed32(bytes.data() + kMetaSize - 4);
  if (stored != Crc32c(bytes.data(), kMetaSize - 4)) {
    return Status::Corruption("meta file " + path + ": checksum mismatch");
  }
  now_ = static_cast<Timestamp>(DecodeFixed64(bytes.data() + 4));
  next_op_seq_ = DecodeFixed64(bytes.data() + 12);
  if (next_op_seq_ == 0) next_op_seq_ = 1;
  return Status::OK();
}

// ---- integrity ----

namespace {
/// Page-structured data files: everything in the directory except the
/// WAL, the catalog/meta files, and atomic-replacement leftovers, which
/// carry their own record-level CRCs.
bool IsPageFileName(const std::string& name) {
  auto ends_with = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  return name != "wal.log" && !ends_with(".tcob") && !ends_with(".tmp") &&
         !ends_with(".journal");
}
}  // namespace

Status Database::VerifyIntegrity() {
  // Pass 1: raw checksum scan of every data file in the directory,
  // straight through the DiskManager so the on-disk bytes are what gets
  // judged (the buffer pool would mask a flipped byte with its cached
  // copy — but any page it caches already passed this same check on
  // fetch).
  TCOB_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  std::vector<char> buf(kPageSize);
  for (const std::string& name : names) {
    if (!IsPageFileName(name)) continue;
    TCOB_ASSIGN_OR_RETURN(FileId file, disk_->OpenFile(name));
    TCOB_ASSIGN_OR_RETURN(PageNo pages, disk_->NumPages(file));
    for (PageNo page = 0; page < pages; ++page) {
      TCOB_RETURN_NOT_OK(disk_->ReadPage(file, page, buf.data()));
      if (!PageChecksumOk(buf.data())) {
        return Status::Corruption("page checksum mismatch in " + name +
                                  " page " + std::to_string(page));
      }
    }
  }
  // Pass 2: logical structure, bottom up — store timelines and trees,
  // link adjacency, then the secondary indexes.
  for (const AtomTypeDef* type : catalog_.AtomTypes()) {
    TCOB_RETURN_NOT_OK(store_->VerifyIntegrity(*type));
  }
  for (const LinkTypeDef* link : catalog_.LinkTypes()) {
    TCOB_RETURN_NOT_OK(links_->VerifyIntegrity(*link));
  }
  return attr_indexes_->VerifyStructure();
}

}  // namespace tcob
