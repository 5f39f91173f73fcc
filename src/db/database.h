#ifndef TCOB_DB_DATABASE_H_
#define TCOB_DB_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/resource_budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace_ring.h"
#include "db/session.h"
#include "db/transaction.h"
#include "db/txn_manager.h"
#include "index/attr_index.h"
#include "mad/link_store.h"
#include "mad/materializer.h"
#include "query/ast.h"
#include "query/cursor.h"
#include "query/query_stats.h"
#include "query/result_set.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/io_env.h"
#include "storage/retry_env.h"
#include "tstore/cold_tier.h"
#include "tstore/store_factory.h"
#include "wal/log_record.h"
#include "wal/wal.h"

namespace tcob {

/// Cold-history tiering (see tstore/cold_tier.h). Off by default; when
/// enabled, TierMigrate() moves atom versions whose validity ended more
/// than `cold_age` chronons before NOW out of the hot store into
/// delta-compressed immutable segments. Reads stay transparent (hot and
/// cold merge in timeline order) and every atom keeps at least one hot
/// version, so DML semantics are unchanged.
struct TieringOptions {
  bool enabled = false;
  /// Migration watermark: versions ending at or before NOW - cold_age
  /// are eligible.
  Timestamp cold_age = 64;
  /// Target input size of one segment (full-record bytes before delta
  /// compression). 0 = the ColdTier default.
  uint64_t segment_target_bytes = 32 * 1024;
};

/// Open-time configuration of a TCOB database.
struct DatabaseOptions {
  /// Physical design for atom histories (the paper's central knob).
  StorageStrategy strategy = StorageStrategy::kSeparated;
  /// Buffer pool capacity in pages.
  size_t buffer_pool_pages = 1024;
  /// Store tuning (version index toggle etc.).
  StoreOptions store;
  /// fdatasync the WAL before any commit (auto-commit statement or
  /// transaction) is applied and acknowledged.
  bool sync_wal = false;
  /// Group commit: the committer at the front of the writer queue leads
  /// every queued committer whose writes are disjoint from those before
  /// it through one validate/append/fsync/apply pass (see
  /// Database::Write), so they share one WAL fsync. Disable to give
  /// every commit its own pass and fsync, ordered by the writer mutex
  /// alone (the benchmark ablation).
  bool group_commit = true;
  /// Optional group-commit batching window: with sync_wal on, a leader
  /// waits this many microseconds for more committers to queue before
  /// it takes its group. 0 relies on natural batching: committers that
  /// queue behind an in-flight fsync form the next group.
  uint64_t group_commit_window_micros = 0;
  /// Worker threads for the read path (molecule materialization fans out
  /// across them). 0 = one per CPU in the opening thread's affinity mask
  /// (hardware threads if the mask cannot be read); 1 = no worker pool,
  /// materialization runs inline with byte-identical results. Writes are
  /// single-threaded regardless.
  size_t parallelism = 0;
  /// Physical I/O environment. nullptr = the process-wide POSIX
  /// environment; tests substitute a FaultInjectingIoEnv. Not owned; must
  /// outlive the Database.
  IoEnv* env = nullptr;
  /// SELECTs whose total wall time reaches this many microseconds are
  /// logged at kWarn with their trace summary. 0 disables the log.
  uint64_t slow_query_threshold_micros = 0;
  /// Cold-history tiering knobs (off by default).
  TieringOptions tiering;
  /// Every SELECT gets a deadline this many microseconds after it opens;
  /// a query past it aborts cooperatively with DeadlineExceeded.
  /// 0 disables the default deadline (per-cursor Cancel still works).
  uint64_t default_query_deadline_micros = 0;
  /// Global cap on governed query memory (version-cache pins + buffered
  /// cursor batches), bytes. Past the cap queries shed their caches and
  /// proceed uncharged rather than fail; the *charged* total never
  /// exceeds the cap. 0 = unlimited (accounting still runs).
  uint64_t memory_budget_bytes = 0;
  /// Admission gate: at most this many SELECTs in flight at once; later
  /// arrivals wait up to admission_timeout_micros (bounded also by their
  /// own deadline) and are refused with DeadlineExceeded. 0 = no gate.
  size_t max_inflight_queries = 0;
  /// How long an arriving query may wait at the admission gate.
  uint64_t admission_timeout_micros = 100000;
  /// Open logically read-only: every user mutation (DML, DDL, vacuum,
  /// tier migration) is refused with InvalidArgument, and the close-time
  /// checkpoint is skipped. WAL replay at open still runs (in memory),
  /// so the view matches what a writable open would serve.
  bool read_only = false;
  /// Bounded retry of transiently-failing reads (off by default: the
  /// fault-injection suites rely on single-shot faults actually failing
  /// unless a test opts in).
  IoRetryPolicy io_retry;
  /// Flight recorder (always on by default; see common/trace_ring.h):
  /// per-thread event rings, category mask, ring size, and automatic
  /// dumps on health degradation.
  TraceOptions trace;
};

/// Degradation ladder of a Database instance (see Database::health()).
enum class HealthState {
  /// Full service.
  kHealthy,
  /// A stable-storage write failed: mutations are refused with the
  /// preserved original cause, reads keep serving the last durable
  /// state. TryRecover() can restore write service.
  kReadOnly,
  /// The in-memory image itself is suspect (an apply failed after its
  /// WAL record was durably logged): all access is refused; the only
  /// recovery is to discard the instance and re-Open.
  kFailed,
};

/// Lowercase name of a health state ("healthy" / "read-only" /
/// "failed").
const char* HealthStateName(HealthState s);

/// What Open's WAL replay observed (introspection for crash tests and
/// operators diagnosing a recovery).
struct RecoveryStats {
  /// Operations replayed from the WAL into the stores.
  uint64_t replayed_ops = 0;
  /// Operations skipped because the checkpoint already covered them
  /// (op_seq below the persisted base); with it, each record is applied
  /// exactly once.
  uint64_t skipped_ops = 0;
  /// op_seq watermark loaded from the meta file (first op not covered by
  /// the last checkpoint).
  uint64_t checkpoint_base_seq = 1;
  /// Operations discarded because their transaction never reached its
  /// commit record (the crash hit between a group's enqueue and fsync);
  /// per-transaction atomicity discards them wholesale.
  uint64_t discarded_txn_ops = 0;
  /// Bytes dropped from the WAL tail (torn final record after a crash).
  uint64_t wal_dropped_tail_bytes = 0;
  /// True when the dropped tail failed its CRC (vs merely truncated).
  bool wal_tail_was_corrupt = false;
  /// Pages physically re-applied from a committed checkpoint journal
  /// (a crash hit the checkpoint's in-place apply phase).
  uint64_t journal_pages_applied = 0;
  /// Uncommitted page-journal bytes discarded (writebacks that never
  /// reached a checkpoint commit, or a tail torn by the crash).
  uint64_t journal_discarded_bytes = 0;
};

/// The public face of the temporal complex-object database.
///
/// A Database owns one directory of files: the catalog, the WAL, and the
/// files of the chosen storage strategy. All DML is valid-time stamped;
/// every mutation is validated, WAL-logged (and fsynced under sync_wal)
/// before being applied, and Open replays the log tail after a crash. A
/// Database is shared across threads; each Session, Cursor or
/// Transaction is used by one thread at a time.
///
/// Typical use:
///   TCOB_ASSIGN_OR_RETURN(auto db, Database::Open("/data/hr", {}));
///   db->Execute("CREATE ATOM_TYPE Emp (name STRING, salary INT)");
///   db->Execute("INSERT ATOM Emp (name='ada', salary=10) VALID FROM 5");
///   db->Execute("SELECT ALL FROM EmpMol VALID AT 7");
class Database {
 public:
  /// Opens (creating if needed) the database in `dir`, replaying any WAL
  /// tail left by a crash.
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                const DatabaseOptions& options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ---- DDL (persisted immediately) ----

  Result<TypeId> CreateAtomType(const std::string& name,
                                std::vector<AttributeDef> attributes);
  Result<LinkTypeId> CreateLinkType(const std::string& name,
                                    const std::string& from_type,
                                    const std::string& to_type);
  Result<MoleculeTypeId> CreateMoleculeType(
      const std::string& name, const std::string& root_type,
      const std::vector<std::pair<std::string, bool>>& edges);

  /// Creates a secondary index over `type_name`.`attr_name` and
  /// backfills it from the existing atom versions.
  Result<IndexId> CreateAttrIndex(const std::string& name,
                                  const std::string& type_name,
                                  const std::string& attr_name);

  // ---- the valid-time clock ----

  /// The database's NOW (a chronon). DML stamped "VALID FROM NOW" uses it
  /// and then advances it by one; explicit stamps pull it forward to
  /// stay monotone.
  Timestamp Now() const { return now_.load(std::memory_order_acquire); }
  void SetNow(Timestamp t) { now_.store(t, std::memory_order_release); }

  // ---- transactions ----

  /// Starts an explicit snapshot-isolation transaction (see
  /// transaction.h). Any number may be open concurrently — each reads
  /// at its own snapshot, buffers its writes, and validates
  /// first-committer-wins at Commit (the loser of a write-write race
  /// gets TxnConflict). Commits share WAL fsyncs with each other and
  /// with auto-commit statements (see Write).
  Transaction Begin();

  /// Opens a caller's MQL session (see session.h): BEGIN; / COMMIT; /
  /// ABORT; act on its own transaction, and it keeps its own last
  /// query trace. Once this Database is destroyed, every call on the
  /// session fails with FailedPrecondition.
  Session OpenSession() { return Session(this, alive_token_); }

  /// Number of explicit transactions currently open (a session's or
  /// programmatic); introspection for tests and the degradation paths.
  size_t ActiveTxns() const { return txn_manager_.active_txns(); }

  // ---- DML (auto-commit: one-op commits through Write) ----
  //
  // `from_now` marks a "VALID FROM NOW" stamp: the passed timestamp is
  // provisional and the operation is re-stamped to the clock's NOW
  // under the writer mutex when it is committed, so a concurrent commit
  // can never make it land at or before an already-pinned snapshot.

  /// Inserts a new atom; unlisted attributes are NULL. Returns its id.
  Result<AtomId> InsertAtom(
      const std::string& type_name,
      const std::vector<std::pair<std::string, Value>>& assignments,
      Timestamp from, bool from_now = false);

  /// Positional variant (all attributes, schema order).
  Result<AtomId> InsertAtomValues(const std::string& type_name,
                                  std::vector<Value> values, Timestamp from,
                                  bool from_now = false);

  /// Partial update: listed attributes change, the rest carry over.
  Status UpdateAtom(const std::string& type_name, AtomId id,
                    const std::vector<std::pair<std::string, Value>>&
                        assignments,
                    Timestamp from, bool from_now = false);

  /// Positional variant (all attributes, schema order).
  Status UpdateAtomValues(const std::string& type_name, AtomId id,
                          std::vector<Value> values, Timestamp from,
                          bool from_now = false);

  Status DeleteAtom(const std::string& type_name, AtomId id, Timestamp from,
                    bool from_now = false);

  Status Connect(const std::string& link_name, AtomId from_id, AtomId to_id,
                 Timestamp at, bool from_now = false);
  Status Disconnect(const std::string& link_name, AtomId from_id,
                    AtomId to_id, Timestamp at, bool from_now = false);

  // ---- queries ----

  /// Session::Execute and Session::Query on a temporary auto-commit
  /// session that keeps no trace. BEGIN is refused with InvalidArgument:
  /// the transaction would end with the call (use OpenSession()). Drain
  /// or Close a cursor before destroying this Database.
  Result<ResultSet> Execute(const std::string& mql) {
    return Session(this).Execute(mql);
  }
  Result<std::unique_ptr<Cursor>> Query(const std::string& mql) {
    return Session(this).Query(mql);
  }

  // ---- observability ----

  /// Point-in-time copy of every registered metric of this database:
  /// store/pool/disk/WAL counters, query counters and latency histogram,
  /// version-cache totals, recovery gauges. Render with ToText()
  /// (Prometheus exposition style) or ToJson().
  tcob::MetricsSnapshot MetricsSnapshot() const {
    return metrics_.Snapshot();
  }

  /// The registry itself (tests register probes; exporters snapshot).
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Chrome/Perfetto trace_event JSON of the flight recorder's rings —
  /// the recent cross-subsystem event history (query/span/WAL/
  /// checkpoint/tier/pool/admission/cancel/budget/health/io events).
  /// Open the result in https://ui.perfetto.dev or chrome://tracing.
  std::string DumpTrace() const { return trace_rec_.DumpJson(); }

  /// DumpTrace() to `path` (best-effort stdio write; see
  /// TraceRecorder::DumpToFile).
  Status DumpTraceToFile(const std::string& path) const;

  /// The flight recorder (runtime toggles: the shell's `.trace`).
  TraceRecorder* trace_recorder() { return &trace_rec_; }
  const TraceRecorder& trace_recorder() const { return trace_rec_; }

  // ---- maintenance ----

  /// Temporal vacuuming: physically removes every atom version, link
  /// interval and index entry that ended at or before `cutoff`.
  /// Time-slice and history queries at instants >= cutoff are
  /// unaffected; queries before the cutoff lose their data (that is the
  /// point). The cutoff is held at the oldest open transaction's
  /// snapshot instant, so no open snapshot loses a version it can see.
  /// Wrapped in checkpoints so the WAL never references vacuumed state.
  /// Returns the number of atom versions removed.
  Result<uint64_t> VacuumBefore(Timestamp cutoff);

  /// Cold-history migration: moves every atom version whose validity
  /// ended at or before NOW - tiering.cold_age into the cold tier's
  /// delta-compressed segments and releases it from the hot store.
  /// No-op (returns 0) when tiering is disabled. Wrapped in checkpoints
  /// like VacuumBefore — the WAL never references a half-migrated store,
  /// and a crash mid-migration recovers to the pre-migration checkpoint.
  /// Returns the number of versions migrated.
  Result<uint64_t> TierMigrate();

  // ---- durability ----

  /// Flushes all state and truncates the WAL.
  Status Checkpoint();

  /// Flushes dirty pages (without truncating the WAL).
  Status Flush();

  /// Exhaustive offline-style integrity check, cheapest first: raw
  /// checksum scan of every page of every file, then per-type store
  /// structure (interval well-formedness, timelines, B+-trees,
  /// index-to-heap resolution), link adjacency mirroring, and attribute
  /// index structure. Read-only; returns Corruption naming the first
  /// violation (file and page for checksum failures).
  Status VerifyIntegrity();

  /// Not-OK once a write to stable storage has failed: the process can
  /// no longer tell what is durable, so every subsequent mutation
  /// (DML, DDL, checkpoint) is refused with this status while reads
  /// continue (the kReadOnly rung of the health ladder). Recovery paths:
  /// TryRecover() in place, or discard this instance and re-Open.
  const Status& health() const { return fail_stop_; }

  /// True once the instance entered fail-stop mode. Mutations after
  /// poisoning keep returning the *original* failure (wrapped by
  /// health()), never a generic error — callers can surface the root
  /// cause without having tracked the first failing call themselves.
  bool IsPoisoned() const { return !fail_stop_.ok(); }

  /// Where this instance sits on the degradation ladder.
  HealthState health_state() const {
    return health_state_.load(std::memory_order_acquire);
  }

  /// Attempts to climb back from kReadOnly to kHealthy: re-probes the
  /// I/O environment with a real write+sync+remove, and on success
  /// clears the fail-stop status and checkpoints (discarding any torn
  /// WAL tail the original failure left behind). Returns the probe (or
  /// checkpoint) failure and stays read-only if the environment is still
  /// refusing writes; refuses outright from kFailed (the in-memory image
  /// is untrusted — re-Open is the only way back). No-op when healthy.
  Status TryRecover();

  /// Adjusts the default SELECT deadline at runtime (the shell's
  /// `.timeout`). 0 disables it; queries already running are unaffected.
  void set_default_query_deadline(uint64_t micros) {
    options_.default_query_deadline_micros = micros;
  }

  /// The global query-memory budget (version-cache pins + buffered
  /// cursor batches charge against it).
  const ResourceBudget& memory_budget() const { return memory_budget_; }

  /// The admission gate (queue-depth / in-flight introspection).
  const AdmissionController& admission() const { return admission_; }

  /// The canonical logical image of the database as dump-format bytes:
  /// catalog, clock, every atom version sorted by (atom id, begin) and
  /// every link interval sorted by (from, to, begin). Identical logical
  /// content yields identical bytes under any storage strategy and any
  /// physical layout history (ExportDump writes exactly these bytes).
  Result<std::string> Dump();

  /// What WAL replay did when this instance was opened.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Sequence number of the last logical operation applied (0 = none
  /// yet). Crash tests use it as the oracle's prefix length.
  uint64_t applied_op_seq() const { return next_op_seq_ - 1; }

  // ---- introspection (benchmarks, tests) ----

  const Catalog& catalog() const { return catalog_; }
  TemporalAtomStore* store() { return store_.get(); }
  const TemporalAtomStore* store() const { return store_.get(); }
  /// The cold tier, or nullptr when tiering is disabled.
  ColdTier* cold_tier() { return cold_tier_.get(); }
  const ColdTier* cold_tier() const { return cold_tier_.get(); }
  LinkStore* links() { return links_.get(); }
  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  WriteAheadLog* wal() { return wal_.get(); }
  AttrIndexManager* attr_indexes() { return attr_indexes_.get(); }
  Materializer materializer() const {
    return Materializer(&catalog_, store_.get(), links_.get(),
                        query_pool_.get());
  }
  const DatabaseOptions& options() const { return options_; }

  /// Coerces + positions named assignments against a type's schema;
  /// `base` supplies carried-over values for partial updates (nullptr
  /// means unlisted attributes become NULL). Shared with Transaction.
  static Result<std::vector<Value>> ResolveAssignmentsFor(
      const AtomTypeDef& type,
      const std::vector<std::pair<std::string, Value>>& assignments,
      const std::vector<Value>* base);

 private:
  friend class Session;
  friend class Transaction;
  // Dump/restore needs the logical-apply path and catalog installation.
  friend Status ExportDump(Database* db, const std::string& path);
  friend Status ImportDump(Database* db, const std::string& path);

  Database(std::string dir, DatabaseOptions options)
      : dir_(std::move(dir)), options_(options) {}

  /// Hands out a fresh atom surrogate (used by Transaction buffering).
  AtomId AllocateAtomId() { return catalog_.NextAtomId(); }

  /// One committer in the writer queue: an auto-commit statement (one
  /// op), a transaction (its buffered ops, then a commit record), or an
  /// ImportDump batch (one atom's history or one link pair's intervals).
  struct Writer {
    std::vector<WalOp> ops;
    /// Nonzero for a transaction: its ops are checked first-committer-
    /// wins against the commits sequenced after `snapshot_seq`, and a
    /// commit record follows them in the log.
    uint64_t txn_id = 0;
    uint64_t snapshot_seq = 0;
    /// The tails the rule folds the ops over: a transaction's as its
    /// snapshot saw them. An entity missing here is read under
    /// writer_mu_ (an INSERT's fresh id reads nothing).
    std::map<TxnWriteKey, TimelineTail> tails;
    /// A partial UPDATE statement's assignments, resolved over the live
    /// version its tail read returns.
    const std::vector<std::pair<std::string, Value>>* assignments = nullptr;
    // Filled by the commit.
    std::vector<TxnWriteKey> keys;     // one per op
    std::vector<std::string> records;  // encoded ops, commit record last
    Status status;
    bool done = false;
    std::condition_variable cv;
  };

  /// Commits `w` through the writer queue and returns its status. The
  /// front committer leads: after the optional batching window it takes
  /// every queued committer whose write keys are disjoint from those of
  /// the committers queued before it, runs CommitGroup for them, and
  /// wakes each with its own status. Without group commit, and for a
  /// write-free transaction, there is no queue: a commit is a group of
  /// its own (or of nothing).
  Status Write(Writer* w);

  /// One group under writer_mu_: CheckWritable; Validate each member;
  /// append the survivors' records; one WAL Sync (sync_wal); apply;
  /// register the commits with txn_manager_. A failed append or fsync
  /// poisons the database with nothing of the group applied; a failed
  /// apply fails it hard.
  void CommitGroup(const std::vector<Writer*>& group);

  /// The per-member step of CommitGroup: first-committer-wins for a
  /// transaction, then each op is re-stamped (VALID FROM NOW takes the
  /// group's running clock `*now`), checked with the rule against its
  /// entity's tail and encoded with the next op_seq (`*seq`). Both
  /// advance only when the whole member passes.
  Status Validate(Writer* w, Timestamp* now, uint64_t* seq);

  /// The tail of the entity `op` writes as the newest state has it (one
  /// point read; an INSERT's fresh id reads nothing); `live` receives an
  /// atom's live version.
  Result<TimelineTail> CurrentTail(const WalOp& op,
                                   std::optional<AtomVersion>* live);

  /// Commits one auto-commit atom statement of `type` and returns the
  /// atom's id (an INSERT allocates it; `id` is ignored). A partial
  /// UPDATE passes its `assignments` and no `attrs`.
  Result<AtomId> WriteAtomStatement(
      WalOpType type, const std::string& type_name, AtomId id,
      std::vector<Value> attrs, Timestamp from, bool from_now,
      const std::vector<std::pair<std::string, Value>>* assignments);

  /// Commits one auto-commit CONNECT or DISCONNECT.
  Status WriteLinkStatement(WalOpType type, const std::string& link_name,
                            AtomId from_id, AtomId to_id, Timestamp at,
                            bool from_now);

  /// Transaction::Abort's notification: unregisters the transaction
  /// from conflict tracking and emits the abort trace event.
  void OnTxnAborted(uint64_t txn_id);

  Status Init();
  Status Recover();

  /// Checkpoint body; caller holds writer_mu_ (maintenance paths that
  /// already hold it call this directly).
  Status CheckpointLocked();

  /// Wires every component's counters into metrics_ (end of Init).
  void RegisterMetrics();

  /// SHOW STATS; and SHOW CATALOG; results.
  Result<ResultSet> ShowStats();
  ResultSet ShowCatalog() const;

  /// Execution state of one SELECT cursor (the executor, its trace, its
  /// work block); lives until the cursor is finalized.
  struct SelectCursorContext;

  /// Opens a cursor over a SELECT: the executor pipeline behind a
  /// producer thread. Inside `txn` (may be null) NOW is its snapshot
  /// and a later VALID AT is clamped back to it. The query trace is
  /// finalized (storage work, metrics, slow-query log, `*stats` when
  /// non-null) exactly once, when the cursor finishes.
  Result<std::unique_ptr<Cursor>> NewSelectCursor(const SelectStmt& stmt,
                                                  const std::string* text,
                                                  double parse_us,
                                                  QueryStats* stats,
                                                  const Transaction* txn);

  /// Stamps the query's storage work and total time into the trace,
  /// updates the query metrics and slow-query log, and hands the trace
  /// to the query's stats_out.
  void FinalizeSelectTrace(SelectCursorContext* ctx);

  /// Applies one logical operation to the stores (DML path and replay).
  Status ApplyOp(const WalOp& op);

  /// Refuses mutations when the open is read-only or the instance has
  /// degraded (fail-stop after an I/O failure).
  Status CheckWritable() const {
    if (options_.read_only) {
      return Status::InvalidArgument("database opened in read-only mode");
    }
    return fail_stop_;
  }

  /// Refuses even reads once the instance reached kFailed (the
  /// in-memory image is untrusted past a post-log apply failure).
  /// fail_stop_ is safe to read here: it is written before the
  /// release-store of kFailed and never again afterwards.
  Status CheckReadable() const {
    if (health_state_.load(std::memory_order_acquire) ==
        HealthState::kFailed) {
      return fail_stop_;
    }
    return Status::OK();
  }

  /// Best-effort automatic flight-recorder dump into the database dir
  /// (or options_.trace.dump_dir) when the instance degrades; `label`
  /// names the transition in the file name. Deliberately bypasses the
  /// IoEnv — it runs exactly when that environment is failing.
  void MaybeDumpTraceOnFailure(const char* label);

  /// Records the first stable-storage failure and degrades to kReadOnly;
  /// later mutations see it, reads keep serving.
  void Poison(const Status& cause);

  /// Hard failure: the in-memory image diverged from the log (an apply
  /// failed after its record was durably appended). Degrades to kFailed;
  /// every access is refused from here and TryRecover cannot help.
  void FailHard(const Status& cause);

  /// Meta file (clock.tcob): NOW and the checkpoint op_seq watermark,
  /// CRC-protected and replaced atomically.
  /// The meta file image: clock, op_seq watermark, CRC. Written to
  /// clock.tcob by SaveMeta and embedded in the page journal's commit
  /// record so recovery can reinstall the watermark that belongs to the
  /// journaled pages.
  std::string EncodeMeta() const;
  Status SaveMeta() const;
  Status LoadMeta();

  /// Persists the catalog atomically; poisons the database on failure.
  Status SaveCatalog();

  /// Coerces a literal to the attribute's declared type (int -> double /
  /// timestamp / id promotions; NULL re-typing).
  static Result<Value> Coerce(const Value& v, AttrType target);

  /// Bumps the clock past `from` so NOW stays monotone. Only writers
  /// (serialized by writer_mu_) store; readers load concurrently.
  void ObserveTimestamp(Timestamp from) {
    if (from >= now_.load(std::memory_order_relaxed)) {
      now_.store(from + 1, std::memory_order_release);
    }
  }

  std::string dir_;
  DatabaseOptions options_;
  IoEnv* env_ = nullptr;  // options_.env or IoEnv::Default(); not owned
  /// Wraps the base environment when options_.io_retry is enabled; env_
  /// then points at it.
  std::unique_ptr<RetryingIoEnv> retry_env_;
  /// Declared before the components so it outlives none of its
  /// registrants' updates; holds non-owning pointers into them and into
  /// the counters below (all destroyed together with this Database).
  MetricsRegistry metrics_;
  /// Flight recorder; declared before every component that holds a
  /// pointer into it (WAL, pool, cold tier, admission, retry env), so
  /// events emitted during their destruction still land in a live ring.
  TraceRecorder trace_rec_{options_.trace};
  Counter statements_total_;
  Counter queries_total_;
  Counter slow_queries_total_;
  Counter checkpoints_total_;
  Counter vcache_atom_hits_total_;
  Counter vcache_atom_misses_total_;
  Counter vcache_link_hits_total_;
  Counter vcache_link_misses_total_;
  Counter vcache_versions_pinned_total_;
  Counter query_cancelled_total_;
  Counter query_deadline_exceeded_total_;
  Counter txns_begun_total_;
  Counter txns_committed_total_;
  Counter txns_aborted_total_;
  Counter txn_conflicts_total_;
  Histogram query_latency_us_{Histogram::LatencyBucketsUs()};
  /// Committers per group fsync (group commit on, sync_wal on).
  Histogram group_commit_size_{{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}};
  /// Global query-memory budget; cap from options_ (0 = unlimited).
  ResourceBudget memory_budget_{options_.memory_budget_bytes};
  /// Admission gate; disabled when options_.max_inflight_queries == 0.
  AdmissionController admission_{options_.max_inflight_queries};
  Catalog catalog_;
  /// Declared before disk_: the manager holds a raw pointer into it.
  std::unique_ptr<PageJournal> journal_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<TemporalAtomStore> store_;
  /// Cold-history tier; non-null iff options_.tiering.enabled. Attached
  /// to store_, so declared after it (destroyed first; the store never
  /// dereferences it during destruction).
  std::unique_ptr<ColdTier> cold_tier_;
  std::unique_ptr<LinkStore> links_;
  std::unique_ptr<AttrIndexManager> attr_indexes_;
  std::unique_ptr<WriteAheadLog> wal_;
  /// Query-path worker pool; null when options_.parallelism resolves
  /// to 1 (serial execution).
  std::unique_ptr<ThreadPool> query_pool_;
  /// Serializes every mutation: a commit group (validation, append,
  /// fsync and apply), DDL, snapshot pins, checkpoints, and
  /// maintenance. Reads never take it.
  mutable std::mutex writer_mu_;
  /// Guards the writer queue. Never held while taking writer_mu_.
  std::mutex queue_mu_;
  /// Committers waiting for (or in) a group, in arrival order; the
  /// front one leads.
  std::deque<Writer*> queue_;
  /// Commit clock, active-transaction registry, and the pruned
  /// write-set log behind first-committer-wins validation.
  TxnManager txn_manager_;
  /// Liveness token handed to every Transaction as a weak_ptr; reset
  /// first thing in the destructor, so a Transaction that outlives this
  /// Database degrades to FailedPrecondition instead of dangling.
  std::shared_ptr<void> alive_token_ = std::make_shared<int>(0);
  std::atomic<Timestamp> now_{1};
  /// Transaction ids are not persisted, so Recover() advances this past
  /// every txn id observed in the WAL: a fresh id may otherwise collide
  /// with an orphaned transaction's records still physically in the log
  /// and make a later recovery replay them as committed.
  std::atomic<uint64_t> next_txn_id_{1};
  /// Query ids stamped into trace events (per instance, never reused).
  std::atomic<uint64_t> next_query_id_{1};
  /// Sequence of automatic failure dumps (unique file names).
  uint64_t trace_dump_seq_ = 0;
  /// Sequence number the next logical operation will carry. Persisted
  /// into the meta file by Checkpoint; replay skips operations below the
  /// persisted base, making recovery idempotent under re-crash.
  uint64_t next_op_seq_ = 1;
  /// OK until a stable-storage write fails; then the first failure —
  /// held until TryRecover clears it (kReadOnly) or forever (kFailed).
  Status fail_stop_ = Status::OK();
  /// Where this instance sits on the degradation ladder. Atomic so the
  /// read path can consult it while a committer degrades the instance.
  std::atomic<HealthState> health_state_{HealthState::kHealthy};
  RecoveryStats recovery_stats_;
  /// Set once Init (including recovery) succeeds. A Database whose open
  /// failed must not write anything on destruction — the on-disk state
  /// it saw is untrusted.
  bool initialized_ = false;
};

}  // namespace tcob

#endif  // TCOB_DB_DATABASE_H_
