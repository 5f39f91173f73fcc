#include "sim/harness.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "db/database.h"
#include "db/transaction.h"
#include "db/txn_manager.h"
#include "storage/fault_env.h"
#include "tstore/temporal_store.h"

namespace tcob::sim {

namespace {

/// One committed (or possibly-committed, for crash reconciliation)
/// logical operation with every id resolved to the instance's actual
/// database surrogates. The per-instance journal holds these in commit
/// order; the end-of-run serializability check replays the journal into
/// a fresh model.
struct ResolvedOp {
  SimOpKind kind = SimOpKind::kInsert;
  uint32_t type_pos = 0;
  uint32_t link_pos = 0;
  AtomId atom = 0;  // db id (insert: the id the allocation produced)
  AtomId from = 0;
  AtomId to = 0;
  std::vector<std::pair<uint32_t, Value>> set;
  Timestamp at = 0;
  AtomId sim_atom = 0;  // insert: the sim-stream id, for the id map
  /// kVacuum only: a cut interrupted it — replay masks instead of
  /// removing (mirrors SimModel::NoteUncertainVacuum).
  bool vacuum_uncertain = false;
};

/// An in-flight explicit transaction on one instance.
struct TxnSlot {
  bool open = false;
  std::optional<Transaction> txn;
  /// Snapshot overlay: a copy of the lock-step model at Begin() with
  /// this transaction's own buffered effects applied — exactly the
  /// state the real Transaction's eager validation sees.
  std::optional<SimModel> overlay;
  std::map<AtomId, AtomId> pending_ids;  // sim id -> db id (own inserts)
  std::vector<ResolvedOp> resolved;
  std::vector<TxnWriteKey> keys;
  /// The harness commit clock at Begin() — the conflict window's lower
  /// bound, mirroring TxnManager's snapshot sequence.
  uint64_t begin_clock = 0;
};

/// A possibly-durable commit group for crash reconciliation: `seqs` op
/// sequences (n ops + 1 commit record for a transaction, 1 for an
/// auto-committed statement). sync_wal means an acked group is durable,
/// so after a cut the recovered prefix is exactly `acked` or
/// `acked + seqs` — a commit group is all-or-nothing.
struct PendingCommit {
  std::vector<ResolvedOp> ops;
  uint64_t seqs = 0;
};

TxnWriteKey AtomKey(AtomId id) {
  TxnWriteKey k;
  k.kind = TxnWriteKey::Kind::kAtom;
  k.a = id;
  return k;
}

/// Canonical link key. The real TxnManager keys on the link *type id*;
/// the harness keys on the link position — an injective rename, so the
/// conflict predicate is identical.
TxnWriteKey LinkKey(uint32_t link_pos, AtomId from, AtomId to) {
  TxnWriteKey k;
  k.kind = TxnWriteKey::Kind::kLink;
  k.a = link_pos;
  k.b = from;
  k.c = to;
  return k;
}

TxnWriteKey KeyFor(const ResolvedOp& rop) {
  return rop.kind == SimOpKind::kConnect || rop.kind == SimOpKind::kDisconnect
             ? LinkKey(rop.link_pos, rop.from, rop.to)
             : AtomKey(rop.atom);
}

/// One database under test: a real Database over its own in-memory
/// fault-injecting environment, plus the lock-step reference model and
/// the sim-id -> db-id translation (they diverge once a power cut loses
/// an insert: the catalog re-uses the lost id, the sim stream does not).
struct Instance {
  std::string name;
  StorageStrategy strategy = StorageStrategy::kSeparated;
  size_t parallelism = 1;
  TieringOptions tiering;
  /// Mirrors SimWorkload::transient_io_enabled: the instance opens with
  /// a read-retry policy armed, so injected transient EIOs are absorbed.
  bool transient_io = false;
  std::string dir = "simdb";

  FaultInjectingIoEnv env;
  std::unique_ptr<Database> db;
  SimModel model;
  std::map<AtomId, AtomId> id_map;  // sim id -> this instance's db id

  /// Logical ops this instance got logged, all of them acked (a refused
  /// statement is never logged); invariant: == db->applied_op_seq().
  uint64_t acked = 0;
  bool cut_armed = false;
  CutMode cut_mode = CutMode::kDropUnsynced;
  /// A cut interrupted a vacuum: removed-count comparisons are off from
  /// here on (the database may have vacuumed rows the model still holds).
  bool vacuum_uncertain = false;
  bool retired = false;

  uint64_t cuts_fired = 0;
  uint64_t skipped_ops = 0;
  uint64_t rejected_dml = 0;
  uint64_t queries_run = 0;
  uint64_t queries_compared = 0;
  uint64_t queries_governed = 0;
  uint64_t dump_hash = 0;

  // ---- explicit transactions -----------------------------------------
  /// Declared after `db`: slots hold live Transaction objects, which
  /// must be destroyed (auto-abort) before the Database they reference.
  std::vector<TxnSlot> slots;
  /// Harness mirror of the TxnManager's commit sequence and retained
  /// write-sets: every auto-committed statement and every transaction
  /// commit bumps the clock; write-sets are retained only while a slot
  /// is open (exactly RecordLocked's rule), so first-committer-wins
  /// conflicts are predicted, not observed.
  uint64_t commit_clock = 0;
  std::vector<std::pair<uint64_t, std::vector<TxnWriteKey>>> commit_log;
  /// Committed logical ops in commit order, plus vacuum events — the
  /// serial history the final database state must equal.
  std::vector<ResolvedOp> journal;
  /// Atom-surrogate watermark prediction. Buffered inserts burn ids on
  /// abort/conflict and checkpoints persist the burn-inclusive
  /// watermark, so the prediction is an interval: normally exact
  /// (lo == hi), widened only while a cut left the last catalog save
  /// uncertain.
  AtomId next_id_lo = 1;
  AtomId next_id_hi = 1;
  /// Watermark floor persisted by the last known-successful checkpoint
  /// (checkpoint / vacuum / tier-migrate all save the catalog).
  AtomId ckpt_id_lo = 1;
  AtomId max_committed_id = 0;
  uint64_t txns_begun = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t txns_conflicted = 0;
  uint64_t serial_checks = 0;

  Instance(const SimSchema* schema, ModelBug bug) : model(schema, bug) {}
};

DatabaseOptions MakeOptions(Instance* inst) {
  DatabaseOptions opts;
  opts.strategy = inst->strategy;
  // Tiny pools force mid-run evictions and writebacks — more I/O events,
  // more distinct crash points. Parallel readers need a few more pages.
  opts.buffer_pool_pages = inst->parallelism == 1 ? 16 : 32;
  opts.sync_wal = true;  // an ack must mean durable
  opts.parallelism = inst->parallelism;
  opts.env = &inst->env;
  opts.tiering = inst->tiering;
  if (inst->transient_io) {
    // Up to 3 retries per read: the generator injects at most 2
    // consecutive transient failures, so governed reads always succeed.
    opts.io_retry.max_attempts = 4;
    opts.io_retry.base_backoff_micros = 1;  // sim time is precious
    opts.io_retry.max_backoff_micros = 16;
  }
  // Instances degrade on purpose (power cuts, poisoned WALs); automatic
  // host-filesystem dumps would fire constantly. The harness captures
  // the failing instance's trace into RunResult at divergence instead.
  opts.trace.dump_on_failure = false;
  return opts;
}

AtomId Translate(const Instance& inst, AtomId sim_id) {
  auto it = inst.id_map.find(sim_id);
  if (it != inst.id_map.end()) return it->second;
  return sim_id >= kSimDanglingBase ? sim_id : kSimDanglingBase + sim_id;
}

/// Like Translate, but a transaction's own (uncommitted) inserts resolve
/// first: inside the buffering transaction they are visible; everywhere
/// else they are not mapped, so other slots and the auto path see a
/// dangling id — matching snapshot isolation exactly.
AtomId TranslateFor(const Instance& inst, const TxnSlot* slot,
                    AtomId sim_id) {
  if (slot != nullptr) {
    auto it = slot->pending_ids.find(sim_id);
    if (it != slot->pending_ids.end()) return it->second;
  }
  return Translate(inst, sim_id);
}

/// The open slot a DML op is buffered into, or null for auto-commit.
/// A slotted op whose slot is not open (a cut or reopen discarded the
/// transaction, or a shrunk trace dropped the begin) runs auto-commit.
TxnSlot* OpenSlotFor(Instance* inst, const SimOp& op) {
  switch (op.kind) {
    case SimOpKind::kInsert:
    case SimOpKind::kUpdate:
    case SimOpKind::kDelete:
    case SimOpKind::kConnect:
    case SimOpKind::kDisconnect:
      break;
    default:
      return nullptr;  // kBadUpdate and non-DML ops never buffer
  }
  if (op.txn_slot < 0) return nullptr;
  size_t s = static_cast<size_t>(op.txn_slot);
  if (s >= inst->slots.size() || !inst->slots[s].open) return nullptr;
  return &inst->slots[s];
}

/// Resolves a DML SimOp's ids against the instance (and, if buffered,
/// the slot's own pending inserts). Insert callers overwrite `atom` with
/// the id the database actually allocated.
ResolvedOp ResolveDml(const Instance& inst, const TxnSlot* slot,
                      const SimOp& op) {
  ResolvedOp rop;
  rop.kind = op.kind;
  rop.type_pos = op.type_pos;
  rop.link_pos = op.link_pos;
  rop.set = op.set;
  rop.at = op.at;
  rop.sim_atom = op.atom;
  rop.atom = TranslateFor(inst, slot, op.atom);
  rop.from = TranslateFor(inst, slot, op.from);
  rop.to = TranslateFor(inst, slot, op.to);
  return rop;
}

/// Bumps the mirrored commit clock and retains the group's write-set —
/// but only while some transaction is open, exactly like the real
/// TxnManager's RecordLocked (entries nobody's conflict window can reach
/// are never kept, so the mirror's predictions match key for key).
void RecordCommit(Instance* inst, std::vector<TxnWriteKey> keys) {
  ++inst->commit_clock;
  bool any_open = false;
  for (const TxnSlot& s : inst->slots) any_open |= s.open;
  if (!any_open) {
    inst->commit_log.clear();
    return;
  }
  std::sort(keys.begin(), keys.end());
  inst->commit_log.emplace_back(inst->commit_clock, std::move(keys));
}

/// Mirrors one committed (or recovered-as-durable) resolved op into the
/// lock-step model and appends it to the serializability journal.
void ApplyResolved(Instance* inst, const ResolvedOp& rop) {
  switch (rop.kind) {
    case SimOpKind::kInsert:
      inst->model.InsertAtomWithId(rop.atom, rop.type_pos, rop.set, rop.at);
      inst->id_map[rop.sim_atom] = rop.atom;
      if (rop.atom > inst->max_committed_id) inst->max_committed_id = rop.atom;
      break;
    case SimOpKind::kUpdate:
    case SimOpKind::kBadUpdate:
      inst->model.UpdateAtom(rop.type_pos, rop.atom, rop.set, rop.at);
      break;
    case SimOpKind::kDelete:
      inst->model.DeleteAtom(rop.type_pos, rop.atom, rop.at);
      break;
    case SimOpKind::kConnect:
      inst->model.Connect(rop.link_pos, rop.from, rop.to, rop.at);
      break;
    case SimOpKind::kDisconnect:
      inst->model.Disconnect(rop.link_pos, rop.from, rop.to, rop.at);
      break;
    default:
      break;  // kVacuum entries are journal-only
  }
  inst->journal.push_back(rop);
}

/// Discards every open transaction slot (reopen and power-cut paths).
/// Must run while the Database is still alive: the Transaction
/// destructor's abort is pure bookkeeping (no I/O), but it unregisters
/// from the live TxnManager.
void DiscardSlots(Instance* inst) {
  for (TxnSlot& s : inst->slots) {
    if (!s.open) continue;
    s.txn.reset();
    s.overlay.reset();
    s.open = false;
    ++inst->txns_aborted;
  }
}

std::vector<std::pair<std::string, Value>> NamedAssignments(
    const SimSchema& schema, const SimOp& op) {
  const SimAtomTypeDef& def = schema.atom_types[op.type_pos];
  std::vector<std::pair<std::string, Value>> out;
  for (const auto& [pos, value] : op.set) {
    out.emplace_back(def.attrs[pos].name, value);
  }
  return out;
}

Status SetupInstance(Instance* inst, const SimSchema& schema) {
  TCOB_ASSIGN_OR_RETURN(inst->db,
                        Database::Open(inst->dir, MakeOptions(inst)));
  for (const SimAtomTypeDef& t : schema.atom_types) {
    std::vector<AttributeDef> attrs;
    for (const SimAttrDef& a : t.attrs) attrs.push_back({a.name, a.type});
    TCOB_RETURN_NOT_OK(
        inst->db->CreateAtomType(t.name, std::move(attrs)).status());
  }
  for (const SimLinkTypeDef& l : schema.link_types) {
    TCOB_RETURN_NOT_OK(inst->db
                           ->CreateLinkType(l.name,
                                            schema.atom_types[l.from_pos].name,
                                            schema.atom_types[l.to_pos].name)
                           .status());
  }
  for (const SimMoleculeTypeDef& m : schema.molecule_types) {
    std::vector<std::pair<std::string, bool>> edges;
    for (const auto& [link_pos, forward] : m.edges) {
      edges.emplace_back(schema.link_types[link_pos].name, forward);
    }
    TCOB_RETURN_NOT_OK(
        inst->db
            ->CreateMoleculeType(m.name, schema.atom_types[m.root_pos].name,
                                 edges)
            .status());
  }
  for (const SimIndexDef& ix : schema.indexes) {
    TCOB_RETURN_NOT_OK(
        inst->db
            ->CreateAttrIndex(
                ix.name, schema.atom_types[ix.type_pos].name,
                schema.atom_types[ix.type_pos].attrs[ix.attr_pos].name)
            .status());
  }
  return inst->db->Checkpoint();
}

std::string RenderRowsDiff(const std::multiset<std::string>& expected,
                           const std::multiset<std::string>& actual) {
  std::string out;
  size_t shown = 0;
  std::multiset<std::string> only_model = expected, only_db = actual;
  for (const std::string& r : actual) {
    auto it = only_model.find(r);
    if (it != only_model.end()) only_model.erase(it);
  }
  for (const std::string& r : expected) {
    auto it = only_db.find(r);
    if (it != only_db.end()) only_db.erase(it);
  }
  for (const std::string& r : only_model) {
    if (++shown > 8) { out += "\n    ..."; break; }
    out += "\n    model-only: " + r;
  }
  shown = 0;
  for (const std::string& r : only_db) {
    if (++shown > 8) { out += "\n    ..."; break; }
    out += "\n    db-only:    " + r;
  }
  return out;
}

/// Destroys the crashed database instance, revives the environment and
/// reopens, reconciling the possibly-in-flight commit group (`pending`,
/// may be null): sync_wal means every acked group is durable, so the
/// recovered prefix must be exactly `acked` or `acked + pending->seqs`
/// logical op sequences — a commit group is all-or-nothing.
std::optional<std::string> HandleCrash(Instance* inst,
                                       const PendingCommit* pending) {
  ++inst->cuts_fired;
  CutMode mode = inst->cut_mode;
  inst->cut_armed = false;
  // Open transactions die with the process: destroy them while the
  // Database is still alive (the abort is pure bookkeeping, no I/O).
  DiscardSlots(inst);
  // Destroy the victim BEFORE Revive: its destructor's I/O all fails
  // against the dead environment and writes nothing.
  inst->db.reset();
  inst->env.ClearFaults();
  inst->env.Revive();
  Result<std::unique_ptr<Database>> reopened =
      Database::Open(inst->dir, MakeOptions(inst));
  if (!reopened.ok()) {
    if (mode == CutMode::kKeepAllTearLast &&
        reopened.status().IsCorruption()) {
      // A torn write can leave a detectably corrupt image; refusing to
      // open it is correct behaviour. Retire the instance. Any other
      // refusal (a logged statement failing replay) is a recovery bug.
      inst->retired = true;
      return std::nullopt;
    }
    return "reopen after cut failed: " + reopened.status().ToString();
  }
  inst->db = std::move(reopened.value());
  Status integrity = inst->db->VerifyIntegrity();
  if (!integrity.ok()) {
    if (mode == CutMode::kKeepAllTearLast) {
      inst->retired = true;
      inst->db.reset();
      return std::nullopt;
    }
    return "integrity check failed after kDropUnsynced cut: " +
           integrity.ToString();
  }
  uint64_t recovered = inst->db->applied_op_seq();
  if (recovered == inst->acked) {
    // The in-flight commit group (if any) did not survive. A lost
    // multi-op group was a transaction whose slot is already closed, so
    // DiscardSlots above did not count it.
    if (pending != nullptr && pending->seqs > 1) ++inst->txns_aborted;
  } else if (pending != nullptr && pending->seqs > 0 &&
             recovered == inst->acked + pending->seqs) {
    // The in-flight commit group turned out durable: all or nothing.
    std::vector<ResolvedOp> ops = pending->ops;
    if (pending->seqs == 1 && ops.size() == 1 &&
        ops[0].kind == SimOpKind::kInsert) {
      // An auto-committed insert's surrogate was only predicted (the
      // interval may be wide after an uncertain checkpoint). The insert
      // is the newest allocation the recovered catalog replayed, so the
      // watermark sits exactly one past it — read the truth back.
      AtomId actual = inst->db->catalog().CurrentAtomIdWatermark() - 1;
      if (inst->model.atoms().count(actual) != 0) {
        return "recovered insert id " + std::to_string(actual) +
               " collides with a live atom";
      }
      ops[0].atom = actual;
    }
    std::vector<TxnWriteKey> keys;
    keys.reserve(ops.size());
    for (const ResolvedOp& rop : ops) keys.push_back(KeyFor(rop));
    RecordCommit(inst, std::move(keys));
    for (const ResolvedOp& rop : ops) ApplyResolved(inst, rop);
    inst->acked = recovered;
    if (pending->seqs > 1) ++inst->txns_committed;
  } else {
    return "recovered op count " + std::to_string(recovered) +
           " outside {acked=" + std::to_string(inst->acked) +
           ", acked+pending} after cut";
  }
  // Surrogate watermark after recovery: at least the floor the last
  // known-successful catalog save persisted and past every committed
  // insert; the upper bound never grows (recovery can only lose burned
  // allocations, not invent them).
  AtomId lo = std::max(inst->ckpt_id_lo, inst->max_committed_id + 1);
  inst->next_id_lo = lo;
  if (inst->next_id_hi < lo) inst->next_id_hi = lo;
  return std::nullopt;
}

/// Routes a failed database call: if the armed power cut fired, run
/// crash recovery (with `pending` as the possibly-durable commit group),
/// otherwise report the status as a divergence.
std::optional<std::string> FailOrCrash(Instance* inst, const Status& s,
                                       const PendingCommit* pending,
                                       const char* what) {
  if (inst->env.cut_fired()) return HandleCrash(inst, pending);
  return std::string(what) + ": " + s.ToString();
}

/// Checks an auto-commit statement the model rejects: the database must
/// reject it too, leaving the model unchanged. A refused statement is
/// never logged, so it uses up no op_seq: the applied_op_seq() == acked
/// checks catch one that was. Any other failure may only be a crash,
/// and nothing of the statement can have reached the log.
std::optional<std::string> ExpectRejected(Instance* inst, const Status& s,
                                          const char* what) {
  if (s.ok()) {
    return std::string("invalid ") + what + " unexpectedly succeeded";
  }
  if (s.IsNotFound() || s.IsInvalidArgument() || s.IsAlreadyExists()) {
    ++inst->rejected_dml;
    return std::nullopt;
  }
  return FailOrCrash(
      inst, s, nullptr,
      "invalid DML (expected NotFound, InvalidArgument or AlreadyExists)");
}

/// Re-runs a successfully compared query through Database::Query and
/// requires the cursor to stream exactly the materialized result: same
/// columns, same rows in the same order, same message. Batch size
/// rotates (1 / 7 / everything) so both the per-row and the bulk pull
/// paths get exercised. On parallel instances — where power cuts never
/// arm, so extra nondeterministic I/O cannot perturb a cut schedule —
/// every fifth compared query additionally opens a second cursor, reads
/// one row, and Closes it mid-stream to exercise early abandonment.
std::optional<std::string> CursorCrossCheck(Instance* inst,
                                            const std::string& mql,
                                            const ResultSet& base) {
  Result<std::unique_ptr<Cursor>> opened = inst->db->Query(mql);
  if (!opened.ok()) {
    if (inst->env.cut_fired()) return HandleCrash(inst, nullptr);
    return "cursor open failed where materialized query succeeded: " +
           opened.status().ToString();
  }
  std::unique_ptr<Cursor> cursor = std::move(opened.value());
  if (cursor->columns() != base.columns) {
    return "cursor columns diverge from materialized result for `" + mql +
           "`";
  }
  size_t batch_rows = 1;
  switch (inst->queries_run % 3) {
    case 0: batch_rows = 1; break;
    case 1: batch_rows = 7; break;
    default: batch_rows = base.rows.size() + 1; break;
  }
  std::vector<std::vector<Value>> rows;
  std::vector<std::vector<Value>> batch;
  Status drain = Status::OK();
  for (;;) {
    Result<size_t> pulled = cursor->NextBatch(batch_rows, &batch);
    if (!pulled.ok()) {
      drain = pulled.status();
      break;
    }
    for (std::vector<Value>& row : batch) rows.push_back(std::move(row));
    if (pulled.value() < batch_rows) break;
  }
  std::string message = cursor->message();
  cursor->Close();
  cursor.reset();  // destroy before any crash handling
  if (!drain.ok()) {
    if (inst->env.cut_fired()) return HandleCrash(inst, nullptr);
    return "cursor drain failed where materialized query succeeded: " +
           drain.ToString();
  }
  if (rows.size() != base.rows.size()) {
    return "cursor streamed " + std::to_string(rows.size()) +
           " row(s), materialized result has " +
           std::to_string(base.rows.size()) + " for `" + mql + "`";
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] != base.rows[i]) {
      return "cursor row [" + std::to_string(i) +
             "] diverges from materialized result for `" + mql + "`";
    }
  }
  if (message != base.message) {
    return "cursor message diverges from materialized result for `" + mql +
           "`";
  }
  if (inst->parallelism != 1 && base.rows.size() >= 2 &&
      inst->queries_run % 5 == 0) {
    Result<std::unique_ptr<Cursor>> second = inst->db->Query(mql);
    if (!second.ok()) {
      return "early-close cursor open failed: " + second.status().ToString();
    }
    std::vector<Value> row;
    Result<bool> first = second.value()->Next(&row);
    if (!first.ok()) {
      return "early-close first pull failed: " + first.status().ToString();
    }
    second.value()->Close();
  }
  return std::nullopt;
}

/// Runs a governed query (deadline and/or cancel armed) through the
/// cursor surface. Whether it completes, aborts mid-stream, or aborts
/// before the first row is a wall-clock race, so the result is never
/// compared; the oracle only requires a *legal status class* — OK, the
/// governance statuses, or the statuses the query could legally return
/// ungoverned — and the standing invariants (op-seq accounting, later
/// queries) prove the abort unwound cleanly.
std::optional<std::string> ExecGovernedQuery(Instance* inst,
                                             const SimSchema& schema,
                                             const SimOp& op) {
  ++inst->queries_governed;
  std::string mql = QueryToMql(schema, op);
  auto legal = [](const Status& s) {
    return s.ok() || s.IsDeadlineExceeded() || s.IsCancelled() ||
           s.IsNotFound() || s.IsInvalidArgument();
  };
  if (op.deadline_micros > 0) {
    inst->db->set_default_query_deadline(op.deadline_micros);
  }
  Result<std::unique_ptr<Cursor>> opened = inst->db->Query(mql);
  if (op.deadline_micros > 0) inst->db->set_default_query_deadline(0);
  if (!opened.ok()) {
    if (legal(opened.status())) return std::nullopt;
    return "governed query `" + mql +
           "` open returned illegal status: " + opened.status().ToString();
  }
  std::unique_ptr<Cursor> cursor = std::move(opened.value());
  std::thread canceller;
  if (op.cancel) {
    // Cancel is documented safe from any thread, concurrently with the
    // drain below — this is the raciest legal use of the API.
    Cursor* raw = cursor.get();
    canceller = std::thread([raw]() { raw->Cancel(); });
  }
  std::vector<std::vector<Value>> batch;
  Status drain = Status::OK();
  for (;;) {
    Result<size_t> pulled = cursor->NextBatch(16, &batch);
    if (!pulled.ok()) {
      drain = pulled.status();
      break;
    }
    if (pulled.value() < 16) break;
  }
  if (canceller.joinable()) canceller.join();
  cursor->Close();
  cursor.reset();
  if (!legal(drain)) {
    return "governed query `" + mql +
           "` drain returned illegal status: " + drain.ToString();
  }
  return std::nullopt;
}

std::optional<std::string> ExecQuery(Instance* inst, const SimSchema& schema,
                                     const SimOp& op,
                                     const RunOptions& options) {
  ++inst->queries_run;
  // Transient-EIO disk mode: fail the next N reads with an injected
  // transient EIO the instance's retry policy absorbs. Deterministic (N
  // injected failures cost exactly N extra read events), so it is safe
  // on every instance, armed cuts included.
  if (op.transient_read_failures > 0 && inst->transient_io) {
    inst->env.FailTransientReads(op.transient_read_failures);
  }
  // Deadline/cancel governance runs only on parallel instances, where
  // power cuts never arm: a wall-clock abort point changes which pages
  // the buffer pool holds, hence future read-event counts, hence where
  // an event-indexed cut would fire — nondeterministic crash points on
  // p1. On p4 the perturbation is harmless (dumps compare logical
  // content, not cache state).
  if (inst->parallelism != 1 && (op.deadline_micros > 0 || op.cancel)) {
    return ExecGovernedQuery(inst, schema, op);
  }
  SimModel::QueryExpectation expect = inst->model.ExpectedRows(op);
  std::string mql = QueryToMql(schema, op);
  Session session = inst->db->OpenSession();
  Result<ResultSet> r = session.Execute(mql);

  if (expect.expect_error) {
    const char* want =
        expect.error_is_not_found ? "NotFound" : "InvalidArgument";
    if (r.ok()) {
      return "query `" + mql + "` expected " + want + ", got " +
             std::to_string(r.value().rows.size()) + " row(s)";
    }
    bool matched = expect.error_is_not_found ? r.status().IsNotFound()
                                             : r.status().IsInvalidArgument();
    if (matched) return std::nullopt;
    std::string what = std::string("query (expected ") + want + ")";
    return FailOrCrash(inst, r.status(), nullptr, what.c_str());
  }
  if (expect.skip_compare) {
    // Below the uncertain-vacuum horizon both the rows and even the
    // error outcome depend on whether an interrupted vacuum committed:
    // execute for coverage but accept any result. A fired cut still
    // needs crash recovery.
    if (!r.ok() && inst->env.cut_fired()) return HandleCrash(inst, nullptr);
    return std::nullopt;
  }
  if (!r.ok()) return FailOrCrash(inst, r.status(), nullptr, "query");
  const ResultSet& rs = r.value();

  if (rs.columns != expect.columns) {
    std::string got, want;
    for (const std::string& c : rs.columns) got += c + ",";
    for (const std::string& c : expect.columns) want += c + ",";
    return "query `" + mql + "` column mismatch: db [" + got + "] model [" +
           want + "]";
  }

  {
    Result<std::multiset<std::string>> canon =
        inst->model.CanonicalizeDb(op, rs);
    if (!canon.ok()) {
      return "query `" + mql +
             "` result not canonicalizable: " + canon.status().ToString();
    }
    if (canon.value() != expect.rows) {
      return "query `" + mql + "` row divergence:" +
             RenderRowsDiff(expect.rows, canon.value());
    }
    ++inst->queries_compared;
  }
  if (op.order_by >= 0) {
    // Same rows as the model; ORDER BY must also have sorted on its key.
    const std::string key = ProjRefName(schema, op.proj[op.order_by]);
    const size_t column =
        std::find(rs.columns.begin(), rs.columns.end(), key) -
        rs.columns.begin();
    for (size_t i = 1; i < rs.rows.size(); ++i) {
      Result<int> cmp = rs.rows[i - 1][column].Compare(rs.rows[i][column]);
      if (!cmp.ok() || (op.order_desc ? cmp.value() < 0 : cmp.value() > 0)) {
        return "query `" + mql + "` not sorted on " + key + " at row " +
               std::to_string(i);
      }
    }
  }

  if (options.check_metrics) {
    const QueryStats& qs = session.last_query_stats();
    if (qs.rows != rs.rows.size()) {
      return "trace rows counter " + std::to_string(qs.rows) +
             " != result rows " + std::to_string(rs.rows.size());
    }
    const char* want_mode =
        op.qkind == SimQueryKind::kAllHistory ? "history"
        : (op.qkind == SimQueryKind::kAllWindow ||
           op.qkind == SimQueryKind::kProjWindow)
            ? "window"
            : "as-of";
    if (qs.temporal_mode != want_mode) {
      return "trace temporal_mode `" + qs.temporal_mode + "` != `" +
             want_mode + "`";
    }
    if (qs.strategy != StorageStrategyName(inst->strategy)) {
      return "trace strategy `" + qs.strategy + "` != instance strategy";
    }
    // Span sanity: direct timers are non-negative and the execute span
    // nests inside total. (materialize_us is a derived difference and
    // may jitter slightly negative; it is not checked.)
    if (qs.parse_us < 0 || qs.plan_us < 0 || qs.execute_us < 0 ||
        qs.total_us < 0) {
      return "negative span in query trace";
    }
    if (qs.execute_us > qs.total_us + 500.0) {
      return "execute span exceeds total span beyond timer slack";
    }
  }
  if (options.check_cursors) {
    return CursorCrossCheck(inst, mql, rs);
  }
  return std::nullopt;
}

/// Buffers one DML op into an open transaction slot. The slot's overlay
/// model predicts the validation outcome (the real Transaction validates
/// eagerly against snapshot + own writes); nothing touches the lock-step
/// model or `acked` until commit. Overlay reads are real I/O, so an
/// armed cut can fire here — there is no pending commit group yet, so
/// crash recovery reconciles with pending = null.
std::optional<std::string> BufferTxnOp(Instance* inst, TxnSlot* slot,
                                       const SimSchema& schema,
                                       const SimOp& op) {
  switch (op.kind) {
    case SimOpKind::kInsert: {
      ResolvedOp rop = ResolveDml(*inst, slot, op);
      AtomId lo = inst->next_id_lo, hi = inst->next_id_hi;
      Result<AtomId> r = slot->txn->InsertAtom(
          schema.atom_types[op.type_pos].name, NamedAssignments(schema, op),
          op.at);
      // Buffering allocates the surrogate even though nothing commits
      // yet (and burns it if the transaction aborts or conflicts).
      ++inst->next_id_lo;
      ++inst->next_id_hi;
      if (!r.ok()) {
        // No store reads happen here, so this cannot be a fired cut.
        return FailOrCrash(inst, r.status(), nullptr, "txn insert");
      }
      AtomId id = r.value();
      if (id < lo || id > hi) {
        return "txn insert allocated id " + std::to_string(id) +
               " outside predicted [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
      }
      if (inst->model.atoms().count(id) != 0) {
        return "txn insert allocated id " + std::to_string(id) +
               " colliding with a live atom";
      }
      inst->next_id_lo = inst->next_id_hi = id + 1;
      rop.atom = id;
      slot->pending_ids[op.atom] = id;
      slot->overlay->InsertAtomWithId(id, op.type_pos, op.set, op.at);
      slot->keys.push_back(AtomKey(id));
      slot->resolved.push_back(std::move(rop));
      break;
    }
    case SimOpKind::kUpdate: {
      ResolvedOp rop = ResolveDml(*inst, slot, op);
      bool valid = slot->overlay->CanUpdate(op.type_pos, rop.atom, op.at);
      Status s = slot->txn->UpdateAtom(schema.atom_types[op.type_pos].name,
                                       rop.atom, NamedAssignments(schema, op),
                                       op.at);
      if (valid) {
        if (!s.ok()) return FailOrCrash(inst, s, nullptr, "txn update");
        slot->overlay->UpdateAtom(op.type_pos, rop.atom, op.set, op.at);
        slot->keys.push_back(AtomKey(rop.atom));
        slot->resolved.push_back(std::move(rop));
      } else {
        if (s.ok()) {
          return "buffered update of invalid target #" +
                 std::to_string(rop.atom) + " unexpectedly succeeded";
        }
        if (!s.IsInvalidArgument() && !s.IsNotFound()) {
          return FailOrCrash(
              inst, s, nullptr,
              "invalid buffered update (expected InvalidArgument/NotFound)");
        }
      }
      break;
    }
    case SimOpKind::kDelete: {
      ResolvedOp rop = ResolveDml(*inst, slot, op);
      // Deletes validate eagerly inside a transaction too, but the
      // harness keeps the auto path's discipline: skip invalid ones.
      if (!slot->overlay->CanDelete(op.type_pos, rop.atom, op.at)) {
        ++inst->skipped_ops;
        break;
      }
      Status s = slot->txn->DeleteAtom(schema.atom_types[op.type_pos].name,
                                       rop.atom, op.at);
      if (!s.ok()) return FailOrCrash(inst, s, nullptr, "txn delete");
      slot->overlay->DeleteAtom(op.type_pos, rop.atom, op.at);
      slot->keys.push_back(AtomKey(rop.atom));
      slot->resolved.push_back(std::move(rop));
      break;
    }
    case SimOpKind::kConnect:
    case SimOpKind::kDisconnect: {
      ResolvedOp rop = ResolveDml(*inst, slot, op);
      bool connect = op.kind == SimOpKind::kConnect;
      bool valid =
          connect ? slot->overlay->CanConnect(op.link_pos, rop.from, rop.to)
                  : slot->overlay->CanDisconnect(op.link_pos, rop.from,
                                                 rop.to);
      if (!valid) {
        ++inst->skipped_ops;
        break;
      }
      const std::string& link = schema.link_types[op.link_pos].name;
      Status s = connect
                     ? slot->txn->Connect(link, rop.from, rop.to, op.at)
                     : slot->txn->Disconnect(link, rop.from, rop.to, op.at);
      if (!s.ok()) {
        return FailOrCrash(inst, s, nullptr,
                           connect ? "txn connect" : "txn disconnect");
      }
      if (connect) {
        slot->overlay->Connect(op.link_pos, rop.from, rop.to, op.at);
      } else {
        slot->overlay->Disconnect(op.link_pos, rop.from, rop.to, op.at);
      }
      slot->keys.push_back(LinkKey(op.link_pos, rop.from, rop.to));
      slot->resolved.push_back(std::move(rop));
      break;
    }
    default:
      break;  // unreachable: OpenSlotFor only routes the five DML kinds
  }
  return std::nullopt;
}

/// Replays the instance's committed journal (commit order) into a fresh
/// model and checks it two ways: the replayed state must equal the
/// lock-step model byte for byte, and a full-history query per molecule
/// type against the *database* must match the replayed model's oracle.
/// Together these prove the final database state is explained by some
/// serial execution of exactly the committed transactions — the
/// serializability acceptance check.
std::optional<std::string> SerializabilityCheck(Instance* inst,
                                                const SimSchema& schema,
                                                ModelBug bug) {
  SimModel replay(&schema, bug);
  for (const ResolvedOp& rop : inst->journal) {
    switch (rop.kind) {
      case SimOpKind::kInsert:
        replay.InsertAtomWithId(rop.atom, rop.type_pos, rop.set, rop.at);
        break;
      case SimOpKind::kUpdate:
      case SimOpKind::kBadUpdate:
        replay.UpdateAtom(rop.type_pos, rop.atom, rop.set, rop.at);
        break;
      case SimOpKind::kDelete:
        replay.DeleteAtom(rop.type_pos, rop.atom, rop.at);
        break;
      case SimOpKind::kConnect:
        replay.Connect(rop.link_pos, rop.from, rop.to, rop.at);
        break;
      case SimOpKind::kDisconnect:
        replay.Disconnect(rop.link_pos, rop.from, rop.to, rop.at);
        break;
      case SimOpKind::kVacuum:
        if (rop.vacuum_uncertain) {
          replay.NoteUncertainVacuum(rop.at);
        } else {
          replay.VacuumBefore(rop.at);
        }
        break;
      default:
        break;
    }
  }
  if (replay.StateDigest() != inst->model.StateDigest()) {
    return std::string(
        "serial replay of committed transactions diverges from the "
        "lock-step model");
  }
  for (uint32_t m = 0;
       m < static_cast<uint32_t>(schema.molecule_types.size()); ++m) {
    SimOp q;
    q.kind = SimOpKind::kQuery;
    q.qkind = SimQueryKind::kAllHistory;
    q.mol_pos = m;
    ++inst->serial_checks;
    SimModel::QueryExpectation expect = replay.ExpectedRows(q);
    std::string mql = QueryToMql(schema, q);
    Result<ResultSet> r = inst->db->Execute(mql);
    if (expect.skip_compare) {
      // An uncertain vacuum raised the horizon above the full-history
      // window's start: execute for coverage, accept any outcome.
      continue;
    }
    if (expect.expect_error) {
      bool matched = !r.ok() && (expect.error_is_not_found
                                     ? r.status().IsNotFound()
                                     : r.status().IsInvalidArgument());
      if (!matched) {
        return "serializability probe `" + mql +
               "` expected an error the database did not produce";
      }
      continue;
    }
    if (!r.ok()) {
      return "serializability probe `" + mql +
             "` failed: " + r.status().ToString();
    }
    if (r.value().columns != expect.columns) {
      return "serializability probe `" + mql + "` column mismatch";
    }
    Result<std::multiset<std::string>> canon =
        replay.CanonicalizeDb(q, r.value());
    if (!canon.ok()) {
      return "serializability probe `" + mql +
             "` result not canonicalizable: " + canon.status().ToString();
    }
    if (canon.value() != expect.rows) {
      return "serializability probe `" + mql +
             "` diverges from serial replay:" +
             RenderRowsDiff(expect.rows, canon.value());
    }
  }
  return std::nullopt;
}

std::optional<std::string> ExecOp(Instance* inst, const SimSchema& schema,
                                  const SimOp& op,
                                  const RunOptions& options) {
  if (TxnSlot* slot = OpenSlotFor(inst, op)) {
    std::optional<std::string> div = BufferTxnOp(inst, slot, schema, op);
    if (div.has_value()) return div;
    // Buffered ops advance neither `acked` nor applied_op_seq; the
    // standing invariant at the bottom still holds and still runs.
    if (inst->db != nullptr && inst->db->applied_op_seq() != inst->acked) {
      return "op-seq accounting drifted during buffering: db " +
             std::to_string(inst->db->applied_op_seq()) + " vs harness " +
             std::to_string(inst->acked);
    }
    return std::nullopt;
  }
  switch (op.kind) {
    case SimOpKind::kInsert: {
      ResolvedOp rop = ResolveDml(*inst, nullptr, op);
      rop.atom = inst->next_id_lo;  // predicted; exact when lo == hi
      PendingCommit pending;
      pending.ops.push_back(rop);
      pending.seqs = 1;
      AtomId lo = inst->next_id_lo, hi = inst->next_id_hi;
      Result<AtomId> r = inst->db->InsertAtom(
          schema.atom_types[op.type_pos].name, NamedAssignments(schema, op),
          op.at);
      // The call allocated the surrogate whether or not it survived.
      ++inst->next_id_lo;
      ++inst->next_id_hi;
      if (!r.ok()) return FailOrCrash(inst, r.status(), &pending, "insert");
      AtomId id = r.value();
      if (id < lo || id > hi) {
        return "insert allocated id " + std::to_string(id) +
               " outside predicted [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
      }
      if (inst->model.atoms().count(id) != 0) {
        return "insert allocated id " + std::to_string(id) +
               " colliding with a live atom";
      }
      inst->next_id_lo = inst->next_id_hi = id + 1;
      rop.atom = id;
      RecordCommit(inst, {AtomKey(id)});
      ApplyResolved(inst, rop);
      ++inst->acked;
      break;
    }
    case SimOpKind::kUpdate:
    case SimOpKind::kBadUpdate: {
      ResolvedOp rop = ResolveDml(*inst, nullptr, op);
      bool valid = inst->model.CanUpdate(op.type_pos, rop.atom, op.at);
      Status s = inst->db->UpdateAtom(schema.atom_types[op.type_pos].name,
                                      rop.atom, NamedAssignments(schema, op),
                                      op.at);
      if (valid) {
        if (!s.ok()) {
          PendingCommit pending;
          pending.ops.push_back(rop);
          pending.seqs = 1;
          return FailOrCrash(inst, s, &pending, "update");
        }
        RecordCommit(inst, {AtomKey(rop.atom)});
        ApplyResolved(inst, rop);
        ++inst->acked;
      } else {
        if (s.ok()) {
          return "update of invalid target #" + std::to_string(rop.atom) +
                 " unexpectedly succeeded";
        }
        // NotFound when the typed store holds no versions for the id,
        // InvalidArgument when versions exist but none is current.
        if (!s.IsInvalidArgument() && !s.IsNotFound()) {
          return FailOrCrash(
              inst, s, nullptr,
              "invalid update (expected InvalidArgument or NotFound)");
        }
      }
      break;
    }
    case SimOpKind::kDelete: {
      ResolvedOp rop = ResolveDml(*inst, nullptr, op);
      bool valid = inst->model.CanDelete(op.type_pos, rop.atom, op.at);
      Status s = inst->db->DeleteAtom(schema.atom_types[op.type_pos].name,
                                      rop.atom, op.at);
      if (!valid) {
        std::optional<std::string> div = ExpectRejected(inst, s, "delete");
        if (div.has_value()) return div;
        break;
      }
      if (!s.ok()) {
        PendingCommit pending;
        pending.ops.push_back(rop);
        pending.seqs = 1;
        return FailOrCrash(inst, s, &pending, "delete");
      }
      RecordCommit(inst, {AtomKey(rop.atom)});
      ApplyResolved(inst, rop);
      ++inst->acked;
      break;
    }
    case SimOpKind::kConnect:
    case SimOpKind::kDisconnect: {
      ResolvedOp rop = ResolveDml(*inst, nullptr, op);
      bool connect = op.kind == SimOpKind::kConnect;
      bool valid =
          connect ? inst->model.CanConnect(op.link_pos, rop.from, rop.to)
                  : inst->model.CanDisconnect(op.link_pos, rop.from, rop.to);
      const std::string& link = schema.link_types[op.link_pos].name;
      Status s = connect ? inst->db->Connect(link, rop.from, rop.to, op.at)
                         : inst->db->Disconnect(link, rop.from, rop.to,
                                                op.at);
      if (!valid) {
        std::optional<std::string> div =
            ExpectRejected(inst, s, connect ? "connect" : "disconnect");
        if (div.has_value()) return div;
        break;
      }
      if (!s.ok()) {
        PendingCommit pending;
        pending.ops.push_back(rop);
        pending.seqs = 1;
        return FailOrCrash(inst, s, &pending,
                           connect ? "connect" : "disconnect");
      }
      RecordCommit(inst, {LinkKey(op.link_pos, rop.from, rop.to)});
      ApplyResolved(inst, rop);
      ++inst->acked;
      break;
    }
    case SimOpKind::kCheckpoint: {
      Status s = inst->db->Checkpoint();
      if (!s.ok()) return FailOrCrash(inst, s, nullptr, "checkpoint");
      // The catalog save persisted at least the current watermark floor.
      inst->ckpt_id_lo = inst->next_id_lo;
      break;
    }
    case SimOpKind::kReopen: {
      // Open transactions do not survive a restart; discard them while
      // the database is still alive.
      DiscardSlots(inst);
      inst->db.reset();
      Result<std::unique_ptr<Database>> r =
          Database::Open(inst->dir, MakeOptions(inst));
      if (!r.ok()) {
        if (inst->env.cut_fired()) return HandleCrash(inst, nullptr);
        return "clean reopen failed: " + r.status().ToString();
      }
      inst->db = std::move(r.value());
      if (inst->db->applied_op_seq() != inst->acked) {
        return "clean reopen recovered " +
               std::to_string(inst->db->applied_op_seq()) + " ops, acked " +
               std::to_string(inst->acked);
      }
      // Burned-but-uncheckpointed allocations are forgotten on restart;
      // the recovered watermark is the checkpoint floor advanced past
      // every committed insert.
      {
        AtomId lo = std::max(inst->ckpt_id_lo, inst->max_committed_id + 1);
        inst->next_id_lo = lo;
        if (inst->next_id_hi < lo) inst->next_id_hi = lo;
      }
      break;
    }
    case SimOpKind::kPowerCut: {
      if (inst->parallelism != 1) {
        // Parallel readers evict dirty pages at schedule-dependent
        // times; an event-indexed cut there would be nondeterministic.
        ++inst->skipped_ops;
        break;
      }
      inst->env.PowerCutAfterEvents(inst->env.events() + op.cut_after_events,
                                    op.cut_mode);
      inst->cut_armed = true;
      inst->cut_mode = op.cut_mode;
      break;
    }
    case SimOpKind::kVacuum: {
      // The database holds the cutoff at the oldest open snapshot, so
      // every open slot's overlay stays what its transaction sees.
      Timestamp cutoff = op.at;
      for (const TxnSlot& s : inst->slots) {
        if (s.open) cutoff = std::min(cutoff, s.txn->snapshot());
      }
      Result<uint64_t> r = inst->db->VacuumBefore(op.at);
      if (!r.ok()) {
        if (inst->env.cut_fired()) {
          // The vacuum may or may not have committed; mask comparisons
          // below the cutoff from here on — in the lock-step model and
          // in the serializability journal alike.
          inst->model.NoteUncertainVacuum(cutoff);
          inst->vacuum_uncertain = true;
          ResolvedOp rop;
          rop.kind = SimOpKind::kVacuum;
          rop.at = cutoff;
          rop.vacuum_uncertain = true;
          inst->journal.push_back(rop);
          return HandleCrash(inst, nullptr);
        }
        return "vacuum: " + r.status().ToString();
      }
      uint64_t expected = inst->model.VacuumBefore(cutoff);
      if (!inst->vacuum_uncertain && r.value() != expected) {
        return "vacuum removed " + std::to_string(r.value()) +
               " atom versions, model expected " + std::to_string(expected);
      }
      {
        ResolvedOp rop;
        rop.kind = SimOpKind::kVacuum;
        rop.at = cutoff;
        inst->journal.push_back(rop);
      }
      // Vacuum checkpoints on success, persisting the watermark floor.
      inst->ckpt_id_lo = inst->next_id_lo;
      break;
    }
    case SimOpKind::kTierMigrate: {
      // Logically invisible: no model mirror, no count compare — every
      // later query, verify and dump cross-check must be unaffected. A
      // cut inside the migration recovers to the pre-migration
      // checkpoint (same discipline as vacuum, minus the uncertainty:
      // migration never removes logical content).
      Result<uint64_t> r = inst->db->TierMigrate();
      if (!r.ok()) {
        if (inst->env.cut_fired()) return HandleCrash(inst, nullptr);
        return "tier-migrate: " + r.status().ToString();
      }
      // Migration checkpoints on success, persisting the watermark floor.
      inst->ckpt_id_lo = inst->next_id_lo;
      break;
    }
    case SimOpKind::kTxnBegin: {
      size_t s = static_cast<size_t>(op.txn_slot);
      if (inst->slots.size() <= s) inst->slots.resize(s + 1);
      TxnSlot& slot = inst->slots[s];
      if (slot.open) {  // defensive: the generator never double-begins
        ++inst->skipped_ops;
        break;
      }
      slot.txn.emplace(inst->db->Begin());
      slot.overlay.emplace(inst->model);
      slot.pending_ids.clear();
      slot.resolved.clear();
      slot.keys.clear();
      slot.begin_clock = inst->commit_clock;
      slot.open = true;
      ++inst->txns_begun;
      break;
    }
    case SimOpKind::kTxnAbort: {
      TxnSlot* slot = nullptr;
      size_t s = static_cast<size_t>(op.txn_slot);
      if (s < inst->slots.size() && inst->slots[s].open) {
        slot = &inst->slots[s];
      }
      if (slot == nullptr) {  // a cut/reopen already discarded the slot
        ++inst->skipped_ops;
        break;
      }
      slot->txn->Abort();  // pure bookkeeping: ids burned, nothing logged
      slot->txn.reset();
      slot->overlay.reset();
      slot->open = false;
      ++inst->txns_aborted;
      break;
    }
    case SimOpKind::kTxnCommit: {
      TxnSlot* slot = nullptr;
      size_t s_idx = static_cast<size_t>(op.txn_slot);
      if (s_idx < inst->slots.size() && inst->slots[s_idx].open) {
        slot = &inst->slots[s_idx];
      }
      if (slot == nullptr) {  // a cut/reopen already discarded the slot
        ++inst->skipped_ops;
        break;
      }
      // First-committer-wins prediction: scan the mirrored commit log
      // newest-first for a write-set intersection inside the conflict
      // window (seq > begin_clock) — the exact TxnManager predicate.
      bool conflict = false;
      for (auto it = inst->commit_log.rbegin();
           it != inst->commit_log.rend() && !conflict; ++it) {
        if (it->first <= slot->begin_clock) break;
        for (const TxnWriteKey& k : slot->keys) {
          if (std::binary_search(it->second.begin(), it->second.end(), k)) {
            conflict = true;
            break;
          }
        }
      }
      PendingCommit pending;
      pending.ops = slot->resolved;
      // A committed transaction of n ops consumes n + 1 op sequences
      // (n ops + the commit record); an empty commit consumes none.
      pending.seqs =
          slot->resolved.empty() ? 0 : slot->resolved.size() + 1;
      Status s = slot->txn->Commit();
      slot->txn.reset();
      slot->overlay.reset();
      slot->open = false;
      if (conflict) {
        ++inst->txns_conflicted;
        if (!s.IsTxnConflict()) {
          return "txn commit: predicted first-committer-wins conflict, "
                 "got " +
                 (s.ok() ? std::string("OK") : s.ToString());
        }
        break;  // loser did no I/O; ids stay burned
      }
      if (!s.ok()) return FailOrCrash(inst, s, &pending, "txn commit");
      if (!pending.ops.empty()) {
        std::vector<TxnWriteKey> keys;
        keys.reserve(pending.ops.size());
        for (const ResolvedOp& rop : pending.ops) keys.push_back(KeyFor(rop));
        RecordCommit(inst, std::move(keys));
        for (const ResolvedOp& rop : pending.ops) ApplyResolved(inst, rop);
      }
      inst->acked += pending.seqs;
      ++inst->txns_committed;
      break;
    }
    case SimOpKind::kVerify: {
      Status s = inst->db->VerifyIntegrity();
      if (!s.ok()) return FailOrCrash(inst, s, nullptr, "verify-integrity");
      break;
    }
    case SimOpKind::kQuery:
      return ExecQuery(inst, schema, op, options);
  }
  // Cheap standing invariant: ack accounting must match the WAL's.
  if (inst->db != nullptr &&
      inst->db->applied_op_seq() != inst->acked) {
    return "op-seq accounting drifted: db " +
           std::to_string(inst->db->applied_op_seq()) + " vs harness " +
           std::to_string(inst->acked);
  }
  return std::nullopt;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToHex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

RunResult RunWorkload(const SimWorkload& w, const RunOptions& options) {
  RunResult result;
  std::vector<std::unique_ptr<Instance>> instances;
  const StorageStrategy kStrategies[] = {StorageStrategy::kSnapshot,
                                         StorageStrategy::kIntegrated,
                                         StorageStrategy::kSeparated};
  for (StorageStrategy strategy : kStrategies) {
    for (size_t parallelism : {size_t{1}, size_t{4}}) {
      if (options.single_instance &&
          (strategy != StorageStrategy::kSeparated || parallelism != 1)) {
        continue;
      }
      auto inst = std::make_unique<Instance>(&w.schema, options.bug);
      inst->strategy = strategy;
      inst->parallelism = parallelism;
      inst->tiering.enabled = w.tiering_enabled;
      inst->tiering.cold_age = w.tiering_cold_age;
      inst->tiering.segment_target_bytes = w.tiering_segment_bytes;
      inst->transient_io = w.transient_io_enabled;
      inst->name = std::string(StorageStrategyName(strategy)) + "/p" +
                   std::to_string(parallelism);
      instances.push_back(std::move(inst));
    }
  }

  auto fail = [&](Instance* inst, size_t op_idx, std::string why) {
    result.ok = false;
    result.failing_op = op_idx;
    result.failing_instance = inst != nullptr ? inst->name : "";
    std::string at = op_idx < w.ops.size()
                         ? " at op [" + std::to_string(op_idx) + "] " +
                               OpToString(w.schema, w.ops[op_idx])
                         : "";
    result.divergence = (inst != nullptr ? inst->name + at + ": " : "") +
                        std::move(why);
    if (inst != nullptr && inst->db != nullptr) {
      result.failure_trace_json = inst->db->DumpTrace();
    }
  };

  for (auto& inst : instances) {
    Status s = SetupInstance(inst.get(), w.schema);
    if (!s.ok()) {
      fail(inst.get(), static_cast<size_t>(-1),
           "instance setup failed: " + s.ToString());
      break;
    }
  }

  if (result.ok) {
    for (size_t i = 0; i < w.ops.size() && result.ok; ++i) {
      for (auto& inst : instances) {
        if (inst->retired) continue;
        std::optional<std::string> div =
            ExecOp(inst.get(), w.schema, w.ops[i], options);
        if (div.has_value()) {
          fail(inst.get(), i, std::move(div.value()));
          break;
        }
      }
    }
  }

  // End-of-run: integrity, canonical dumps, cross-instance comparison.
  if (result.ok) {
    std::string reference_dump;
    std::string reference_name;
    for (auto& inst : instances) {
      if (inst->retired) continue;
      if (inst->env.cut_fired()) {
        // A cut fired inside an op that still returned OK (e.g. a
        // background eviction writeback): the environment is dead and
        // the instance is poisoned. Run one last crash-recovery cycle
        // before judging final state. Every completed op was acked, so
        // there is no pending op to reconcile.
        std::optional<std::string> div = HandleCrash(inst.get(), nullptr);
        if (div.has_value()) {
          fail(inst.get(), w.ops.size(), std::move(div.value()));
          break;
        }
        if (inst->retired) continue;
      } else {
        inst->env.ClearFaults();  // an armed-but-unfired cut must not
        inst->cut_armed = false;  // trigger during the final read pass
      }
      Status s = inst->db->VerifyIntegrity();
      if (!s.ok()) {
        fail(inst.get(), w.ops.size(),
             "final integrity check failed: " + s.ToString());
        break;
      }
      Result<std::string> dump = inst->db->Dump();
      if (!dump.ok()) {
        fail(inst.get(), w.ops.size(),
             "final dump failed: " + dump.status().ToString());
        break;
      }
      inst->dump_hash = Fnv1a64(dump.value().data(), dump.value().size());
      // Instances that never lost an op executed identical streams, so
      // their canonical dumps must be byte-identical across strategies
      // and parallelism.
      if (inst->cuts_fired == 0) {
        if (reference_dump.empty() && reference_name.empty()) {
          reference_dump = dump.value();
          reference_name = inst->name;
        } else if (dump.value() != reference_dump) {
          fail(inst.get(), w.ops.size(),
               "canonical dump differs from " + reference_name +
                   " (hash " + ToHex(inst->dump_hash) + " vs " +
                   ToHex(Fnv1a64(reference_dump.data(),
                                 reference_dump.size())) +
                   ")");
          break;
        }
      }
      // Serializability: the final state must be explained by replaying
      // exactly the committed transactions in commit order.
      std::optional<std::string> serial =
          SerializabilityCheck(inst.get(), w.schema, options.bug);
      if (serial.has_value()) {
        fail(inst.get(), w.ops.size(), std::move(serial.value()));
        break;
      }
    }
  }

  for (auto& inst : instances) {
    InstanceReport report;
    report.name = inst->name;
    report.strategy = StorageStrategyName(inst->strategy);
    report.parallelism = inst->parallelism;
    report.acked_dml = inst->acked;
    report.cuts_fired = inst->cuts_fired;
    report.skipped_ops = inst->skipped_ops;
    report.rejected_dml = inst->rejected_dml;
    report.queries_run = inst->queries_run;
    report.queries_compared = inst->queries_compared;
    report.queries_governed = inst->queries_governed;
    report.txns_begun = inst->txns_begun;
    report.txns_committed = inst->txns_committed;
    report.txns_aborted = inst->txns_aborted;
    report.txns_conflicted = inst->txns_conflicted;
    report.serial_checks = inst->serial_checks;
    report.retired = inst->retired;
    report.dump_hash = inst->dump_hash;
    result.instances.push_back(std::move(report));
  }

  // Deterministic run summary: functions of the seed only. No wall
  // clock, no raw I/O counters (reads depend on cache luck), no
  // pointers — two runs of one seed must emit identical bytes.
  std::ostringstream json;
  json << "{\"seed\":" << w.seed << ",\"ops\":" << w.ops.size()
       << ",\"ok\":" << (result.ok ? "true" : "false") << ",\"divergence\":\""
       << EscapeJson(result.divergence) << "\",\"instances\":[";
  for (size_t i = 0; i < result.instances.size(); ++i) {
    const InstanceReport& r = result.instances[i];
    if (i) json << ",";
    json << "{\"name\":\"" << r.name << "\",\"strategy\":\"" << r.strategy
         << "\",\"parallelism\":" << r.parallelism
         << ",\"acked_dml\":" << r.acked_dml
         << ",\"cuts_fired\":" << r.cuts_fired
         << ",\"skipped_ops\":" << r.skipped_ops
         << ",\"rejected_dml\":" << r.rejected_dml
         << ",\"queries_run\":" << r.queries_run
         << ",\"queries_compared\":" << r.queries_compared
         << ",\"queries_governed\":" << r.queries_governed
         << ",\"txns_begun\":" << r.txns_begun
         << ",\"txns_committed\":" << r.txns_committed
         << ",\"txns_aborted\":" << r.txns_aborted
         << ",\"txns_conflicted\":" << r.txns_conflicted
         << ",\"serial_checks\":" << r.serial_checks
         << ",\"retired\":" << (r.retired ? "true" : "false")
         << ",\"dump_hash\":\"" << ToHex(r.dump_hash) << "\"}";
  }
  json << "]}";
  result.summary_json = json.str();
  return result;
}

RunResult RunSeed(uint64_t seed, const GenOptions& gen,
                  const RunOptions& options) {
  return RunWorkload(GenerateWorkload(seed, gen), options);
}

}  // namespace tcob::sim
