#ifndef TCOB_DB_TRANSACTION_H_
#define TCOB_DB_TRANSACTION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "db/txn_manager.h"
#include "record/value.h"
#include "time/timeline.h"
#include "wal/log_record.h"

namespace tcob {

class Database;

/// An explicit multi-statement transaction under snapshot isolation.
///
/// Begin() captures a snapshot: the valid-time instant just before the
/// database's NOW and the commit sequence current at that moment.
/// Each operation is checked eagerly with the valid-time mutation rule
/// (TimelineTail, time/timeline.h) against its entity's tail — read once
/// at the snapshot, then advanced by this transaction's own buffered
/// operations — and buffered; nothing touches the stores or the WAL
/// until Commit.
/// VALID FROM NOW operations carry a provisional stamp from the
/// transaction-local clock while buffered and are re-stamped to the
/// commit instant inside Commit's critical section, so a commit can
/// never land at or before a snapshot pinned while it was buffering.
///
/// Commit queues the buffer in the database's writer queue, the one
/// path auto-commit statements take too (Database::Write). Its group
/// runs first-committer-wins validation: if any transaction (or
/// auto-committed statement) that committed after this snapshot wrote
/// an atom or link pair this transaction also writes, Commit aborts
/// with TxnConflict and the other writer's effects stand. Otherwise the
/// re-stamped operations are checked with the rule once more, then
/// appended with a commit record, fsynced (sync_wal; one fsync for the
/// whole group) and only then applied. A failed append or fsync leaves
/// the transaction unapplied and the database read-only. Abort
/// discards the buffer without a trace.
///
/// Reads through the Database during an open transaction see committed
/// state only; SELECTs a Session runs inside its transaction pin its
/// snapshot (concurrent commits stay invisible until this transaction
/// ends). The atom timelines themselves serve as the version chain —
/// a snapshot read is simply a time-slice at the snapshot instant.
///
/// A Transaction may outlive its Database: every operation on it then
/// fails with FailedPrecondition instead of touching freed memory.
///
/// Usage:
///   Transaction txn = db->Begin();
///   TCOB_ASSIGN_OR_RETURN(AtomId id, txn.InsertAtom("Emp", {...}, t));
///   TCOB_RETURN_NOT_OK(txn.Connect("DeptEmp", dept, id, t));
///   TCOB_RETURN_NOT_OK(txn.Commit());  // may return TxnConflict
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  /// Moves deactivate the source so only one of the pair aborts or
  /// unregisters on destruction.
  Transaction(Transaction&& other) noexcept;

  using Assignments = std::vector<std::pair<std::string, Value>>;

  /// Buffers an insert; returns the atom id the insert will create.
  /// With `from_now`, `from` is ignored: the operation is stamped with
  /// the transaction-local clock (see local_now()) and re-stamped to
  /// the commit instant when the transaction commits.
  Result<AtomId> InsertAtom(const std::string& type_name,
                            const Assignments& assignments, Timestamp from,
                            bool from_now = false);

  /// Buffers a partial update (unlisted attributes carry over, seeing
  /// this transaction's own pending updates).
  Status UpdateAtom(const std::string& type_name, AtomId id,
                    const Assignments& assignments, Timestamp from,
                    bool from_now = false);

  Status DeleteAtom(const std::string& type_name, AtomId id, Timestamp from,
                    bool from_now = false);

  Status Connect(const std::string& link_name, AtomId from_id, AtomId to_id,
                 Timestamp at, bool from_now = false);
  Status Disconnect(const std::string& link_name, AtomId from_id,
                    AtomId to_id, Timestamp at, bool from_now = false);

  /// Validates against commits since the snapshot (TxnConflict if a
  /// write-write overlap lost the race), then logs, syncs and applies
  /// the buffered operations atomically. Win or lose, the transaction is
  /// finished afterwards.
  Status Commit();

  /// Discards the buffered operations.
  void Abort();

  bool active() const { return active_; }
  size_t pending_ops() const { return ops_.size(); }
  uint64_t id() const { return txn_id_; }

  /// The valid-time instant this transaction reads at: commits stamped
  /// after Begin() land strictly later and stay invisible.
  Timestamp snapshot() const { return snapshot_; }

  /// The transaction-local clock: the instant the next VALID FROM NOW
  /// operation buffered into this transaction will provisionally get.
  /// It starts just after the snapshot and advances like the database
  /// clock (a buffered stamp pulls it past itself), but is *pinned*
  /// against concurrent committers — the definitive stamps of the
  /// NOW-relative operations are assigned at Commit, under the writer
  /// mutex (see Database::Validate).
  Timestamp local_now() const { return local_now_; }

 private:
  friend class Database;
  Transaction(Database* db, uint64_t txn_id, Timestamp snapshot,
              uint64_t snapshot_seq, std::weak_ptr<void> db_alive)
      : db_(db),
        db_alive_(std::move(db_alive)),
        txn_id_(txn_id),
        snapshot_(snapshot),
        snapshot_seq_(snapshot_seq),
        local_now_(snapshot + 1) {}

  /// Guards every operation: the transaction must still be active and
  /// the owning Database must still exist (FailedPrecondition after it
  /// was destroyed — a Transaction never dereferences a dead Database).
  Status CheckUsable() const;

  /// What this transaction knows of one entity it writes.
  struct Written {
    TypeId type = kInvalidTypeId;  // the op's atom type (links: none)
    TimelineTail at_snapshot;  // as the snapshot saw it
    TimelineTail tail;         // after this transaction's buffered ops
    std::vector<Value> attrs;  // an atom's live attributes (UPDATE's base)
  };

  /// Pulls the transaction-local clock past a buffered stamp (the
  /// per-transaction mirror of Database::ObserveTimestamp).
  void ObserveLocal(Timestamp from) {
    if (from >= local_now_) local_now_ = from + 1;
  }

  /// A WalOp of this transaction stamped `from`, or the local clock.
  WalOp NewOp(WalOpType type, Timestamp from, bool from_now) const;

  /// The entry of the entity `op` writes; on first touch its tail is
  /// read at the snapshot with one point read (TemporalAtomStore::TailAsOf
  /// or LinkStore::PairTail).
  Result<Written*> WrittenFor(const WalOp& op);

  /// Checks `op` with the rule against its entity's tail and buffers it.
  /// An UPDATE passes its `type` and `assignments`, resolved over the
  /// carried-over attributes; every other operation passes nulls.
  Status Buffer(WalOp op, const AtomTypeDef* type,
                const Assignments* assignments);

  Status BufferLink(WalOpType type, const std::string& link_name,
                    AtomId from_id, AtomId to_id, Timestamp at,
                    bool from_now);

  Database* db_;
  /// Expires when the owning Database is destroyed; checked before
  /// every dereference of db_.
  std::weak_ptr<void> db_alive_;
  uint64_t txn_id_;
  Timestamp snapshot_ = kMinTimestamp;
  /// Commit sequence the snapshot covers (conflict-window lower bound).
  uint64_t snapshot_seq_ = 0;
  /// Provisional NOW for buffered operations (see local_now()).
  Timestamp local_now_ = kMinTimestamp;
  bool active_ = true;
  std::vector<WalOp> ops_;
  std::map<TxnWriteKey, Written> written_;
};

}  // namespace tcob

#endif  // TCOB_DB_TRANSACTION_H_
