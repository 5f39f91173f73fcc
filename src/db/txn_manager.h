#ifndef TCOB_DB_TXN_MANAGER_H_
#define TCOB_DB_TXN_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "time/timeline.h"
#include "wal/log_record.h"

namespace tcob {

/// One mutated entity — the unit of write-write conflict detection
/// under snapshot isolation. Atoms conflict on their surrogate id,
/// link pairs on the (link type, from, to) triple.
struct TxnWriteKey {
  enum class Kind : uint8_t { kAtom = 0, kLink = 1 };
  Kind kind = Kind::kAtom;
  uint64_t a = 0;  // atom id, or link type id
  uint64_t b = 0;  // link from id
  uint64_t c = 0;  // link to id

  bool operator<(const TxnWriteKey& o) const {
    return std::tie(kind, a, b, c) < std::tie(o.kind, o.a, o.b, o.c);
  }
  bool operator==(const TxnWriteKey& o) const {
    return kind == o.kind && a == o.a && b == o.b && c == o.c;
  }
};

/// The conflict key of one logged operation (kCommit/kCheckpoint
/// records carry no key and must not be passed here).
TxnWriteKey WriteKeyForOp(const WalOp& op);

/// Checks one logged operation against its entity's timeline tail with
/// the valid-time mutation rule and, if it passes, advances the tail:
/// INSERT and CONNECT open an interval at op.valid_from, DELETE and
/// DISCONNECT close it there, UPDATE does both.
Status StepTail(const WalOp& op, TimelineTail* tail);

/// Snapshot-isolation bookkeeping for the Database: a commit clock,
/// the set of active transactions (with the commit sequence each one
/// snapshots), and a pruned log of committed write-sets used for
/// first-committer-wins validation.
///
/// A transaction beginning at commit sequence S conflicts with exactly
/// the commits sequenced after S that wrote a key it also writes; the
/// first committer wins and the later one aborts with TxnConflict.
/// Auto-committed statements participate as single-key commits, so an
/// open transaction cannot silently overwrite one.
///
/// Each active transaction also records its snapshot instant, so vacuum
/// can keep every version an open snapshot can see.
///
/// Thread-safe: Begin/End run from any thread, Check/Commit from the
/// Database's writer path; all take an internal mutex.
class TxnManager {
 public:
  /// Registers `txn_id` as active with its snapshot instant `at`;
  /// returns the commit sequence its snapshot covers (every commit up to
  /// and including it is visible).
  uint64_t BeginTxn(uint64_t txn_id, Timestamp at);

  /// Unregisters `txn_id` (abort, conflict loss, or a write-free
  /// commit) and prunes log entries no remaining snapshot can reach.
  void EndTxn(uint64_t txn_id);

  /// First-committer-wins validation: TxnConflict iff any commit
  /// sequenced after `snapshot_seq` wrote one of `keys`.
  Status CheckConflict(uint64_t snapshot_seq,
                       const std::vector<TxnWriteKey>& keys) const;

  /// Records a successful commit of `keys`, unregisters the
  /// transaction, and prunes. Returns the assigned commit sequence.
  /// `txn_id` 0 is an auto-committed statement (or an import batch),
  /// which was never registered.
  uint64_t Commit(uint64_t txn_id, std::vector<TxnWriteKey> keys);

  /// The sequence of the newest recorded commit (0 = none yet).
  uint64_t commit_seq() const;

  /// The oldest snapshot instant of any active transaction; kForever
  /// when none is active.
  Timestamp OldestSnapshot() const;

  /// Number of currently registered transactions.
  size_t active_txns() const;

  /// Number of write-sets currently retained for validation
  /// (introspection: shrinks to zero whenever no transaction is open).
  size_t retained_commits() const;

 private:
  /// One validated commit: its sequence and what it wrote (sorted).
  struct CommitEntry {
    uint64_t seq = 0;
    std::vector<TxnWriteKey> keys;
  };

  uint64_t RecordLocked(std::vector<TxnWriteKey> keys);
  void PruneLocked();

  mutable std::mutex mu_;
  uint64_t commit_seq_ = 0;
  /// An active transaction's snapshot: commit sequence and instant.
  struct Snapshot {
    uint64_t seq = 0;
    Timestamp at = kMinTimestamp;
  };
  /// txn id -> snapshot.
  std::map<uint64_t, Snapshot> active_;
  /// Committed write-sets, ascending by seq; pruned to the oldest
  /// active snapshot.
  std::deque<CommitEntry> log_;
};

}  // namespace tcob

#endif  // TCOB_DB_TXN_MANAGER_H_
