#include "db/txn_manager.h"

#include <algorithm>
#include <string>

namespace tcob {

TxnWriteKey WriteKeyForOp(const WalOp& op) {
  TxnWriteKey key;
  switch (op.type) {
    case WalOpType::kInsertAtom:
    case WalOpType::kUpdateAtom:
    case WalOpType::kDeleteAtom:
      key.kind = TxnWriteKey::Kind::kAtom;
      key.a = op.atom_id;
      return key;
    case WalOpType::kConnect:
    case WalOpType::kDisconnect:
      key.kind = TxnWriteKey::Kind::kLink;
      key.a = op.link_type;
      key.b = op.from_id;
      key.c = op.to_id;
      return key;
    case WalOpType::kCommit:
    case WalOpType::kCheckpoint:
      break;
  }
  return key;
}

Status StepTail(const WalOp& op, TimelineTail* tail) {
  switch (op.type) {
    case WalOpType::kInsertAtom:
    case WalOpType::kConnect:
      return tail->Open(op.valid_from);
    case WalOpType::kUpdateAtom:
      TCOB_RETURN_NOT_OK(tail->Close(op.valid_from));
      return tail->Open(op.valid_from);
    case WalOpType::kDeleteAtom:
    case WalOpType::kDisconnect:
      return tail->Close(op.valid_from);
    case WalOpType::kCommit:
    case WalOpType::kCheckpoint:
      break;
  }
  return Status::OK();
}

uint64_t TxnManager::BeginTxn(uint64_t txn_id, Timestamp at) {
  std::lock_guard<std::mutex> lk(mu_);
  active_[txn_id] = Snapshot{commit_seq_, at};
  return commit_seq_;
}

void TxnManager::EndTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lk(mu_);
  active_.erase(txn_id);
  PruneLocked();
}

Status TxnManager::CheckConflict(
    uint64_t snapshot_seq, const std::vector<TxnWriteKey>& keys) const {
  std::lock_guard<std::mutex> lk(mu_);
  // The log is ascending by seq and pruned to the oldest active
  // snapshot, so scan backwards and stop at the snapshot horizon.
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->seq <= snapshot_seq) break;
    for (const TxnWriteKey& mine : keys) {
      if (std::binary_search(it->keys.begin(), it->keys.end(), mine)) {
        const char* what =
            mine.kind == TxnWriteKey::Kind::kAtom ? "atom " : "link type ";
        return Status::TxnConflict(
            "write-write conflict on " + std::string(what) +
            std::to_string(mine.a) +
            " committed after this transaction's snapshot");
      }
    }
  }
  return Status::OK();
}

uint64_t TxnManager::Commit(uint64_t txn_id, std::vector<TxnWriteKey> keys) {
  std::lock_guard<std::mutex> lk(mu_);
  active_.erase(txn_id);
  return RecordLocked(std::move(keys));
}

uint64_t TxnManager::commit_seq() const {
  std::lock_guard<std::mutex> lk(mu_);
  return commit_seq_;
}

Timestamp TxnManager::OldestSnapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Timestamp oldest = kForever;
  for (const auto& [id, snap] : active_) oldest = std::min(oldest, snap.at);
  return oldest;
}

size_t TxnManager::active_txns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_.size();
}

size_t TxnManager::retained_commits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_.size();
}

uint64_t TxnManager::RecordLocked(std::vector<TxnWriteKey> keys) {
  const uint64_t seq = ++commit_seq_;
  // Write-sets are only conflict sources while a transaction with an
  // older snapshot is still open.
  if (!active_.empty()) {
    std::sort(keys.begin(), keys.end());
    log_.push_back(CommitEntry{seq, std::move(keys)});
  }
  PruneLocked();
  return seq;
}

void TxnManager::PruneLocked() {
  if (active_.empty()) {
    log_.clear();
    return;
  }
  uint64_t oldest = active_.begin()->second.seq;
  for (const auto& [id, snap] : active_) oldest = std::min(oldest, snap.seq);
  // An entry at or below every active snapshot is visible to all of
  // them and can never conflict again.
  while (!log_.empty() && log_.front().seq <= oldest) log_.pop_front();
}

}  // namespace tcob
