#include "db/transaction.h"

#include "common/logging.h"
#include "db/database.h"

namespace tcob {

Transaction::~Transaction() {
  if (active_) Abort();
}

Transaction::Transaction(Transaction&& other) noexcept
    : db_(other.db_),
      db_alive_(std::move(other.db_alive_)),
      txn_id_(other.txn_id_),
      snapshot_(other.snapshot_),
      snapshot_seq_(other.snapshot_seq_),
      local_now_(other.local_now_),
      active_(other.active_),
      ops_(std::move(other.ops_)),
      written_(std::move(other.written_)) {
  // The moved-from shell must not abort (and unregister) the live
  // transaction from its destructor.
  other.active_ = false;
}

Status Transaction::CheckUsable() const {
  if (!active_) return Status::InvalidArgument("transaction not active");
  if (db_alive_.expired()) {
    return Status::FailedPrecondition(
        "transaction " + std::to_string(txn_id_) +
        " outlived its database; it can no longer be used");
  }
  return Status::OK();
}

void Transaction::Abort() {
  if (active_) {
    // Unregister from the conflict tracker — unless the database is
    // already gone, in which case the registry died with it.
    std::shared_ptr<void> alive = db_alive_.lock();
    if (alive != nullptr) db_->OnTxnAborted(txn_id_);
  }
  ops_.clear();
  written_.clear();
  active_ = false;
}

WalOp Transaction::NewOp(WalOpType type, Timestamp from, bool from_now) const {
  WalOp op;
  op.type = type;
  op.txn_id = txn_id_;
  op.stamped_now = from_now;
  op.valid_from = from_now ? local_now_ : from;
  return op;
}

Result<Transaction::Written*> Transaction::WrittenFor(const WalOp& op) {
  const TxnWriteKey key = WriteKeyForOp(op);
  auto it = written_.find(key);
  if (it != written_.end()) {
    // An atom id names an atom of one type; under any other type the
    // atom does not exist.
    if (it->second.type == op.atom_type) return &it->second;
    return TimelineTail::Atom(op.atom_id).Close(op.valid_from);
  }
  // Snapshot read: what committed after Begin() stays invisible, and an
  // interval closed after the snapshot is still open as far as this
  // transaction can see (the closing writer wins the conflict check if
  // we collide).
  Written w;
  w.type = op.atom_type;
  if (key.kind == TxnWriteKey::Kind::kLink) {
    TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                          db_->catalog().GetLinkType(op.link_type));
    TCOB_ASSIGN_OR_RETURN(w.tail, db_->links()->PairTail(*link, op.from_id,
                                                         op.to_id, snapshot_));
  } else if (op.type == WalOpType::kInsertAtom) {
    w.tail = TimelineTail::Atom(op.atom_id);  // a fresh id: nothing to read
  } else {
    TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                          db_->catalog().GetAtomType(op.atom_type));
    std::optional<AtomVersion> version;
    TCOB_ASSIGN_OR_RETURN(w.tail, db_->store()->TailAsOf(*type, op.atom_id,
                                                         snapshot_, &version));
    if (version.has_value()) w.attrs = std::move(version->attrs);
  }
  w.at_snapshot = w.tail;
  return &written_.emplace(key, std::move(w)).first->second;
}

Status Transaction::Buffer(WalOp op, const AtomTypeDef* type,
                           const Assignments* assignments) {
  TCOB_ASSIGN_OR_RETURN(Written * w, WrittenFor(op));
  TimelineTail tail = w->tail;
  TCOB_RETURN_NOT_OK(StepTail(op, &tail));
  if (assignments != nullptr) {
    // UPDATE: unlisted attributes carry over from the live version,
    // seeing this transaction's own pending updates.
    TCOB_ASSIGN_OR_RETURN(
        op.attrs, Database::ResolveAssignmentsFor(*type, *assignments,
                                                  &w->attrs));
  }
  w->tail = tail;
  if (op.type == WalOpType::kInsertAtom ||
      op.type == WalOpType::kUpdateAtom) {
    w->attrs = op.attrs;
  }
  ObserveLocal(op.valid_from);
  ops_.push_back(std::move(op));
  return Status::OK();
}

Result<AtomId> Transaction::InsertAtom(const std::string& type_name,
                                       const Assignments& assignments,
                                       Timestamp from, bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        db_->catalog().GetAtomTypeByName(type_name));
  WalOp op = NewOp(WalOpType::kInsertAtom, from, from_now);
  TCOB_ASSIGN_OR_RETURN(
      op.attrs, Database::ResolveAssignmentsFor(*type, assignments, nullptr));
  op.atom_id = db_->AllocateAtomId();
  op.atom_type = type->id;
  const AtomId id = op.atom_id;
  TCOB_RETURN_NOT_OK(Buffer(std::move(op), nullptr, nullptr));
  return id;
}

Status Transaction::UpdateAtom(const std::string& type_name, AtomId id,
                               const Assignments& assignments, Timestamp from,
                               bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        db_->catalog().GetAtomTypeByName(type_name));
  WalOp op = NewOp(WalOpType::kUpdateAtom, from, from_now);
  op.atom_id = id;
  op.atom_type = type->id;
  return Buffer(std::move(op), type, &assignments);
}

Status Transaction::DeleteAtom(const std::string& type_name, AtomId id,
                               Timestamp from, bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                        db_->catalog().GetAtomTypeByName(type_name));
  WalOp op = NewOp(WalOpType::kDeleteAtom, from, from_now);
  op.atom_id = id;
  op.atom_type = type->id;
  return Buffer(std::move(op), nullptr, nullptr);
}

Status Transaction::Connect(const std::string& link_name, AtomId from_id,
                            AtomId to_id, Timestamp at, bool from_now) {
  return BufferLink(WalOpType::kConnect, link_name, from_id, to_id, at,
                    from_now);
}

Status Transaction::Disconnect(const std::string& link_name, AtomId from_id,
                               AtomId to_id, Timestamp at, bool from_now) {
  return BufferLink(WalOpType::kDisconnect, link_name, from_id, to_id, at,
                    from_now);
}

Status Transaction::BufferLink(WalOpType type, const std::string& link_name,
                               AtomId from_id, AtomId to_id, Timestamp at,
                               bool from_now) {
  TCOB_RETURN_NOT_OK(CheckUsable());
  TCOB_ASSIGN_OR_RETURN(const LinkTypeDef* link,
                        db_->catalog().GetLinkTypeByName(link_name));
  WalOp op = NewOp(type, at, from_now);
  op.link_type = link->id;
  op.from_id = from_id;
  op.to_id = to_id;
  return Buffer(std::move(op), nullptr, nullptr);
}

Status Transaction::Commit() {
  TCOB_RETURN_NOT_OK(CheckUsable());
  Database::Writer batch;
  batch.ops = std::move(ops_);
  batch.txn_id = txn_id_;
  batch.snapshot_seq = snapshot_seq_;
  for (const auto& [key, w] : written_) batch.tails.emplace(key, w.at_snapshot);
  Status committed = db_->Write(&batch);
  active_ = false;
  ops_.clear();
  written_.clear();
  return committed;
}

}  // namespace tcob
