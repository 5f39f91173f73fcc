#ifndef TCOB_WAL_LOG_RECORD_H_
#define TCOB_WAL_LOG_RECORD_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/slice.h"
#include "record/value.h"
#include "time/timestamp.h"

namespace tcob {

/// Kind of a logical redo record.
enum class WalOpType : uint8_t {
  kInsertAtom = 1,
  kUpdateAtom = 2,
  kDeleteAtom = 3,
  kConnect = 4,
  kDisconnect = 5,
  kCommit = 6,
  kCheckpoint = 7,
};

/// One logical redo record.
///
/// TCOB logs *operations*, not page images: replay re-executes the DML
/// against the stores. Each record is applied exactly once: recovery
/// starts from an exact checkpoint image (the page journal) and skips
/// every record whose op_seq that image already covers, so the stores
/// never see a mutation twice and need no replay detection of their own.
struct WalOp {
  WalOpType type = WalOpType::kCommit;
  uint64_t txn_id = 0;
  /// Database-wide monotonic sequence number (LSN analogue). A
  /// checkpoint persists the next sequence into the meta file; replay
  /// skips records below it, so each record is applied once even when a
  /// crash lands between the checkpoint's page flush and the WAL
  /// truncation — or during a re-crash inside recovery itself.
  uint64_t op_seq = 0;

  /// Transient (never encoded): this operation's valid_from came from
  /// "VALID FROM NOW" and is provisional until the op is logged — the
  /// write path re-stamps it to the clock's NOW *under the writer
  /// mutex*, so a commit can never land at or before a snapshot that
  /// was pinned after the statement was parsed or buffered.
  bool stamped_now = false;

  // Atom operations.
  AtomId atom_id = kInvalidAtomId;
  TypeId atom_type = kInvalidTypeId;
  Timestamp valid_from = kMinTimestamp;
  std::vector<Value> attrs;  // encoded using the atom type's schema

  // Link operations.
  LinkTypeId link_type = kInvalidTypeId;
  AtomId from_id = kInvalidAtomId;
  AtomId to_id = kInvalidAtomId;

  /// Serializes; needs the attribute schema for atom ops with payloads.
  Status Encode(const std::vector<AttrType>& schema, std::string* dst) const;

  /// Decodes the fixed part; `schema_lookup(atom_type)` supplies the
  /// schema for the attrs payload when present.
  static Result<WalOp> Decode(
      Slice input,
      const std::function<Result<std::vector<AttrType>>(TypeId)>&
          schema_lookup);
};

const char* WalOpTypeName(WalOpType t);

}  // namespace tcob

#endif  // TCOB_WAL_LOG_RECORD_H_
