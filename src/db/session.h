#ifndef TCOB_DB_SESSION_H_
#define TCOB_DB_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/transaction.h"
#include "query/ast.h"
#include "query/cursor.h"
#include "query/query_stats.h"
#include "query/result_set.h"

namespace tcob {

class Database;

/// One caller's MQL context on a shared Database: the transaction its
/// BEGIN; opened (if any) and the trace of its own last SELECT. Any
/// number of sessions may run against one Database from different
/// threads; each session is used by one thread at a time, needs no
/// lock, and fails every call with FailedPrecondition once its Database
/// is destroyed (it never touches freed memory). Drain or Close a session's
/// cursor before its next statement and before the session is moved or
/// destroyed: the cursor hands its trace to the session when it ends.
///
///   Session session = db->OpenSession();
///   session.Execute("BEGIN;");
///   session.Execute("INSERT ATOM Emp (name='ada', salary=10) VALID FROM 5;");
///   session.Execute("COMMIT;");
class Session {
 public:
  /// Parses and executes one statement: Query() drained to completion,
  /// so the rows are byte-identical to pulling the cursor yourself.
  Result<ResultSet> Execute(const std::string& mql);

  /// Parses one statement and opens a pull cursor over its result (see
  /// cursor.h for the lifecycle contract). A SELECT streams: a producer
  /// thread runs the executor pipeline against a bounded queue, so the
  /// first row is available while the rest are still being made; without
  /// aggregates or ORDER BY, buffered memory stays flat. Any other
  /// statement executes eagerly and the cursor carries its result.
  Result<std::unique_ptr<Cursor>> Query(const std::string& mql);

  /// Executes a ';'-separated script, stopping at the first error;
  /// returns one ResultSet per executed statement.
  Result<std::vector<ResultSet>> ExecuteScript(const std::string& mql);

  /// Executes a pre-parsed statement.
  Result<ResultSet> ExecuteStatement(const Statement& stmt);

  /// Explains `select_mql` (a SELECT, or an EXPLAIN-wrapped one). With
  /// `analyze` the query runs and the result is its trace; without it,
  /// only the static plan is reported.
  Result<ResultSet> Explain(const std::string& select_mql,
                            bool analyze = true);

  /// The trace of this session's most recently finished SELECT (plain
  /// SELECTs and EXPLAIN ANALYZE alike); other sessions never touch it.
  const QueryStats& last_query_stats() const { return last_stats_; }

 private:
  friend class Database;

  /// A session of OpenSession(); `db_alive` expires with the Database.
  Session(Database* db, std::weak_ptr<void> db_alive)
      : db_(db), db_alive_(std::move(db_alive)), temporary_(false) {}

  /// The temporary auto-commit session behind Database::Execute and
  /// Query: it refuses BEGIN, records no trace, and cannot outlive the
  /// call, so it skips the liveness check.
  explicit Session(Database* db) : db_(db), temporary_(true) {}

  /// FailedPrecondition once the Database is gone.
  Status CheckAlive() const;

  /// The statement dispatch; `text` (may be null) and `parse_us` flow
  /// into the SELECT trace.
  Result<ResultSet> Dispatch(const Statement& stmt, const std::string* text,
                             double parse_us);

  /// Opens a SELECT cursor and drains it; `stats` (may be null)
  /// receives the query's trace.
  Result<ResultSet> RunSelect(const SelectStmt& stmt, const std::string* text,
                              double parse_us, QueryStats* stats);

  /// The transaction BEGIN; opened, or nullptr outside one.
  const Transaction* txn() const { return txn_ ? &*txn_ : nullptr; }

  /// Where this session's SELECT traces go (nullptr when temporary).
  QueryStats* stats_slot() { return temporary_ ? nullptr : &last_stats_; }

  Database* db_;
  /// Expires when the Database is destroyed; checked before every
  /// dereference of db_ (empty, and never checked, when temporary).
  std::weak_ptr<void> db_alive_;
  bool temporary_;
  std::optional<Transaction> txn_;
  QueryStats last_stats_;
};

}  // namespace tcob

#endif  // TCOB_DB_SESSION_H_
