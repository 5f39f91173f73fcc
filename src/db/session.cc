#include "db/session.h"

#include <mutex>

#include "db/database.h"
#include "query/executor.h"
#include "query/parser.h"

namespace tcob {

Result<ResultSet> Session::Execute(const std::string& mql) {
  StopwatchUs parse_timer;
  TCOB_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(mql));
  return Dispatch(stmt, &mql, parse_timer.ElapsedUs());
}

Result<std::unique_ptr<Cursor>> Session::Query(const std::string& mql) {
  StopwatchUs parse_timer;
  TCOB_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(mql));
  const double parse_us = parse_timer.ElapsedUs();
  if (const SelectStmt* select = std::get_if<SelectStmt>(&stmt)) {
    TCOB_RETURN_NOT_OK(CheckAlive());
    db_->statements_total_.Increment();
    return db_->NewSelectCursor(*select, &mql, parse_us, stats_slot(),
                                txn());
  }
  // Non-SELECT statements execute eagerly; the cursor carries the
  // finished result (DML messages, EXPLAIN tables, SHOW output).
  TCOB_ASSIGN_OR_RETURN(ResultSet out, Dispatch(stmt, &mql, parse_us));
  return std::unique_ptr<Cursor>(new MaterializedCursor(std::move(out)));
}

Result<std::vector<ResultSet>> Session::ExecuteScript(const std::string& mql) {
  TCOB_ASSIGN_OR_RETURN(std::vector<Statement> stmts,
                        Parser::ParseScript(mql));
  std::vector<ResultSet> out;
  out.reserve(stmts.size());
  for (const Statement& stmt : stmts) {
    TCOB_ASSIGN_OR_RETURN(ResultSet result, ExecuteStatement(stmt));
    out.push_back(std::move(result));
  }
  return out;
}

Result<ResultSet> Session::ExecuteStatement(const Statement& stmt) {
  return Dispatch(stmt, nullptr, 0.0);
}

Result<ResultSet> Session::Explain(const std::string& select_mql,
                                   bool analyze) {
  StopwatchUs parse_timer;
  TCOB_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(select_mql));
  const double parse_us = parse_timer.ElapsedUs();
  if (SelectStmt* select = std::get_if<SelectStmt>(&stmt)) {
    stmt = ExplainStmt{std::move(*select), analyze};
  }
  if (!std::holds_alternative<ExplainStmt>(stmt)) {
    return Status::InvalidArgument("Explain expects a SELECT statement");
  }
  return Dispatch(stmt, &select_mql, parse_us);
}

Status Session::CheckAlive() const {
  if (!temporary_ && db_alive_.expired()) {
    return Status::FailedPrecondition(
        "session outlived its database; it can no longer be used");
  }
  return Status::OK();
}

Result<ResultSet> Session::RunSelect(const SelectStmt& stmt,
                                     const std::string* text,
                                     double parse_us, QueryStats* stats) {
  TCOB_ASSIGN_OR_RETURN(
      std::unique_ptr<Cursor> cursor,
      db_->NewSelectCursor(stmt, text, parse_us, stats, txn()));
  ResultSet out;
  out.columns = cursor->columns();
  out.message = cursor->message();
  std::vector<Value> row;
  for (;;) {
    // The end of the stream (or its error) finalizes the trace.
    TCOB_ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
    if (!more) return out;
    out.rows.push_back(std::move(row));
  }
}

Result<ResultSet> Session::Dispatch(const Statement& stmt,
                                    const std::string* text,
                                    double parse_us) {
  TCOB_RETURN_NOT_OK(CheckAlive());
  Database& db = *db_;
  TCOB_RETURN_NOT_OK(db.CheckReadable());
  db.statements_total_.Increment();
  // A DML statement buffers into the session's transaction or
  // auto-commits through the Database; both take the same arguments.
  // NOW resolves against the transaction's pinned clock or the
  // database's; the definitive stamp is assigned at commit or under the
  // writer mutex (WalOp::stamped_now).
  auto write = [this](const auto& call) {
    return txn_ ? call(*txn_) : call(*db_);
  };
  auto from = [this](const ValidFrom& f) {
    return !f.is_now ? f.at : txn_ ? txn_->local_now() : db_->Now();
  };
  auto atom = [](AtomId id, Timestamp at) {
    return "atom #" + std::to_string(id) + " valid from " +
           TimestampToString(at);
  };
  // "inserted atom #1 valid from 5" auto-committed, "buffered insert of
  // atom #1 valid from 5 (transaction 2)" inside a transaction.
  auto message = [this](const std::string& op, const std::string& done,
                        const std::string& what) {
    if (!txn_) return what.empty() ? done : done + " " + what;
    return "buffered " + op + (what.empty() ? "" : " of " + what) +
           " (transaction " + std::to_string(txn_->id()) + ")";
  };
  auto created = [](const std::string& kind, const std::string& name,
                    uint64_t id) {
    ResultSet out;
    out.message = "created " + kind + " " + name + " (id " +
                  std::to_string(id) + ")";
    return out;
  };
  using R = Result<ResultSet>;
  return std::visit(
      [&](const auto& s) -> R {
        using T = std::decay_t<decltype(s)>;
        ResultSet out;
        if constexpr (std::is_same_v<T, SelectStmt>) {
          return RunSelect(s, text, parse_us, stats_slot());
        } else if constexpr (std::is_same_v<T, ExplainStmt>) {
          if (s.analyze) {
            // Execute the query under the trace, then return the trace
            // (not the rows) — the EXPLAIN ANALYZE contract.
            QueryStats own;
            QueryStats* stats = temporary_ ? &own : &last_stats_;
            TCOB_RETURN_NOT_OK(
                RunSelect(s.select, text, parse_us, stats).status());
            return stats->ToResultSet();
          }
          Materializer mat = db.materializer();
          SelectExecutor exec(&db.catalog_, &mat,
                              txn_ ? txn_->snapshot() : db.Now(),
                              db.attr_indexes_.get());
          return exec.Explain(s.select);
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          TCOB_ASSIGN_OR_RETURN(
              IndexId id, db.CreateAttrIndex(s.name, s.type_name, s.attr_name));
          return created("index", s.name, id);
        } else if constexpr (std::is_same_v<T, CreateAtomTypeStmt>) {
          std::vector<AttributeDef> attrs;
          for (const auto& [name, type] : s.attributes) {
            attrs.push_back(AttributeDef{name, type});
          }
          TCOB_ASSIGN_OR_RETURN(TypeId id,
                                db.CreateAtomType(s.name, std::move(attrs)));
          return created("atom type", s.name, id);
        } else if constexpr (std::is_same_v<T, CreateLinkStmt>) {
          TCOB_ASSIGN_OR_RETURN(
              LinkTypeId id, db.CreateLinkType(s.name, s.from_type, s.to_type));
          return created("link type", s.name, id);
        } else if constexpr (std::is_same_v<T, CreateMoleculeTypeStmt>) {
          TCOB_ASSIGN_OR_RETURN(
              MoleculeTypeId id,
              db.CreateMoleculeType(s.name, s.root_type, s.edges));
          return created("molecule type", s.name, id);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          const Timestamp at = from(s.from);
          TCOB_ASSIGN_OR_RETURN(out.inserted_id, write([&](auto& w) {
                                  return w.InsertAtom(s.type_name,
                                                      s.assignments, at,
                                                      s.from.is_now);
                                }));
          out.message =
              message("insert", "inserted", atom(out.inserted_id, at));
          return out;
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          const Timestamp at = from(s.from);
          TCOB_RETURN_NOT_OK(write([&](auto& w) {
            return w.UpdateAtom(s.type_name, s.atom_id, s.assignments, at,
                                s.from.is_now);
          }));
          out.message = message("update", "updated", atom(s.atom_id, at));
          return out;
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          const Timestamp at = from(s.from);
          TCOB_RETURN_NOT_OK(write([&](auto& w) {
            return w.DeleteAtom(s.type_name, s.atom_id, at, s.from.is_now);
          }));
          out.message = message("delete", "deleted", atom(s.atom_id, at));
          return out;
        } else if constexpr (std::is_same_v<T, ConnectStmt>) {
          const Timestamp at = from(s.from);
          TCOB_RETURN_NOT_OK(write([&](auto& w) {
            return w.Connect(s.link_name, s.from_id, s.to_id, at,
                             s.from.is_now);
          }));
          out.message = message("connect", "connected", "");
          return out;
        } else if constexpr (std::is_same_v<T, DisconnectStmt>) {
          const Timestamp at = from(s.from);
          TCOB_RETURN_NOT_OK(write([&](auto& w) {
            return w.Disconnect(s.link_name, s.from_id, s.to_id, at,
                                s.from.is_now);
          }));
          out.message = message("disconnect", "disconnected", "");
          return out;
        } else if constexpr (std::is_same_v<T, BeginStmt>) {
          if (temporary_) {
            // The transaction would abort as soon as this call returned.
            return Status::InvalidArgument(
                "BEGIN needs a session that outlives the statement; open "
                "one with Database::OpenSession()");
          }
          {
            std::lock_guard<std::mutex> lk(db.writer_mu_);
            TCOB_RETURN_NOT_OK(db.CheckWritable());
          }
          if (txn_) {
            return Status::InvalidArgument(
                "a transaction is already open; COMMIT or ABORT it first");
          }
          txn_.emplace(db.Begin());
          out.message = "transaction " + std::to_string(txn_->id()) +
                        " started";
          return out;
        } else if constexpr (std::is_same_v<T, CommitStmt>) {
          if (!txn_) return Status::InvalidArgument("no open transaction");
          out.message = "transaction " + std::to_string(txn_->id()) +
                        " committed (" + std::to_string(txn_->pending_ops()) +
                        " operation(s))";
          // Win or lose, the transaction is finished.
          Status committed = txn_->Commit();
          txn_.reset();
          TCOB_RETURN_NOT_OK(committed);
          return out;
        } else if constexpr (std::is_same_v<T, AbortStmt>) {
          if (!txn_) return Status::InvalidArgument("no open transaction");
          out.message =
              "transaction " + std::to_string(txn_->id()) + " aborted";
          txn_.reset();  // the destructor aborts
          return out;
        } else if constexpr (std::is_same_v<T, ShowStatsStmt>) {
          return db.ShowStats();
        } else if constexpr (std::is_same_v<T, VacuumStmt>) {
          TCOB_ASSIGN_OR_RETURN(uint64_t removed, db.VacuumBefore(s.before));
          out.message = "vacuumed " + std::to_string(removed) +
                        " version(s) before " + TimestampToString(s.before);
          return out;
        } else if constexpr (std::is_same_v<T, ShowCatalogStmt>) {
          return db.ShowCatalog();
        } else {
          return Status::NotSupported("unhandled statement kind");
        }
      },
      stmt);
}

}  // namespace tcob
