// One valid-time mutation rule: an invalid INSERT, UPDATE, DELETE,
// CONNECT or DISCONNECT is refused with the same status class and the
// same message whether it auto-commits or is buffered into a
// transaction, on every storage strategy, and the auto-commit refusal
// leaves no WAL record.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "db/database.h"

namespace tcob {
namespace {

constexpr char kSchema[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
)";

struct Refusal {
  StatusCode code;
  std::string message;

  bool operator==(const Refusal& o) const {
    return code == o.code && message == o.message;
  }
};

std::ostream& operator<<(std::ostream& os, const Refusal& r) {
  return os << Status(r.code, r.message).ToString();
}

TEST(MutationRuleTest, SameRefusalOnEveryPathAndStrategy) {
  // The statement and its status class (each one's class is the one
  // both paths have always reported).
  struct Case {
    std::string mql;
    StatusCode code;
  };
  std::vector<Case> cases;
  // Every statement's refusal, per "<strategy> auto|txn" cell.
  std::map<std::string, std::vector<Refusal>> cells;
  TempDir dir;
  for (StorageStrategy strategy :
       {StorageStrategy::kSnapshot, StorageStrategy::kIntegrated,
        StorageStrategy::kSeparated}) {
    SCOPED_TRACE(StorageStrategyName(strategy));
    DatabaseOptions options;
    options.strategy = strategy;
    auto db = Database::Open(
        dir.path() + "/" + StorageStrategyName(strategy), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Session session = (*db)->OpenSession();
    ASSERT_TRUE(session.ExecuteScript(kSchema).ok());
    auto run = [&](const std::string& mql) {
      auto r = session.Execute(mql);
      EXPECT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
      return r.ok() ? std::to_string(r.value().inserted_id) : "";
    };
    const std::string live =
        run("INSERT ATOM Emp (name='live', salary=1) VALID FROM 10;");
    const std::string dead =
        run("INSERT ATOM Emp (name='dead', salary=1) VALID FROM 10;");
    run("DELETE ATOM Emp " + dead + " VALID FROM 20;");
    const std::string dept =
        run("INSERT ATOM Dept (name='d', budget=1) VALID FROM 10;");
    const std::string linked =
        run("INSERT ATOM Emp (name='linked', salary=1) VALID FROM 10;");
    run("CONNECT DeptEmp FROM " + dept + " TO " + linked + " VALID FROM 10;");
    const std::string set = " SET salary=2";
    const std::vector<Case> here = {
        {"UPDATE ATOM Emp 99" + set + " VALID FROM 30;",
         StatusCode::kNotFound},
        {"DELETE ATOM Emp 99 VALID FROM 30;", StatusCode::kNotFound},
        {"UPDATE ATOM Emp " + dead + set + " VALID FROM 15;",
         StatusCode::kInvalidArgument},
        {"DELETE ATOM Emp " + dead + " VALID FROM 15;",
         StatusCode::kInvalidArgument},
        {"UPDATE ATOM Emp " + dead + set + " VALID FROM 25;",
         StatusCode::kInvalidArgument},
        {"DELETE ATOM Emp " + dead + " VALID FROM 25;",
         StatusCode::kInvalidArgument},
        {"UPDATE ATOM Emp " + live + set + " VALID FROM 10;",
         StatusCode::kInvalidArgument},
        {"DELETE ATOM Emp " + live + " VALID FROM 10;",
         StatusCode::kInvalidArgument},
        {"CONNECT DeptEmp FROM " + dept + " TO " + linked +
             " VALID FROM 30;",
         StatusCode::kAlreadyExists},
        {"DISCONNECT DeptEmp FROM " + dept + " TO " + live +
             " VALID FROM 30;",
         StatusCode::kNotFound},
        {"DISCONNECT DeptEmp FROM " + dept + " TO " + linked +
             " VALID FROM 10;",
         StatusCode::kInvalidArgument},
    };
    if (cases.empty()) cases = here;
    ASSERT_EQ(here.size(), cases.size());
    for (size_t i = 0; i < here.size(); ++i) {
      ASSERT_EQ(here[i].mql, cases[i].mql);  // same ids everywhere
    }
    const std::string name = StorageStrategyName(strategy);
    for (const Case& c : cases) {
      auto refusal = [&](const Result<ResultSet>& r) {
        EXPECT_FALSE(r.ok()) << c.mql;
        return Refusal{r.status().code(), r.status().message()};
      };
      // A refused statement is never logged.
      const uint64_t appended = (*db)->wal()->appended_records();
      cells[name + " auto"].push_back(refusal(session.Execute(c.mql)));
      EXPECT_EQ((*db)->wal()->appended_records(), appended) << c.mql;
      ASSERT_TRUE(session.Execute("BEGIN;").ok());
      cells[name + " txn"].push_back(refusal(session.Execute(c.mql)));
      ASSERT_TRUE(session.Execute("ABORT;").ok());
    }
    EXPECT_FALSE((*db)->IsPoisoned());
  }
  ASSERT_EQ(cells.size(), 6u);
  const std::vector<Refusal>& first = cells.begin()->second;
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].mql);
    EXPECT_EQ(first[i].code, cases[i].code) << first[i];
    for (const auto& [cell, refusals] : cells) {
      EXPECT_EQ(refusals[i], first[i])
          << cell << " vs " << cells.begin()->first;
    }
  }
}

}  // namespace
}  // namespace tcob
