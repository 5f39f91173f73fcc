// Cross-module integration tests:
//  * strategy equivalence: an identical random workload (atom DML, link
//    churn, deletes, re-inserts) driven into one database per storage
//    strategy must answer every temporal query identically;
//  * the history/time-slice consistency property: a molecule's HISTORY
//    must equal the chronon-by-chronon sequence of its time slices.

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "mad/materializer.h"
#include "query/parser.h"

namespace tcob {
namespace {

constexpr char kSchema[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
)";

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const StorageStrategy all[] = {StorageStrategy::kSnapshot,
                                   StorageStrategy::kIntegrated,
                                   StorageStrategy::kSeparated};
    for (StorageStrategy strategy : all) {
      DatabaseOptions options;
      options.strategy = strategy;
      options.buffer_pool_pages = 128;  // force real eviction traffic
      auto db = Database::Open(
          dir_.path() + "/" + StorageStrategyName(strategy), options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      dbs_.push_back(std::move(db).value());
      auto stmts = Parser::ParseScript(kSchema);
      ASSERT_TRUE(stmts.ok());
      Session session = dbs_.back()->OpenSession();
      for (const Statement& stmt : stmts.value()) {
        ASSERT_TRUE(session.ExecuteStatement(stmt).ok());
      }
    }
  }

  /// Runs `mql` on every database; all must agree (as row multisets).
  /// Returns the common row count.
  size_t AssertAllAgree(const std::string& mql) {
    std::vector<std::multiset<std::string>> results;
    for (auto& db : dbs_) {
      auto r = db->Execute(mql);
      EXPECT_TRUE(r.ok()) << mql << " on "
                          << StorageStrategyName(db->options().strategy)
                          << ": " << r.status().ToString();
      std::multiset<std::string> rows;
      if (r.ok()) {
        for (const auto& row : r.value().rows) {
          std::string line;
          for (const Value& v : row) line += v.ToString() + "|";
          rows.insert(std::move(line));
        }
      }
      results.push_back(std::move(rows));
    }
    EXPECT_EQ(results[0], results[1]) << mql;
    EXPECT_EQ(results[0], results[2]) << mql;
    return results[0].size();
  }

  /// Applies `mql` to every database, asserting uniform success.
  void ApplyAll(const std::string& mql) {
    for (auto& db : dbs_) {
      auto r = db->Execute(mql);
      ASSERT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
    }
  }

  TempDir dir_;
  std::vector<std::unique_ptr<Database>> dbs_;
};

TEST_F(IntegrationTest, RandomWorkloadStrategyEquivalence) {
  Random rng(4242);
  // Deterministic ids: both databases assign ids in the same order
  // because they execute the same statements.
  std::vector<AtomId> depts, emps;
  std::set<std::pair<AtomId, AtomId>> connected;
  std::map<AtomId, bool> emp_alive;
  Timestamp clock = 10;

  // Seed: 3 departments, 9 employees.
  for (int d = 0; d < 3; ++d) {
    auto r = dbs_[0]->Execute("INSERT ATOM Dept (name='d" +
                              std::to_string(d) + "', budget=" +
                              std::to_string(100 * (d + 1)) +
                              ") VALID FROM 10");
    ASSERT_TRUE(r.ok());
    depts.push_back(r.value().inserted_id);
    for (size_t i = 1; i < dbs_.size(); ++i) {
      auto r2 = dbs_[i]->Execute("INSERT ATOM Dept (name='d" +
                                 std::to_string(d) + "', budget=" +
                                 std::to_string(100 * (d + 1)) +
                                 ") VALID FROM 10");
      ASSERT_TRUE(r2.ok());
      ASSERT_EQ(r2.value().inserted_id, depts.back());
    }
  }
  for (int e = 0; e < 9; ++e) {
    std::string mql = "INSERT ATOM Emp (name='e" + std::to_string(e) +
                      "', salary=" + std::to_string(1000 + e) +
                      ") VALID FROM 10";
    auto r = dbs_[0]->Execute(mql);
    ASSERT_TRUE(r.ok());
    emps.push_back(r.value().inserted_id);
    emp_alive[emps.back()] = true;
    for (size_t i = 1; i < dbs_.size(); ++i) {
      ASSERT_EQ(dbs_[i]->Execute(mql).value().inserted_id, emps.back());
    }
    ApplyAll("CONNECT DeptEmp FROM " + std::to_string(depts[e % 3]) +
             " TO " + std::to_string(emps.back()) + " VALID FROM 10");
    connected.insert({depts[e % 3], emps.back()});
  }

  // Random mutation phase.
  for (int step = 0; step < 250; ++step) {
    clock += 1 + rng.Uniform(3);
    AtomId emp = emps[rng.Uniform(emps.size())];
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 5 && emp_alive[emp]) {
      ApplyAll("UPDATE ATOM Emp " + std::to_string(emp) + " SET salary=" +
               std::to_string(500 + rng.Uniform(5000)) + " VALID FROM " +
               std::to_string(clock));
    } else if (action < 6 && emp_alive[emp]) {
      ApplyAll("DELETE ATOM Emp " + std::to_string(emp) + " VALID FROM " +
               std::to_string(clock));
      emp_alive[emp] = false;
    } else if (action < 7 && !emp_alive[emp]) {
      ApplyAll("INSERT ATOM Emp (name='re', salary=" +
               std::to_string(rng.Uniform(9000)) + ") VALID FROM " +
               std::to_string(clock));
      // Note: re-insert creates a *new* atom (fresh id); track it.
      // (We cannot reuse the old id through MQL — ids are system-owned.)
      auto r = dbs_[0]->Execute("SELECT COUNT(*) FROM DeptMol VALID AT NOW");
      ASSERT_TRUE(r.ok());
    } else if (action < 9) {
      // Link churn.
      AtomId dept = depts[rng.Uniform(depts.size())];
      bool is_connected = connected.count({dept, emp}) > 0;
      if (is_connected) {
        ApplyAll("DISCONNECT DeptEmp FROM " + std::to_string(dept) + " TO " +
                 std::to_string(emp) + " VALID FROM " +
                 std::to_string(clock));
        connected.erase({dept, emp});
      } else if (emp_alive[emp]) {
        ApplyAll("CONNECT DeptEmp FROM " + std::to_string(dept) + " TO " +
                 std::to_string(emp) + " VALID FROM " +
                 std::to_string(clock));
        connected.insert({dept, emp});
      }
    } else if (emp_alive[emp]) {
      ApplyAll("UPDATE ATOM Emp " + std::to_string(emp) +
               " SET name='renamed" + std::to_string(step) +
               "' VALID FROM " + std::to_string(clock));
    }
  }

  // Query phase: slices across the whole timeline, windows, histories,
  // predicates, aggregates.
  size_t nonempty = 0;
  for (Timestamp t = 10; t <= clock; t += 1 + (clock - 10) / 23) {
    nonempty += AssertAllAgree("SELECT ALL FROM DeptMol VALID AT " +
                               std::to_string(t));
    AssertAllAgree("SELECT Emp.name, Emp.salary FROM DeptMol "
                   "WHERE Emp.salary > 2500 VALID AT " +
                   std::to_string(t));
  }
  EXPECT_GT(nonempty, 0u);
  AssertAllAgree("SELECT ALL FROM DeptMol VALID IN [20, " +
                 std::to_string(clock) + ")");
  AssertAllAgree("SELECT Dept.name, Emp.salary FROM DeptMol HISTORY");
  AssertAllAgree(
      "SELECT COUNT(*), SUM(Emp.salary), MIN(Emp.salary), MAX(Emp.salary) "
      "FROM DeptMol VALID AT NOW");
  AssertAllAgree("SELECT Emp.name FROM DeptMol WHERE VALID(Emp) OVERLAPS "
                 "[30, 60) HISTORY");
}

TEST_F(IntegrationTest, HistoryEqualsPointwiseTimeSlices) {
  // Build a small but eventful timeline on the separated database.
  Database* db = dbs_[2].get();
  Random rng(7);
  auto dept =
      db->Execute("INSERT ATOM Dept (name='d', budget=1) VALID FROM 10")
          .value()
          .inserted_id;
  std::vector<AtomId> emps;
  for (int e = 0; e < 3; ++e) {
    auto emp = db->Execute("INSERT ATOM Emp (name='e" + std::to_string(e) +
                           "', salary=1) VALID FROM 10")
                   .value()
                   .inserted_id;
    emps.push_back(emp);
    ASSERT_TRUE(db->Connect("DeptEmp", dept, emp, 10).ok());
  }
  Timestamp clock = 10;
  for (int step = 0; step < 60; ++step) {
    clock += 1 + rng.Uniform(2);
    AtomId emp = emps[rng.Uniform(emps.size())];
    int action = static_cast<int>(rng.Uniform(6));
    if (action < 3) {
      (void)db->Execute("UPDATE ATOM Emp " + std::to_string(emp) +
                        " SET salary=" + std::to_string(step) +
                        " VALID FROM " + std::to_string(clock));
    } else if (action < 4) {
      (void)db->Disconnect("DeptEmp", dept, emp, clock);
    } else {
      (void)db->Connect("DeptEmp", dept, emp, clock);
    }
    // Some statements fail (double connect etc.) — that's fine; the
    // property below holds regardless of which ones landed.
  }
  const Interval window(10, clock + 5);

  Materializer mat = db->materializer();
  const MoleculeTypeDef* mol_type =
      db->catalog().GetMoleculeTypeByName("DeptMol").value();
  MoleculeHistory history = mat.History(*mol_type, dept, window).value();

  // Pointwise check at EVERY chronon in the window.
  for (Timestamp t = window.begin; t < window.end; ++t) {
    const MoleculeState* state = nullptr;
    for (const MoleculeState& s : history.states) {
      if (s.valid.Contains(t)) state = &s;
    }
    Result<Molecule> slice = mat.MaterializeAsOf(*mol_type, dept, t);
    ASSERT_TRUE(slice.ok()) << "t=" << t;  // root always alive here
    ASSERT_NE(state, nullptr) << "t=" << t;
    EXPECT_TRUE(state->molecule.SameState(slice.value())) << "t=" << t;
  }
  // States are maximal: adjacent states must differ.
  for (size_t i = 0; i + 1 < history.states.size(); ++i) {
    if (history.states[i].valid.Meets(history.states[i + 1].valid)) {
      EXPECT_FALSE(history.states[i].molecule.SameState(
          history.states[i + 1].molecule))
          << "states " << i << " and " << i + 1 << " should be coalesced";
    }
  }
}

}  // namespace
}  // namespace tcob
