// Crash-recovery torture test.
//
// A "crash" is simulated by abandoning a Database instance without
// letting its destructor flush the buffer pool: whatever mix of pages
// happened to be written (evictions, checkpoints) is what recovery finds
// on disk, plus the WAL. A control database executing the same workload
// with a clean shutdown defines the expected answers.

#include <gtest/gtest.h>

#include <set>

#include "common/logging.h"
#include "common/random.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "query/parser.h"
#include "storage/fault_env.h"

namespace tcob {
namespace {

constexpr char kSchema[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
)";

class CrashRecoveryTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.strategy = GetParam();
    options.buffer_pool_pages = 32;  // tiny pool: constant dirty evictions
    return options;
  }

  static void Run(Database* db, const std::string& mql) {
    auto r = db->Execute(mql);
    ASSERT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
  }

  /// Applies a deterministic workload of `steps` DML statements.
  static void ApplyWorkload(Database* db, int steps) {
    auto stmts = Parser::ParseScript(kSchema);
    ASSERT_TRUE(stmts.ok());
    Session session = db->OpenSession();
    for (const Statement& stmt : stmts.value()) {
      ASSERT_TRUE(session.ExecuteStatement(stmt).ok());
    }
    Random rng(99);
    std::vector<AtomId> emps;
    auto dept =
        db->Execute("INSERT ATOM Dept (name='d', budget=1) VALID FROM 10")
            .value()
            .inserted_id;
    Timestamp clock = 10;
    for (int i = 0; i < 6; ++i) {
      auto emp = db->Execute("INSERT ATOM Emp (name='e" + std::to_string(i) +
                             "', salary=100) VALID FROM 10")
                     .value()
                     .inserted_id;
      emps.push_back(emp);
      Run(db, "CONNECT DeptEmp FROM " + std::to_string(dept) + " TO " +
                  std::to_string(emp) + " VALID FROM 10");
    }
    for (int step = 0; step < steps; ++step) {
      clock += 1 + rng.Uniform(2);
      AtomId emp = emps[rng.Uniform(emps.size())];
      Run(db, "UPDATE ATOM Emp " + std::to_string(emp) + " SET salary=" +
                  std::to_string(step) + " VALID FROM " +
                  std::to_string(clock));
      if (step == steps / 2) {
        // A mid-workload checkpoint: recovery must handle a WAL that only
        // covers the tail.
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
  }

  static std::multiset<std::string> Snapshot(Database* db) {
    std::multiset<std::string> out;
    for (const char* q : {"SELECT ALL FROM DeptMol VALID AT NOW",
                          "SELECT Emp.name, Emp.salary FROM DeptMol HISTORY",
                          "SELECT ALL FROM DeptMol VALID AT 10"}) {
      auto r = db->Execute(q);
      EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      if (!r.ok()) continue;
      for (const auto& row : r.value().rows) {
        std::string line = std::string(q) + "::";
        for (const Value& v : row) line += v.ToString() + "|";
        out.insert(std::move(line));
      }
    }
    return out;
  }

  TempDir dir_;
};

TEST_P(CrashRecoveryTest, CrashAfterWorkloadRecoversExactly) {
  // Control: same workload, clean shutdown.
  {
    auto control = Database::Open(dir_.path() + "/control", Options()).value();
    ApplyWorkload(control.get(), 120);
  }
  auto control =
      Database::Open(dir_.path() + "/control", Options()).value();
  std::multiset<std::string> expected = Snapshot(control.get());
  ASSERT_FALSE(expected.empty());

  // Crash victim: identical workload, then the instance is abandoned
  // without flushing (deliberate leak — the OS owns the fds until exit).
  {
    auto victim = Database::Open(dir_.path() + "/crash", Options());
    ASSERT_TRUE(victim.ok());
    Database* leaked = victim.value().release();
    ApplyWorkload(leaked, 120);
    // No destructor, no flush: the on-disk state is whatever evictions
    // and the mid-workload checkpoint left behind, plus the full WAL.
  }
  auto recovered = Database::Open(dir_.path() + "/crash", Options());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Snapshot(recovered.value().get()), expected);

  // The recovered database accepts new work.
  auto fresh = recovered.value()->Execute(
      "INSERT ATOM Emp (name='post-crash', salary=1)");
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
}

TEST_P(CrashRecoveryTest, CrashImmediatelyAfterOpenIsHarmless) {
  {
    auto victim = Database::Open(dir_.path() + "/crash", Options());
    ASSERT_TRUE(victim.ok());
    (void)victim.value().release();  // leak: crash before any DML
  }
  auto recovered = Database::Open(dir_.path() + "/crash", Options());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value()->catalog().AtomTypes().empty());
}

TEST_P(CrashRecoveryTest, RepeatedCrashesConverge) {
  // Crash, recover, crash again mid-extension, recover again.
  {
    auto v1 = Database::Open(dir_.path() + "/db", Options());
    ASSERT_TRUE(v1.ok());
    Database* leaked = v1.value().release();
    ApplyWorkload(leaked, 40);
  }
  AtomId extra = kInvalidAtomId;
  {
    auto v2 = Database::Open(dir_.path() + "/db", Options());
    ASSERT_TRUE(v2.ok());
    Database* leaked = v2.value().release();
    auto r = leaked->Execute("INSERT ATOM Dept (name='late', budget=7)");
    ASSERT_TRUE(r.ok());
    extra = r.value().inserted_id;
  }
  auto final_db = Database::Open(dir_.path() + "/db", Options());
  ASSERT_TRUE(final_db.ok());
  auto r = final_db.value()->Execute(
      "SELECT Dept.name FROM DeptMol WHERE Dept.budget = 7 VALID AT NOW");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().RowCount(), 1u);
  EXPECT_EQ(r.value().rows[0][1].AsString(), "late");
  EXPECT_NE(extra, kInvalidAtomId);
}

TEST_P(CrashRecoveryTest, RecrashImmediatelyAfterRecoveryIsIdempotent) {
  // Control: same workload, clean shutdown.
  {
    auto control = Database::Open(dir_.path() + "/control", Options()).value();
    ApplyWorkload(control.get(), 80);
  }
  auto control = Database::Open(dir_.path() + "/control", Options()).value();
  std::multiset<std::string> expected = Snapshot(control.get());
  ASSERT_FALSE(expected.empty());

  {
    auto v1 = Database::Open(dir_.path() + "/crash", Options());
    ASSERT_TRUE(v1.ok());
    ApplyWorkload(v1.value().release(), 80);
  }
  // First recovery replays the WAL tail... and then crashes again before
  // checkpointing anything. The watermark must not have advanced, so the
  // second recovery sees the exact same work.
  uint64_t first_replayed = 0;
  {
    auto v2 = Database::Open(dir_.path() + "/crash", Options());
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    first_replayed = v2.value()->recovery_stats().replayed_ops;
    (void)v2.value().release();
  }
  ASSERT_GT(first_replayed, 0u);
  auto v3 = Database::Open(dir_.path() + "/crash", Options());
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(v3.value()->recovery_stats().replayed_ops, first_replayed);
  EXPECT_TRUE(v3.value()->VerifyIntegrity().ok());
  EXPECT_EQ(Snapshot(v3.value().get()), expected);
}

TEST_P(CrashRecoveryTest, PowerCutDuringCheckpointNeverLosesAckedOps) {
  // Every statement below is acknowledged under sync_wal, so no matter
  // where inside Checkpoint the power fails, recovery must reproduce all
  // of them: either the old image plus a full WAL replay (cut before the
  // journal commit) or the new image (cut on or after it).
  struct LogSilencer {
    LogLevel saved = GetLogLevel();
    LogSilencer() { SetLogLevel(LogLevel::kSilent); }
    ~LogSilencer() { SetLogLevel(saved); }
  } silence;

  const std::string path = dir_.path() + "/db";
  auto options = [this](FaultInjectingIoEnv* env) {
    DatabaseOptions o = Options();
    o.env = env;
    o.sync_wal = true;
    o.parallelism = 1;
    return o;
  };

  // Dry run: the expected final state and the checkpoint's event span.
  uint64_t events_before = 0;
  uint64_t span = 0;
  std::multiset<std::string> expected;
  {
    FaultInjectingIoEnv env;
    auto db = Database::Open(path, options(&env)).value();
    ApplyWorkload(db.get(), 16);
    events_before = env.events();
    ASSERT_TRUE(db->Checkpoint().ok());
    span = env.events() - events_before;
    expected = Snapshot(db.get());
  }
  ASSERT_GT(span, 5u);
  ASSERT_FALSE(expected.empty());

  bool saw_journal_apply = false;
  for (uint64_t k = 1; k <= span; ++k) {
    SCOPED_TRACE("power cut at checkpoint event +" + std::to_string(k));
    FaultInjectingIoEnv env;
    auto victim = Database::Open(path, options(&env));
    ASSERT_TRUE(victim.ok());
    Database* leaked = victim.value().release();
    ApplyWorkload(leaked, 16);
    ASSERT_EQ(env.events(), events_before) << "workload is nondeterministic";
    env.PowerCutAfterEvents(events_before + k, CutMode::kDropUnsynced);
    (void)leaked->Checkpoint();  // fails at the cut, or completes right on it
    ASSERT_TRUE(env.cut_fired());
    env.Revive();

    auto recovered = Database::Open(path, options(&env));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    saw_journal_apply |=
        recovered.value()->recovery_stats().journal_pages_applied > 0;
    EXPECT_TRUE(recovered.value()->VerifyIntegrity().ok());
    EXPECT_EQ(Snapshot(recovered.value().get()), expected);
  }
  // A cut between the journal's commit record and the in-place apply
  // leaves a committed journal behind; some reopen above must have
  // finished that checkpoint from it.
  EXPECT_TRUE(saw_journal_apply);
}

TEST_P(CrashRecoveryTest, RejectedAutoCommitStatementsDoNotBlockReopen) {
  // Auto-commit DML is validated before it is logged, so none of the
  // rejected statements below reaches the WAL, and recovery rebuilds
  // exactly the history the runtime served.
  struct Case {
    const char* name;
    bool connected;  // DeptEmp dept -> emp open from 10 beforehand
    std::string (*rejected)(const std::string& dept, const std::string& emp);
  };
  const Case cases[] = {
      {"delete_unknown_atom", false,
       [](const std::string&, const std::string&) -> std::string {
         return "DELETE ATOM Emp 999999 VALID FROM 20";
       }},
      {"delete_before_birth", false,
       [](const std::string&, const std::string& emp) -> std::string {
         return "DELETE ATOM Emp " + emp + " VALID FROM 5";
       }},
      {"connect_open_link", true,
       [](const std::string& dept, const std::string& emp) -> std::string {
         return "CONNECT DeptEmp FROM " + dept + " TO " + emp +
                " VALID FROM 20";
       }},
      {"disconnect_before_connect", true,
       [](const std::string& dept, const std::string& emp) -> std::string {
         return "DISCONNECT DeptEmp FROM " + dept + " TO " + emp +
                " VALID FROM 5";
       }},
      {"disconnect_missing_link", false,
       [](const std::string& dept, const std::string& emp) -> std::string {
         return "DISCONNECT DeptEmp FROM " + dept + " TO " + emp +
                " VALID FROM 20";
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = dir_.path() + "/" + c.name;
    AtomId after = 0;
    std::string served;
    {
      auto victim = Database::Open(dir, Options());
      ASSERT_TRUE(victim.ok());
      Database* leaked = victim.value().release();
      ASSERT_TRUE(leaked->OpenSession().ExecuteScript(kSchema).ok());
      const std::string dept = std::to_string(
          leaked->Execute("INSERT ATOM Dept (name='d', budget=1) VALID FROM 10")
              .value()
              .inserted_id);
      const std::string emp = std::to_string(
          leaked->Execute("INSERT ATOM Emp (name='e', salary=1) VALID FROM 10")
              .value()
              .inserted_id);
      if (c.connected) {
        Run(leaked, "CONNECT DeptEmp FROM " + dept + " TO " + emp +
                        " VALID FROM 10");
      }
      const uint64_t appended = leaked->wal()->appended_records();
      auto rejected = leaked->Execute(c.rejected(dept, emp));
      EXPECT_EQ(leaked->wal()->appended_records(), appended);
      ASSERT_FALSE(rejected.ok());
      const Status& s = rejected.status();
      EXPECT_TRUE(s.IsNotFound() || s.IsInvalidArgument() ||
                  s.IsAlreadyExists())
          << s.ToString();
      EXPECT_FALSE(leaked->IsPoisoned());
      after = leaked->Execute("INSERT ATOM Emp (name='after', salary=2) "
                              "VALID FROM 30")
                  .value()
                  .inserted_id;
      served = leaked->Dump().value();
      // Leaked: no flush, no checkpoint; the WAL holds every statement.
    }
    auto recovered = Database::Open(dir, Options());
    if (!recovered.ok()) {
      ADD_FAILURE() << "reopen failed: " << recovered.status().ToString();
      continue;
    }
    Database* db = recovered.value().get();
    EXPECT_EQ(db->Dump().value(), served);
    EXPECT_TRUE(db->VerifyIntegrity().ok());
    const AtomTypeDef* emp_type =
        db->catalog().GetAtomTypeByName("Emp").value();
    auto survivor = db->store()->GetAsOf(*emp_type, after, 30);
    ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
    ASSERT_TRUE(survivor.value().has_value());
    EXPECT_EQ(survivor.value()->attrs[0], Value::String("after"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, CrashRecoveryTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
