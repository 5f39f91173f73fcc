// Per-caller sessions: each Session owns its MQL transaction and the
// trace of its own last SELECT, so callers on different threads never
// see each other's BEGIN or each other's query statistics.

#include <future>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "storage/fault_env.h"

namespace tcob {
namespace {

constexpr char kSchema[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
)";

class SessionTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.strategy = GetParam();
    return options;
  }

  std::unique_ptr<Database> OpenDb(const DatabaseOptions& options) {
    auto db = Database::Open(dir_.path() + "/db", options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return nullptr;
    auto schema = (*db)->OpenSession().ExecuteScript(kSchema);
    EXPECT_TRUE(schema.ok()) << schema.status().ToString();
    return std::move(db).value();
  }

  /// Whether a Dept named `name` has any version, as `session` sees it.
  static bool HasDept(Session* session, const std::string& name) {
    auto r = session->Execute("SELECT Dept.name FROM DeptMol WHERE "
                              "Dept.name = '" + name + "' HISTORY");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value().RowCount() > 0;
  }

  TempDir dir_;
};

// Session A's BEGIN does not capture session B's statements: B's insert
// auto-commits, is visible to a third session at once, and survives A's
// ABORT; A's buffered insert never becomes visible.
TEST_P(SessionTest, BeginInOneSessionDoesNotCaptureAnother) {
  auto db = OpenDb(Options());
  ASSERT_NE(db, nullptr);
  std::promise<void> a_buffered, b_inserted;
  std::string a_message, b_message;
  bool b_visible_at_once = false;
  std::thread a([&] {
    Session session = db->OpenSession();
    EXPECT_TRUE(session.Execute("BEGIN;").ok());
    auto r = session.Execute(
        "INSERT ATOM Dept (name='from-a', budget=1) VALID FROM 10;");
    if (r.ok()) a_message = r.value().message;
    a_buffered.set_value();
    b_inserted.get_future().wait();
    EXPECT_TRUE(session.Execute("ABORT;").ok());
  });
  std::thread b([&] {
    a_buffered.get_future().wait();
    Session session = db->OpenSession();
    auto r = session.Execute(
        "INSERT ATOM Dept (name='from-b', budget=2) VALID FROM 10;");
    if (r.ok()) b_message = r.value().message;
    Session observer = db->OpenSession();
    b_visible_at_once = HasDept(&observer, "from-b");
    b_inserted.set_value();
  });
  a.join();
  b.join();
  EXPECT_EQ(a_message.rfind("buffered insert of atom #", 0), 0u) << a_message;
  EXPECT_EQ(b_message.rfind("inserted atom #", 0), 0u) << b_message;
  EXPECT_TRUE(b_visible_at_once);
  Session observer = db->OpenSession();
  EXPECT_TRUE(HasDept(&observer, "from-b"));
  EXPECT_FALSE(HasDept(&observer, "from-a"));
  EXPECT_EQ(db->ActiveTxns(), 0u);
}

// Two threads loop their own SELECT in their own sessions; each
// session's last_query_stats() describes its own statement every time.
TEST_P(SessionTest, ConcurrentSessionsKeepTheirOwnQueryStats) {
  auto db = OpenDb(Options());
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Execute("INSERT ATOM Dept (name='d', budget=1) "
                          "VALID FROM 10;")
                  .ok());
  auto loop = [&](const std::string& mql, int* wrong) {
    Session session = db->OpenSession();
    for (int i = 0; i < 200; ++i) {
      if (!session.Execute(mql).ok() ||
          session.last_query_stats().statement != mql) {
        ++*wrong;
      }
    }
  };
  int wrong_slice = 0, wrong_history = 0;
  std::thread other(loop, "SELECT ALL FROM DeptMol HISTORY", &wrong_history);
  loop("SELECT Dept.name FROM DeptMol VALID AT 10", &wrong_slice);
  other.join();
  EXPECT_EQ(wrong_slice, 0);
  EXPECT_EQ(wrong_history, 0);
}

// Database::Execute and Query run in a temporary session, so BEGIN there
// is refused instead of opening a transaction that would end with the
// call; COMMIT and ABORT find no transaction.
TEST_P(SessionTest, DatabaseSurfaceRefusesBegin) {
  auto db = OpenDb(Options());
  ASSERT_NE(db, nullptr);
  auto begin = db->Execute("BEGIN;");
  ASSERT_TRUE(begin.status().IsInvalidArgument()) << begin.status().ToString();
  EXPECT_NE(begin.status().ToString().find("OpenSession"), std::string::npos);
  EXPECT_TRUE(db->Query("BEGIN;").status().IsInvalidArgument());
  EXPECT_TRUE(db->Execute("COMMIT;").status().IsInvalidArgument());
  EXPECT_TRUE(db->Execute("ABORT;").status().IsInvalidArgument());
  EXPECT_EQ(db->ActiveTxns(), 0u);
  auto insert = db->Execute("INSERT ATOM Dept (name='d', budget=1) "
                            "VALID FROM 10;");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert.value().message.rfind("inserted atom #", 0), 0u);
}

// BEGIN is refused once the database degraded to read-only after a
// failed WAL sync, and no transaction is left registered.
TEST_P(SessionTest, BeginOnPoisonedDatabaseFails) {
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kSilent);
  FaultInjectingIoEnv env;
  DatabaseOptions options = Options();
  options.sync_wal = true;
  options.env = &env;
  auto db = OpenDb(options);
  ASSERT_NE(db, nullptr);
  env.FailSyncAt(env.syncs() + 1);
  ASSERT_FALSE(db->Execute("INSERT ATOM Dept (name='d', budget=1) "
                           "VALID FROM 10;")
                   .ok());
  ASSERT_EQ(db->health_state(), HealthState::kReadOnly);
  Session session = db->OpenSession();
  auto begin = session.Execute("BEGIN;");
  EXPECT_TRUE(begin.status().IsIOError()) << begin.status().ToString();
  EXPECT_EQ(db->ActiveTxns(), 0u);
  // Reads still serve in the session.
  EXPECT_TRUE(session.Execute("SELECT ALL FROM DeptMol HISTORY").ok());
  SetLogLevel(saved_level);
}

// A session used after its Database is destroyed fails every call with
// FailedPrecondition instead of reading freed memory; its open
// transaction is dropped the same way.
TEST_P(SessionTest, SessionOutlivingDatabaseFailsCleanly) {
  auto db = OpenDb(Options());
  ASSERT_NE(db, nullptr);
  Session session = db->OpenSession();
  ASSERT_TRUE(
      session.Execute("INSERT ATOM Dept (name='d', budget=1) VALID FROM 10;")
          .ok());
  ASSERT_TRUE(session.Execute("BEGIN;").ok());
  db.reset();
  const std::string select = "SELECT ALL FROM DeptMol VALID AT 10;";
  EXPECT_TRUE(session.Execute(select).status().IsFailedPrecondition());
  EXPECT_TRUE(session.Query(select).status().IsFailedPrecondition());
  EXPECT_TRUE(session.Explain(select).status().IsFailedPrecondition());
  EXPECT_TRUE(session.Execute("INSERT ATOM Dept (name='e', budget=1) "
                              "VALID FROM 20;")
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(session.Query("COMMIT;").status().IsFailedPrecondition());
  EXPECT_TRUE(
      session.ExecuteScript("ABORT; BEGIN;").status().IsFailedPrecondition());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SessionTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
