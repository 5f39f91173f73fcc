// Targeted fault-injection suite. The crash-point sweep proves recovery
// over *every* power-cut position; these tests instead pin down single
// failure modes and the exact behaviour each must produce:
//
//   - a failed WAL fsync poisons the database fail-stop (writes refused,
//     reads fine) and a reopen recovers,
//   - a failed sync inside Checkpoint likewise poisons, and no acked
//     operation is lost,
//   - an injected read error surfaces as IOError — during Open and
//     during a query — never as a crash or a wrong answer,
//   - a corrupt WAL tail is detected, dropped, and reported through
//     RecoveryStats.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "common/coding.h"
#include "common/logging.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "storage/fault_env.h"

namespace tcob {
namespace {

constexpr char kSetup[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
  INSERT ATOM Dept (name='eng', budget=100) VALID FROM 10;
  INSERT ATOM Emp (name='ada', salary=10) VALID FROM 10;
  CONNECT DeptEmp FROM 1 TO 2 VALID FROM 10;
)";

class FaultInjectionTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  void SetUp() override {
    saved_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kSilent);  // every test here provokes errors
  }
  void TearDown() override { SetLogLevel(saved_level_); }

  DatabaseOptions Options(IoEnv* env) {
    DatabaseOptions options;
    options.strategy = GetParam();
    options.buffer_pool_pages = 8;
    options.sync_wal = true;
    options.parallelism = 1;
    options.env = env;
    return options;
  }

  std::string db_dir() const { return dir_.path() + "/db"; }

  /// Opens a fresh database and applies the setup script: one Dept
  /// (atom 1) connected to one Emp (atom 2).
  std::unique_ptr<Database> Populate(FaultInjectingIoEnv* env) {
    auto db = Database::Open(db_dir(), Options(env));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return nullptr;
    auto r = (*db)->OpenSession().ExecuteScript(kSetup);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return nullptr;
    return std::move(db.value());
  }

  static size_t Rows(Database* db, const std::string& q) {
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? r.value().RowCount() : 0;
  }

  TempDir dir_;
  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_P(FaultInjectionTest, FailedWalSyncDumpsFlightRecorder) {
  // Degrading to read-only must leave a flight-recorder dump in
  // trace.dump_dir: a well-formed Chrome trace_event JSON file whose
  // ring still holds the WAL/query events leading up to the failure.
  FaultInjectingIoEnv env;
  TempDir dump_dir;
  DatabaseOptions options = Options(&env);
  options.trace.dump_dir = dump_dir.path();
  auto db = Database::Open(db_dir(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->OpenSession().ExecuteScript(kSetup).ok());

  env.FailSyncAt(env.syncs() + 1);
  auto denied =
      (*db)->Execute("UPDATE ATOM Emp 2 SET salary=99 VALID FROM 20");
  ASSERT_FALSE(denied.ok());
  ASSERT_EQ((*db)->health_state(), HealthState::kReadOnly);

  const std::string path = dump_dir.path() + "/trace-read-only-1.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing dump " << path;
  std::string dump((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(dump.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(dump.compare(dump.size() - 2, 2, "]}"), 0);
  // The events that explain the failure are in the dump: WAL appends
  // from the setup script and the health transition itself.
  EXPECT_NE(dump.find("\"name\":\"wal_append\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"health_transition\""), std::string::npos);
}

TEST_P(FaultInjectionTest, FailedWalSyncPoisonsFailStop) {
  FaultInjectingIoEnv env;
  auto db = Populate(&env);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->health().ok());

  env.FailSyncAt(env.syncs() + 1);
  auto denied = db->Execute("UPDATE ATOM Emp 2 SET salary=99 VALID FROM 20");
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsIOError()) << denied.status().ToString();
  EXPECT_FALSE(db->health().ok());

  // Fail-stop: later writes are refused with the poison status even
  // though the injected fault itself was one-shot.
  auto refused = db->Execute("UPDATE ATOM Emp 2 SET salary=50 VALID FROM 21");
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsIOError()) << refused.status().ToString();
  EXPECT_FALSE(db->Checkpoint().ok());

  // ...but reads keep working against the pre-failure state.
  EXPECT_EQ(Rows(db.get(), "SELECT Emp.name FROM DeptMol VALID AT 15"), 1u);

  // Crash the poisoned instance and reopen. The update whose fsync
  // failed was never acknowledged, so it may be present (the record hit
  // the platter before the fsync error) or absent — both are honest.
  // The refused statement must NOT be present: fail-stop means it never
  // reached the log.
  (void)db.release();
  auto reopened = Database::Open(db_dir(), Options(&env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->health().ok());
  EXPECT_TRUE(reopened.value()->VerifyIntegrity().ok());
  const size_t versions =
      Rows(reopened.value().get(), "SELECT Emp.salary FROM DeptMol HISTORY");
  EXPECT_GE(versions, 1u);
  EXPECT_LE(versions, 2u);
  EXPECT_EQ(Rows(reopened.value().get(),
                 "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 50 "
                 "VALID AT 25"),
            0u);
  // The recovered database accepts new work.
  EXPECT_TRUE(reopened.value()
                  ->Execute("UPDATE ATOM Emp 2 SET salary=60 VALID FROM 30")
                  .ok());
}

TEST_P(FaultInjectionTest, FailedCheckpointSyncKeepsAllAckedData) {
  FaultInjectingIoEnv env;
  auto db = Populate(&env);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(
      db->Execute("UPDATE ATOM Emp 2 SET salary=11 VALID FROM 20").ok());

  env.FailSyncAt(env.syncs() + 1);
  Status s = db->Checkpoint();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(db->health().ok());
  // Reads still work on the poisoned instance.
  EXPECT_EQ(Rows(db.get(), "SELECT Emp.name FROM DeptMol VALID AT 25"), 1u);
  (void)db.release();

  // Every statement was acked under sync_wal, so all of them — including
  // the ones the failed checkpoint tried to flush — must survive.
  auto reopened = Database::Open(db_dir(), Options(&env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->VerifyIntegrity().ok());
  EXPECT_EQ(Rows(reopened.value().get(),
                 "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 11 "
                 "VALID AT 25"),
            1u);
  // The fresh instance is healthy and can checkpoint.
  EXPECT_TRUE(reopened.value()->health().ok());
  EXPECT_TRUE(reopened.value()->Checkpoint().ok());
}

TEST_P(FaultInjectionTest, ReadErrorDuringOpenFailsCleanly) {
  FaultInjectingIoEnv env;
  {
    auto db = Populate(&env);
    ASSERT_NE(db, nullptr);
    // Clean close: the destructor checkpoints, so reopening must read
    // the catalog and meta files back.
  }
  env.FailReadAt(env.reads() + 1);
  auto failed = Database::Open(db_dir(), Options(&env));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();

  // The fault was one-shot and the failed open wrote nothing, so the
  // same directory opens intact.
  auto ok = Database::Open(db_dir(), Options(&env));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value()->VerifyIntegrity().ok());
  EXPECT_EQ(Rows(ok.value().get(), "SELECT Emp.name FROM DeptMol VALID AT 15"),
            1u);
}

TEST_P(FaultInjectionTest, ReadErrorDuringQuerySurfacesAsIoError) {
  FaultInjectingIoEnv env;
  {
    auto db = Populate(&env);
    ASSERT_NE(db, nullptr);
  }
  // Reopen: the buffer pool starts cold, so the query below must hit
  // the disk.
  auto db = Database::Open(db_dir(), Options(&env)).value();
  env.FailReadAt(env.reads() + 1);
  auto r = db->Execute("SELECT ALL FROM DeptMol VALID AT 15");
  ASSERT_FALSE(r.ok()) << "cold-cache query never touched the disk";
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();

  // One-shot fault: the identical query now succeeds with the right
  // answer — the error was surfaced, not cached and not destructive.
  auto retry = db->Execute("SELECT ALL FROM DeptMol VALID AT 15");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(retry.value().RowCount(), 0u);
}

TEST_P(FaultInjectionTest, CorruptWalTailIsDetectedDroppedAndReported) {
  FaultInjectingIoEnv env;
  auto db = Populate(&env);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(
      db->Execute("UPDATE ATOM Emp 2 SET salary=11 VALID FROM 20").ok());
  (void)db.release();  // crash: the WAL holds every operation

  // Fake a torn append: a plausible frame header whose payload fails
  // the checksum.
  {
    auto wal = env.OpenFile(db_dir() + "/wal.log");
    ASSERT_TRUE(wal.ok());
    auto size = (*wal)->Size();
    ASSERT_TRUE(size.ok());
    ASSERT_GT(size.value(), 0u);
    std::string frame;
    PutFixed32(&frame, 4);           // length
    PutFixed32(&frame, 0xdeadbeef);  // checksum that cannot match
    frame += "junk";
    ASSERT_TRUE((*wal)->WriteAt(size.value(), Slice(frame)).ok());
  }

  auto recovered = Database::Open(db_dir(), Options(&env));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryStats& stats = recovered.value()->recovery_stats();
  EXPECT_TRUE(stats.wal_tail_was_corrupt);
  EXPECT_EQ(stats.wal_dropped_tail_bytes, 12u);
  // Every record before the bad tail replays: 2 inserts + 1 connect +
  // 1 update (DDL persists through the catalog file, not the WAL).
  EXPECT_EQ(stats.replayed_ops, 4u);
  EXPECT_TRUE(recovered.value()->VerifyIntegrity().ok());
  EXPECT_EQ(Rows(recovered.value().get(),
                 "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 11 "
                 "VALID AT 25"),
            1u);
}

TEST_P(FaultInjectionTest, IsPoisonedReportsAndPreservesOriginalError) {
  FaultInjectingIoEnv env;
  auto db = Populate(&env);
  ASSERT_NE(db, nullptr);
  EXPECT_FALSE(db->IsPoisoned());

  env.FailSyncAt(env.syncs() + 1);
  auto first = db->Execute("UPDATE ATOM Emp 2 SET salary=99 VALID FROM 20");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(db->IsPoisoned());
  const Status original = db->health();
  ASSERT_FALSE(original.ok());
  EXPECT_TRUE(original.IsIOError()) << original.ToString();

  // Every later mutation — DML, DDL, checkpoint, vacuum — must come
  // back with the *original* failure, not a fresh or generic error,
  // even though the injected fault itself was one-shot.
  auto dml = db->Execute("UPDATE ATOM Emp 2 SET salary=1 VALID FROM 21");
  ASSERT_FALSE(dml.ok());
  EXPECT_EQ(dml.status(), original) << dml.status().ToString();
  auto ddl = db->CreateAtomType("Late", {{"a", AttrType::kInt}});
  ASSERT_FALSE(ddl.ok());
  EXPECT_EQ(ddl.status(), original) << ddl.status().ToString();
  Status ckpt = db->Checkpoint();
  ASSERT_FALSE(ckpt.ok());
  EXPECT_EQ(ckpt, original) << ckpt.ToString();
  auto vac = db->VacuumBefore(5);
  ASSERT_FALSE(vac.ok());
  EXPECT_EQ(vac.status(), original) << vac.status().ToString();

  // Reads stay available and IsPoisoned stays sticky.
  EXPECT_EQ(Rows(db.get(), "SELECT Emp.name FROM DeptMol VALID AT 15"), 1u);
  EXPECT_TRUE(db->IsPoisoned());
}

/// Renders a materialized result for byte-exact comparison.
std::string Render(const ResultSet& rs) {
  std::string out;
  for (const std::string& c : rs.columns) out += c + "|";
  out += "\n";
  for (const auto& row : rs.rows) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out + rs.message;
}

TEST_P(FaultInjectionTest, DegradedReadOnlyModeServesReadsAndRecovers) {
  // A durability failure must degrade the database to read-only serving
  // — not kill it — and the degraded replica must answer a query mix
  // byte-identically to a healthy replica of the same history.
  FaultInjectingIoEnv victim_env;
  FaultInjectingIoEnv replica_env;
  auto victim = Populate(&victim_env);
  ASSERT_NE(victim, nullptr);
  auto replica_opened =
      Database::Open(dir_.path() + "/replica", Options(&replica_env));
  ASSERT_TRUE(replica_opened.ok()) << replica_opened.status().ToString();
  std::unique_ptr<Database> replica = std::move(replica_opened.value());
  ASSERT_TRUE(replica->OpenSession().ExecuteScript(kSetup).ok());

  ASSERT_EQ(victim->health_state(), HealthState::kHealthy);
  victim_env.FailSyncAt(victim_env.syncs() + 1);
  auto failed =
      victim->Execute("UPDATE ATOM Emp 2 SET salary=99 VALID FROM 20");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(victim->health_state(), HealthState::kReadOnly);
  EXPECT_STREQ(HealthStateName(victim->health_state()), "read-only");

  // Writes are refused with the preserved original cause.
  const Status cause = victim->health();
  ASSERT_FALSE(cause.ok());
  auto refused =
      victim->Execute("UPDATE ATOM Emp 2 SET salary=50 VALID FROM 21");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status(), cause) << refused.status().ToString();

  // Nine-query read mix: the degraded victim must match the healthy
  // replica byte for byte (the failed update was never acked, so both
  // instances hold the identical logical history).
  const char* const kBattery[] = {
      "SELECT ALL FROM DeptMol VALID AT 15",
      "SELECT Emp.name FROM DeptMol VALID AT 15",
      "SELECT ALL FROM DeptMol VALID IN [10, 30)",
      "SELECT Emp.salary FROM DeptMol HISTORY",
      "SELECT COUNT(*) FROM DeptMol VALID AT 15",
      "SELECT COUNT(*), AVG(Emp.salary) FROM DeptMol GROUP BY ROOT "
      "VALID AT 15",
      "SELECT Emp.name FROM DeptMol WHERE Emp.salary > 5 VALID AT 15",
      "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 10 VALID AT 15",
      "SELECT ALL FROM DeptMol HISTORY",
  };
  for (const char* q : kBattery) {
    auto got = victim->Execute(q);
    auto want = replica->Execute(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    EXPECT_EQ(Render(got.value()), Render(want.value())) << q;
  }

  // Recovery probe while the environment is still failing: stays
  // read-only with the probe's failure reported.
  victim_env.FailSyncAt(victim_env.syncs() + 1);
  Status still_broken = victim->TryRecover();
  ASSERT_FALSE(still_broken.ok());
  EXPECT_EQ(victim->health_state(), HealthState::kReadOnly);

  // The injected fault was one-shot; the next probe succeeds and write
  // service resumes.
  Status recovered = victim->TryRecover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString() << " | health: "
                              << victim->health().ToString();
  EXPECT_EQ(victim->health_state(), HealthState::kHealthy);
  EXPECT_TRUE(victim->health().ok());
  EXPECT_TRUE(
      victim->Execute("UPDATE ATOM Emp 2 SET salary=60 VALID FROM 30").ok());
  EXPECT_EQ(Rows(victim.get(),
                 "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 60 "
                 "VALID AT 35"),
            1u);
}

TEST_P(FaultInjectionTest, FailedGroupFsyncLeavesTransactionUnapplied) {
  // The transaction side of the fsync contract: a commit is applied only
  // after its group fsync succeeded. When that fsync fails, read-only
  // mode serves the acknowledged history alone, and neither TryRecover's
  // checkpoint nor a reopen makes the failed commit durable.
  FaultInjectingIoEnv victim_env;
  FaultInjectingIoEnv replica_env;
  auto victim = Populate(&victim_env);
  ASSERT_NE(victim, nullptr);
  auto replica_opened =
      Database::Open(dir_.path() + "/replica", Options(&replica_env));
  ASSERT_TRUE(replica_opened.ok()) << replica_opened.status().ToString();
  std::unique_ptr<Database> replica = std::move(replica_opened.value());
  ASSERT_TRUE(replica->OpenSession().ExecuteScript(kSetup).ok());

  {
    Session session = victim->OpenSession();
    ASSERT_TRUE(session.Execute("BEGIN").ok());
    ASSERT_TRUE(
        session.Execute("UPDATE ATOM Emp 2 SET salary=99 VALID FROM 20").ok());
    victim_env.FailSyncAt(victim_env.syncs() + 1);
    auto failed = session.Execute("COMMIT");
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  }
  EXPECT_STREQ(HealthStateName(victim->health_state()), "read-only");

  // The nine queries of DegradedReadOnlyModeServesReadsAndRecovers: the
  // victim must match the replica, which never saw the transaction.
  const char* const kBattery[] = {
      "SELECT ALL FROM DeptMol VALID AT 15",
      "SELECT Emp.name FROM DeptMol VALID AT 15",
      "SELECT ALL FROM DeptMol VALID IN [10, 30)",
      "SELECT Emp.salary FROM DeptMol HISTORY",
      "SELECT COUNT(*) FROM DeptMol VALID AT 15",
      "SELECT COUNT(*), AVG(Emp.salary) FROM DeptMol GROUP BY ROOT "
      "VALID AT 15",
      "SELECT Emp.name FROM DeptMol WHERE Emp.salary > 5 VALID AT 15",
      "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 10 VALID AT 15",
      "SELECT ALL FROM DeptMol HISTORY",
  };
  for (const char* q : kBattery) {
    auto got = victim->Execute(q);
    auto want = replica->Execute(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    EXPECT_EQ(Render(got.value()), Render(want.value())) << q;
  }

  const std::string salary_99 =
      "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 99 VALID AT 25";
  EXPECT_EQ(Rows(victim.get(), salary_99), 0u);
  Status recovered = victim->TryRecover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(Rows(victim.get(), salary_99), 0u);
  victim.reset();
  auto reopened = Database::Open(db_dir(), Options(&victim_env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Rows(reopened.value().get(), salary_99), 0u);
}

TEST_P(FaultInjectionTest, ApplyFailureAfterLoggingEntersFailedMode) {
  // A read error *during apply*, after the record is durably in the WAL,
  // means the in-memory image no longer matches what recovery will
  // build: the instance must refuse all service (kFailed) and refuse
  // in-place recovery; a fresh open of the directory is the way back.
  FaultInjectingIoEnv env;
  {
    auto db = Populate(&env);
    ASSERT_NE(db, nullptr);
    // The index gives the DELETE's apply a read no validation makes.
    ASSERT_TRUE(db->Execute("CREATE INDEX EmpSalary ON Emp (salary)").ok());
    // Clean close checkpoints, so the reopen below starts cold.
  }
  auto reopened = Database::Open(db_dir(), Options(&env));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Database> db = std::move(reopened.value());

  // A DELETE reads Emp 2's tail to validate it before anything is
  // logged. A refused DELETE makes that same read, so afterwards the
  // tail's pages are cached, and the next disk read is one the apply
  // makes after the record is logged (at the latest, the cold index's).
  const uint64_t appended = db->wal()->appended_records();
  auto refused = db->Execute("DELETE ATOM Emp 2 VALID FROM 5");
  ASSERT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
  ASSERT_EQ(db->wal()->appended_records(), appended);
  env.FailReadAt(env.reads() + 1);
  auto failed = db->Execute("DELETE ATOM Emp 2 VALID FROM 20");
  ASSERT_FALSE(failed.ok());
  ASSERT_EQ(db->health_state(), HealthState::kFailed)
      << failed.status().ToString();
  EXPECT_STREQ(HealthStateName(db->health_state()), "failed");

  // kFailed refuses reads and writes with the preserved cause, and
  // refuses in-place recovery even though the environment works again.
  auto read = db->Execute("SELECT ALL FROM DeptMol VALID AT 15");
  EXPECT_FALSE(read.ok());
  auto write = db->Execute("UPDATE ATOM Emp 2 SET salary=1 VALID FROM 21");
  EXPECT_FALSE(write.ok());
  Status recover = db->TryRecover();
  ASSERT_FALSE(recover.ok());
  EXPECT_EQ(db->health_state(), HealthState::kFailed);
  db.reset();

  // A fresh open replays the durable WAL — including the delete whose
  // apply failed — and serves normally.
  auto fresh = Database::Open(db_dir(), Options(&env));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value()->health_state(), HealthState::kHealthy);
  EXPECT_TRUE(fresh.value()->VerifyIntegrity().ok());
  // The delete replayed: Emp 2 is gone at t=25.
  EXPECT_EQ(Rows(fresh.value().get(),
                 "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 10 "
                 "VALID AT 25"),
            0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FaultInjectionTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
