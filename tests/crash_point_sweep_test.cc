// Deterministic crash-point sweep — the exhaustive recovery torture
// test. A scripted auto-commit workload (each statement consumes exactly
// one WAL op_seq) runs against a FaultInjectingIoEnv; a simulated power
// cut is placed after EVERY write/truncate/sync event the workload
// performs, the victim is abandoned, the env revived, and the database
// reopened. Recovery must land on an exact logical prefix of the
// workload: the reopened state equals the oracle state after
// applied_op_seq() operations, every acknowledged (synced) statement is
// still present, and VerifyIntegrity holds.
//
// Two durability models are swept:
//  - kDropUnsynced (pessimistic POSIX): everything unsynced vanishes.
//    Strict prefix-consistency is required at every cut point.
//  - kKeepAllTearLast (disk-cache keeps all, last write torn at sector
//    granularity): a torn data page cannot be repaired by a logical WAL,
//    so detected Status::Corruption is also an acceptable outcome —
//    silent wrong answers and crashes are not.
//
// Across 3 strategies x 2 modes x ~100+ events each, the sweep covers
// well over the 200 distinct cut points the robustness plan calls for,
// including cuts inside the two mid-workload checkpoints (page flushes,
// catalog/meta atomic rewrites, WAL truncation).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "db/database.h"
#include "storage/fault_env.h"

namespace tcob {
namespace {

constexpr char kSetup[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
  CREATE INDEX EmpSalary ON Emp (salary);
)";

/// The swept workload. Auto-commit statements only: each consumes
/// exactly one op_seq, so after recovery applied_op_seq() == the length
/// of the logical prefix that survived. Atom ids are deterministic
/// (allocation starts at 1): Dept=1, Emps=2,3,4 then 5 and 6.
const std::vector<std::string>& WorkloadOps() {
  static const std::vector<std::string> ops = {
      "INSERT ATOM Dept (name='eng', budget=100) VALID FROM 10",
      "INSERT ATOM Emp (name='e0', salary=100) VALID FROM 10",
      "INSERT ATOM Emp (name='e1', salary=110) VALID FROM 10",
      "INSERT ATOM Emp (name='e2', salary=120) VALID FROM 10",
      "CONNECT DeptEmp FROM 1 TO 2 VALID FROM 11",
      "CONNECT DeptEmp FROM 1 TO 3 VALID FROM 11",
      "CONNECT DeptEmp FROM 1 TO 4 VALID FROM 11",
      "UPDATE ATOM Emp 2 SET salary=200 VALID FROM 20",
      "UPDATE ATOM Emp 3 SET salary=210 VALID FROM 21",
      "UPDATE ATOM Dept 1 SET budget=150 VALID FROM 22",
      "INSERT ATOM Emp (name='e3', salary=130) VALID FROM 23",
      "CONNECT DeptEmp FROM 1 TO 5 VALID FROM 23",
      "UPDATE ATOM Emp 4 SET salary=220 VALID FROM 24",
      "DELETE ATOM Emp 3 VALID FROM 30",
      "DISCONNECT DeptEmp FROM 1 TO 3 VALID FROM 30",
      "UPDATE ATOM Emp 2 SET salary=230 VALID FROM 31",
      "UPDATE ATOM Emp 5 SET salary=240 VALID FROM 32",
      "INSERT ATOM Emp (name='e4', salary=140) VALID FROM 33",
      "CONNECT DeptEmp FROM 1 TO 6 VALID FROM 33",
      "UPDATE ATOM Dept 1 SET budget=175 VALID FROM 34",
      "UPDATE ATOM Emp 6 SET salary=250 VALID FROM 40",
      "UPDATE ATOM Emp 2 SET salary=260 VALID FROM 41",
      "DELETE ATOM Emp 4 VALID FROM 42",
      "UPDATE ATOM Emp 5 SET salary=270 VALID FROM 43",
  };
  return ops;
}

/// Checkpoints run after these (0-based) op indexes, so the sweep places
/// cut points inside checkpoint I/O: page flushes and syncs, the
/// catalog and meta atomic rewrites, and the WAL truncation.
bool CheckpointAfter(size_t op_index) {
  return op_index == 8 || op_index == 16;
}

class CrashPointSweepTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  void SetUp() override {
    saved_level_ = GetLogLevel();
    // Thousands of induced crashes log their (expected) errors; mute.
    SetLogLevel(LogLevel::kSilent);
  }
  void TearDown() override { SetLogLevel(saved_level_); }

  DatabaseOptions Options(IoEnv* env) const {
    DatabaseOptions options;
    options.strategy = GetParam();
    options.buffer_pool_pages = 8;  // tiny pool: dirty evictions mid-op
    options.sync_wal = true;        // acknowledged == durable
    options.parallelism = 1;
    options.env = env;
    return options;
  }

  static void RunSetup(Database* db) {
    auto r = db->OpenSession().ExecuteScript(kSetup);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  /// Runs the workload until the first failure (the cut). On return
  /// `*acked` counts statements that were acknowledged (WAL synced and
  /// applied) and `*aborted` says whether anything failed — in which
  /// case at most one unacknowledged statement may still have reached
  /// the durable WAL.
  static void RunWorkload(Database* db, size_t* acked, bool* aborted) {
    *acked = 0;
    *aborted = false;
    const std::vector<std::string>& ops = WorkloadOps();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!db->Execute(ops[i]).ok()) {
        *aborted = true;
        return;
      }
      ++*acked;
      if (CheckpointAfter(i) && !db->Checkpoint().ok()) {
        *aborted = true;
        return;
      }
    }
  }

  /// The logical state, as strings, through every storage structure:
  /// molecule materialization (stores + links), history, and the
  /// salary attribute index. Timestamps are explicit so the snapshot is
  /// independent of the recovered clock.
  static std::multiset<std::string> Snapshot(Database* db) {
    std::multiset<std::string> out;
    for (const char* q :
         {"SELECT ALL FROM DeptMol VALID AT 15",
          "SELECT ALL FROM DeptMol VALID AT 35",
          "SELECT Emp.name, Emp.salary FROM DeptMol HISTORY",
          "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 210 VALID AT 25"}) {
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

  /// oracle[m] = the expected snapshot after the first m workload ops,
  /// built by replaying the ops one at a time in a pristine env.
  void BuildOracle(std::vector<std::multiset<std::string>>* oracle) {
    FaultInjectingIoEnv env;
    auto db = Database::Open("db", Options(&env));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunSetup(db->get());
    oracle->push_back(Snapshot(db->get()));
    for (const std::string& op : WorkloadOps()) {
      auto r = (*db)->Execute(op);
      ASSERT_TRUE(r.ok()) << op << ": " << r.status().ToString();
      oracle->push_back(Snapshot(db->get()));
    }
  }

  /// Dry run (no faults) to learn the event schedule: how many I/O
  /// events setup consumes and how many the workload adds. Both are
  /// deterministic, so event counts index identical cut points across
  /// runs.
  void CountEvents(uint64_t* setup_events, uint64_t* workload_events) {
    FaultInjectingIoEnv env;
    auto db = Database::Open("db", Options(&env));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunSetup(db->get());
    *setup_events = env.events();
    size_t acked = 0;
    bool aborted = false;
    RunWorkload(db->get(), &acked, &aborted);
    ASSERT_FALSE(aborted);
    ASSERT_EQ(acked, WorkloadOps().size());
    *workload_events = env.events() - *setup_events;
  }

  /// One sweep iteration: cut at workload event k, crash, revive,
  /// reopen. Returns the reopened database (null if open failed, which
  /// the caller judges by mode) plus the ack accounting.
  struct CutOutcome {
    // Placeholder error until CutAt assigns the real reopen result;
    // Result refuses construction from an OK status.
    Result<std::unique_ptr<Database>> reopened =
        Status::Internal("not reopened yet");
    size_t acked = 0;
    bool aborted = false;
  };

  void CutAt(FaultInjectingIoEnv* env, uint64_t setup_events, uint64_t k,
             CutMode mode, CutOutcome* out) {
    Database* victim = nullptr;
    {
      auto db = Database::Open("db", Options(env));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      victim = db->release();
    }
    RunSetup(victim);
    ASSERT_EQ(env->events(), setup_events) << "setup is not deterministic";
    env->PowerCutAfterEvents(setup_events + k, mode);
    RunWorkload(victim, &out->acked, &out->aborted);
    ASSERT_TRUE(env->cut_fired());
    // The victim is deliberately leaked: a destructor would try to write
    // post-crash state. Revive only after it can no longer do I/O.
    env->Revive();
    out->reopened = Database::Open("db", Options(env));
  }

  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_P(CrashPointSweepTest, PowerCutAtEveryEventRecoversToAnExactPrefix) {
  std::vector<std::multiset<std::string>> oracle;
  ASSERT_NO_FATAL_FAILURE(BuildOracle(&oracle));
  uint64_t setup_events = 0, workload_events = 0;
  ASSERT_NO_FATAL_FAILURE(CountEvents(&setup_events, &workload_events));
  ASSERT_GE(workload_events, 60u);

  for (uint64_t k = 1; k <= workload_events; ++k) {
    SCOPED_TRACE("power cut at workload event " + std::to_string(k));
    FaultInjectingIoEnv env;
    CutOutcome out;
    ASSERT_NO_FATAL_FAILURE(
        CutAt(&env, setup_events, k, CutMode::kDropUnsynced, &out));

    // Unsynced bytes are gone, but everything synced survived: the
    // database MUST reopen and land on an exact prefix.
    ASSERT_TRUE(out.reopened.ok()) << out.reopened.status().ToString();
    Database* db = out.reopened->get();
    const uint64_t m = db->applied_op_seq();
    // Every acknowledged statement was WAL-synced, so it survives; at
    // most one in-flight statement may additionally have reached the
    // durable WAL before its apply step was cut.
    ASSERT_GE(m, out.acked);
    ASSERT_LE(m, out.acked + (out.aborted ? 1 : 0));
    Status verdict = db->VerifyIntegrity();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(Snapshot(db), oracle[m]) << "state is not the prefix of "
                                       << m << " operations";
  }
}

TEST_P(CrashPointSweepTest, TornPowerCutNeverYieldsWrongAnswersOrCrashes) {
  std::vector<std::multiset<std::string>> oracle;
  ASSERT_NO_FATAL_FAILURE(BuildOracle(&oracle));
  uint64_t setup_events = 0, workload_events = 0;
  ASSERT_NO_FATAL_FAILURE(CountEvents(&setup_events, &workload_events));

  uint64_t prefix_exact = 0, detected = 0;
  for (uint64_t k = 1; k <= workload_events; ++k) {
    SCOPED_TRACE("torn power cut at workload event " + std::to_string(k));
    FaultInjectingIoEnv env;
    CutOutcome out;
    ASSERT_NO_FATAL_FAILURE(
        CutAt(&env, setup_events, k, CutMode::kKeepAllTearLast, &out));

    // A torn data page is not repairable by a logical WAL, so a clean
    // Status::Corruption (from Open or VerifyIntegrity) is acceptable;
    // an undetected deviation from the oracle prefix is not.
    if (!out.reopened.ok()) {
      EXPECT_TRUE(out.reopened.status().IsCorruption())
          << out.reopened.status().ToString();
      ++detected;
      continue;
    }
    Database* db = out.reopened->get();
    Status verdict = db->VerifyIntegrity();
    if (!verdict.ok()) {
      EXPECT_TRUE(verdict.IsCorruption()) << verdict.ToString();
      ++detected;
      continue;
    }
    const uint64_t m = db->applied_op_seq();
    ASSERT_GE(m, out.acked);  // completed writes all survive a torn cut
    ASSERT_LE(m, out.acked + (out.aborted ? 1 : 0));
    EXPECT_EQ(Snapshot(db), oracle[m]) << "state is not the prefix of "
                                       << m << " operations";
    ++prefix_exact;
  }
  // Tearing only damages the single write the cut lands on; most cut
  // points (all syncs, truncates, and whole-sector-boundary tears) must
  // still recover to an exact prefix.
  EXPECT_GT(prefix_exact, workload_events / 2) << "detected=" << detected;
}

TEST_P(CrashPointSweepTest, PowerCutAtEveryEventInsideTierMigration) {
  // Cold-tier migration is a physical reorganization framed by two
  // checkpoints; a crash at ANY I/O event inside it must recover to a
  // state logically identical to before the migration started (the
  // post-migration state IS the pre-migration state — migration moves
  // bytes, not facts).
  auto tiered = [&](IoEnv* env) {
    DatabaseOptions options = Options(env);
    options.tiering.enabled = true;
    options.tiering.cold_age = 10;  // most of the workload history is cold
    options.tiering.segment_target_bytes = 1024;  // force several segments
    return options;
  };

  // Pristine run 1: the migration's event schedule. No queries here —
  // a read can evict dirty pages and perturb the write schedule the
  // sweep's cut points index into.
  uint64_t base_events = 0, migration_events = 0, expected_op_seq = 0;
  {
    FaultInjectingIoEnv env;
    auto db = Database::Open("db", tiered(&env));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunSetup(db->get());
    size_t acked = 0;
    bool aborted = false;
    RunWorkload(db->get(), &acked, &aborted);
    ASSERT_FALSE(aborted);
    expected_op_seq = (*db)->applied_op_seq();
    base_events = env.events();
    auto migrated = (*db)->TierMigrate();
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    ASSERT_GT(migrated.value(), 0u) << "workload produced no cold history";
    migration_events = env.events() - base_events;
  }
  ASSERT_GE(migration_events, 10u);

  // Pristine run 2: the oracle snapshot, taken before and after a
  // successful migration (which must not move the logical state).
  std::multiset<std::string> expected;
  {
    FaultInjectingIoEnv env;
    auto db = Database::Open("db", tiered(&env));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunSetup(db->get());
    size_t acked = 0;
    bool aborted = false;
    RunWorkload(db->get(), &acked, &aborted);
    ASSERT_FALSE(aborted);
    expected = Snapshot(db->get());
    auto migrated = (*db)->TierMigrate();
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    EXPECT_EQ(Snapshot(db->get()), expected)
        << "migration changed the logical state";
  }

  for (uint64_t k = 1; k <= migration_events; ++k) {
    SCOPED_TRACE("power cut at migration event " + std::to_string(k));
    FaultInjectingIoEnv env;
    Database* victim = nullptr;
    {
      auto db = Database::Open("db", tiered(&env));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      victim = db->release();
    }
    RunSetup(victim);
    size_t acked = 0;
    bool aborted = false;
    RunWorkload(victim, &acked, &aborted);
    ASSERT_FALSE(aborted);
    ASSERT_EQ(env.events(), base_events) << "replay is not deterministic";
    env.PowerCutAfterEvents(base_events + k, CutMode::kDropUnsynced);
    auto migrated = victim->TierMigrate();
    ASSERT_TRUE(env.cut_fired());
    // In kDropUnsynced the Nth event completes before the cut fires, so
    // at k == migration_events the migration may have fully succeeded.
    // Either outcome recovers to the same logical state — migration is
    // invisible — so the checks below don't branch on it.
    ASSERT_TRUE(!migrated.ok() || k == migration_events);
    // Victim deliberately leaked (see CutAt); revive once it is inert.
    env.Revive();
    auto reopened = Database::Open("db", tiered(&env));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    Database* db = reopened->get();
    EXPECT_EQ(db->applied_op_seq(), expected_op_seq);
    Status verdict = db->VerifyIntegrity();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(Snapshot(db), expected)
        << "history lost or duplicated by the interrupted migration";
  }
}

// ---- transactional sweep ----

/// A scripted mix of auto-commit statements, multi-statement
/// transactions (BEGIN; ... COMMIT; through the MQL session API, so the
/// sweep crosses the same code path a shell user does), and one
/// mid-script checkpoint. `seqs` is the op_seq budget a fully applied
/// step consumes (a committed txn of n ops consumes n + 1: its ops plus
/// the commit record).
struct TxnStep {
  std::vector<std::string> stmts;
  bool txn = false;
  bool checkpoint = false;
  uint64_t seqs = 0;
};

const std::vector<TxnStep>& TxnSteps() {
  static const std::vector<TxnStep> steps = {
      {{"INSERT ATOM Dept (name='eng', budget=100) VALID FROM 10"},
       false, false, 1},
      {{"INSERT ATOM Emp (name='e0', salary=100) VALID FROM 10",
        "INSERT ATOM Emp (name='e1', salary=110) VALID FROM 10",
        "CONNECT DeptEmp FROM 1 TO 2 VALID FROM 11",
        "CONNECT DeptEmp FROM 1 TO 3 VALID FROM 11"},
       true, false, 5},
      {{"UPDATE ATOM Emp 2 SET salary=200 VALID FROM 20"}, false, false, 1},
      {{"UPDATE ATOM Emp 3 SET salary=210 VALID FROM 21",
        "INSERT ATOM Emp (name='e2', salary=120) VALID FROM 22",
        "CONNECT DeptEmp FROM 1 TO 4 VALID FROM 22"},
       true, false, 4},
      {{}, false, true, 0},
      {{"DELETE ATOM Emp 3 VALID FROM 30",
        "DISCONNECT DeptEmp FROM 1 TO 3 VALID FROM 30"},
       true, false, 3},
      {{"UPDATE ATOM Dept 1 SET budget=150 VALID FROM 31"}, false, false, 1},
  };
  return steps;
}

/// op_seq watermark after the first `steps` fully applied steps.
uint64_t TxnBoundary(size_t steps) {
  uint64_t seq = 0;
  for (size_t i = 0; i < steps && i < TxnSteps().size(); ++i) {
    seq += TxnSteps()[i].seqs;
  }
  return seq;
}

/// Runs the transactional script until the first failure. `*completed`
/// counts fully acknowledged steps (a txn counts only once COMMIT; was
/// acknowledged).
void RunTxnSteps(Database* db, size_t* completed, bool* aborted) {
  *completed = 0;
  *aborted = false;
  Session session = db->OpenSession();
  for (const TxnStep& step : TxnSteps()) {
    if (step.checkpoint) {
      if (!db->Checkpoint().ok()) {
        *aborted = true;
        return;
      }
    } else if (step.txn) {
      if (!session.Execute("BEGIN;").ok()) {
        *aborted = true;
        return;
      }
      for (const std::string& stmt : step.stmts) {
        if (!session.Execute(stmt).ok()) {
          *aborted = true;
          return;
        }
      }
      if (!session.Execute("COMMIT;").ok()) {
        *aborted = true;
        return;
      }
    } else {
      if (!session.Execute(step.stmts[0]).ok()) {
        *aborted = true;
        return;
      }
    }
    ++*completed;
  }
}

TEST_P(CrashPointSweepTest, PowerCutAtEveryEventInsideGroupedTxnCommits) {
  // Oracle: the logical state at every transaction boundary, keyed by
  // the op_seq watermark a recovery landing there must report. The
  // checkpoint step shares its predecessor's watermark (it consumes no
  // op_seq and must not change the logical state).
  std::map<uint64_t, std::multiset<std::string>> oracle;
  uint64_t setup_events = 0, script_events = 0;
  {
    // Event-budget run: the exact script RunTxnSteps replays in each
    // victim, with nothing else interleaved. (Snapshot() below issues
    // queries that do their own I/O; counting those would schedule cut
    // points past the last event a victim run ever reaches.)
    FaultInjectingIoEnv env;
    auto db = Database::Open("db", Options(&env));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunSetup(db->get());
    setup_events = env.events();
    size_t completed = 0;
    bool aborted = false;
    RunTxnSteps(db->get(), &completed, &aborted);
    ASSERT_FALSE(aborted);
    ASSERT_EQ(completed, TxnSteps().size());
    script_events = env.events() - setup_events;
  }
  {
    // Oracle run: same script against a fresh store, capturing the
    // logical state at every transaction boundary.
    FaultInjectingIoEnv env;
    auto db = Database::Open("db", Options(&env));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunSetup(db->get());
    oracle[0] = Snapshot(db->get());
    Session session = (*db)->OpenSession();
    for (size_t i = 0; i < TxnSteps().size(); ++i) {
      const TxnStep& step = TxnSteps()[i];
      if (step.checkpoint) {
        ASSERT_TRUE((*db)->Checkpoint().ok());
      } else if (step.txn) {
        ASSERT_TRUE(session.Execute("BEGIN;").ok());
        for (const std::string& stmt : step.stmts) {
          auto r = session.Execute(stmt);
          ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
        }
        ASSERT_TRUE(session.Execute("COMMIT;").ok());
      } else {
        ASSERT_TRUE(session.Execute(step.stmts[0]).ok());
      }
      ASSERT_EQ((*db)->applied_op_seq(), TxnBoundary(i + 1))
          << "step " << i << " consumed an unexpected op_seq budget";
      oracle[TxnBoundary(i + 1)] = Snapshot(db->get());
    }
  }
  ASSERT_GE(script_events, 20u);

  for (uint64_t k = 1; k <= script_events; ++k) {
    SCOPED_TRACE("power cut at txn-script event " + std::to_string(k));
    FaultInjectingIoEnv env;
    Database* victim = nullptr;
    {
      auto db = Database::Open("db", Options(&env));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      victim = db->release();
    }
    RunSetup(victim);
    ASSERT_EQ(env.events(), setup_events) << "setup is not deterministic";
    env.PowerCutAfterEvents(setup_events + k, CutMode::kDropUnsynced);
    size_t completed = 0;
    bool aborted = false;
    RunTxnSteps(victim, &completed, &aborted);
    ASSERT_TRUE(env.cut_fired());
    env.Revive();  // victim deliberately leaked (see CutAt)
    auto reopened = Database::Open("db", Options(&env));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    Database* db = reopened->get();

    // Per-transaction atomicity: recovery may land on the boundary
    // after the last acknowledged step, or one step further (an
    // in-flight commit whose WAL records all reached durability before
    // the cut) — never in between. A watermark strictly inside a
    // transaction's op_seq range would mean a half-applied txn.
    const uint64_t m = db->applied_op_seq();
    const uint64_t at_acked = TxnBoundary(completed);
    const uint64_t next = TxnBoundary(completed + 1);
    ASSERT_TRUE(m == at_acked || (aborted && m == next))
        << "recovered watermark " << m << " is not a transaction boundary "
        << "(acked " << at_acked << ", in-flight end " << next << ")";
    ASSERT_EQ(oracle.count(m), 1u);
    Status verdict = db->VerifyIntegrity();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(Snapshot(db), oracle[m])
        << "state is not the boundary at op_seq " << m;
  }
}

// Regression for orphaned-transaction WAL hygiene. A power cut between
// a transaction's op records and its commit record leaves orphan ops in
// the durable log. Recovery discards them — but they must also be
// *scrubbed* (post-recovery cleanup checkpoint truncates the WAL), or
// a later run would append fresh records, with recycled txn ids and
// op_seqs, after the remnants: a second crash would then replay the
// orphan ops as committed. The sweep cuts at every I/O event inside a
// BEGIN..COMMIT script, and for every iteration that produced orphans
// verifies the scrub plus a write-then-recover round trip.
TEST_P(CrashPointSweepTest, OrphanedTxnRemnantsAreScrubbedAtRecovery) {
  auto RunTxnScript = [](Database* db, bool* aborted) {
    *aborted = false;
    Session session = db->OpenSession();
    for (const char* stmt :
         {"BEGIN;",
          "INSERT ATOM Emp (name='t0', salary=100) VALID FROM 10",
          "INSERT ATOM Emp (name='t1', salary=110) VALID FROM 10",
          "COMMIT;"}) {
      if (!session.Execute(stmt).ok()) {
        *aborted = true;
        return;
      }
    }
  };
  auto CountEmpsAt10 = [](Database* db) {
    auto type = db->catalog().GetAtomTypeByName("Emp");
    EXPECT_TRUE(type.ok());
    size_t n = 0;
    Status s = db->store()->ScanAsOf(*type.value(), 10,
                                     [&](const AtomVersion&) -> Result<bool> {
                                       ++n;
                                       return true;
                                     });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return n;
  };

  uint64_t setup_events = 0, script_events = 0;
  {
    FaultInjectingIoEnv env;
    auto db = Database::Open("db", Options(&env));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunSetup(db->get());
    setup_events = env.events();
    bool aborted = false;
    RunTxnScript(db->get(), &aborted);
    ASSERT_FALSE(aborted);
    script_events = env.events() - setup_events;
  }
  ASSERT_GE(script_events, 3u);

  size_t orphan_iterations = 0;
  for (uint64_t k = 1; k <= script_events; ++k) {
    SCOPED_TRACE("power cut at txn event " + std::to_string(k));
    FaultInjectingIoEnv env;
    Database* victim = nullptr;
    {
      auto db = Database::Open("db", Options(&env));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      victim = db->release();
    }
    RunSetup(victim);
    ASSERT_EQ(env.events(), setup_events) << "setup is not deterministic";
    // Keep everything ever written (tearing only the final write): the
    // harshest mode for remnants, since nothing conveniently vanishes.
    env.PowerCutAfterEvents(setup_events + k, CutMode::kKeepAllTearLast);
    bool aborted = false;
    RunTxnScript(victim, &aborted);
    ASSERT_TRUE(env.cut_fired());
    env.Revive();  // victim deliberately leaked (see CutAt)

    auto reopened = Database::Open("db", Options(&env));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    Database* db = reopened->get();
    const RecoveryStats& stats = db->recovery_stats();
    if (stats.discarded_txn_ops == 0 && stats.wal_dropped_tail_bytes == 0) {
      continue;  // this cut point left no remnants; nothing to scrub
    }
    ++orphan_iterations;
    // The cleanup checkpoint must have emptied the log: remnants may
    // not linger beneath records a future run will append.
    auto wal_size = db->wal()->SizeBytes();
    ASSERT_TRUE(wal_size.ok()) << wal_size.status().ToString();
    EXPECT_EQ(wal_size.value(), 0u)
        << "WAL still holds bytes after discarding "
        << stats.discarded_txn_ops << " orphan ops";
    // Round trip through the danger zone: commit a fresh transaction
    // (its txn id and op_seqs would have collided with the orphan's
    // under the old scheme), crash again with *no* shutdown checkpoint,
    // and recover. The once-orphaned ops must not resurrect.
    const size_t before = CountEmpsAt10(db);
    bool aborted2 = false;
    RunTxnScript(db, &aborted2);
    ASSERT_FALSE(aborted2);
    const size_t expect_emps = CountEmpsAt10(db);
    EXPECT_EQ(expect_emps, before + 2);
    const std::multiset<std::string> expect_snapshot = Snapshot(db);
    const uint64_t m = db->applied_op_seq();
    reopened->release();  // leaked: recovery must work from the WAL alone

    auto recovered = Database::Open("db", Options(&env));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->applied_op_seq(), m);
    EXPECT_EQ((*recovered)->recovery_stats().discarded_txn_ops, 0u);
    EXPECT_EQ(CountEmpsAt10(recovered->get()), expect_emps)
        << "orphaned inserts resurrected after the re-crash";
    Status verdict = (*recovered)->VerifyIntegrity();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(Snapshot(recovered->get()), expect_snapshot);
  }
  // The sweep is only meaningful if some cut actually stranded a
  // transaction's ops without its commit record.
  EXPECT_GE(orphan_iterations, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, CrashPointSweepTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
