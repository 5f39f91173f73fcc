// Snapshot-isolation MVCC semantics: snapshot-pinned reads, write-write
// conflict detection (first-committer-wins), session transactions over
// MQL, and group-commit fsync batching. The commit-storm test doubles
// as the TSan target for the whole transaction path.

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "db/database.h"
#include "db/transaction.h"

namespace tcob {
namespace {

class MvccTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.strategy = GetParam();
    auto db = Database::Open(dir_.path() + "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    session_.emplace(db_->OpenSession());
    ASSERT_TRUE(db_->CreateAtomType("Dept", {{"name", AttrType::kString},
                                             {"budget", AttrType::kInt}})
                    .ok());
    ASSERT_TRUE(db_->CreateAtomType("Emp", {{"name", AttrType::kString},
                                            {"salary", AttrType::kInt}})
                    .ok());
    ASSERT_TRUE(db_->CreateLinkType("DeptEmp", "Dept", "Emp").ok());
    ASSERT_TRUE(
        db_->CreateMoleculeType("DeptMol", "Dept", {{"DeptEmp", true}}).ok());
  }

  /// One connected Dept -> Emp pair at valid time 10; returns the Emp.
  AtomId SeedMolecule() {
    AtomId dept = db_->InsertAtom("Dept",
                                  {{"name", Value::String("R&D")},
                                   {"budget", Value::Int(500)}},
                                  10)
                      .value();
    AtomId emp = db_->InsertAtom("Emp",
                                 {{"name", Value::String("ada")},
                                  {"salary", Value::Int(100)}},
                                 10)
                     .value();
    EXPECT_TRUE(db_->Connect("DeptEmp", dept, emp, 10).ok());
    return emp;
  }

  /// Rows `mql` returns in the fixture's session (inside its
  /// transaction, if one is open).
  size_t CountRows(const std::string& mql) {
    auto r = session_->Execute(mql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().RowCount() : 0;
  }

  size_t CountAtomsAt(const std::string& type_name, Timestamp t) {
    auto type = db_->catalog().GetAtomTypeByName(type_name);
    EXPECT_TRUE(type.ok());
    size_t n = 0;
    Status s = db_->store()->ScanAsOf(
        *type.value(), t, [&](const AtomVersion&) -> Result<bool> {
          ++n;
          return true;
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return n;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::optional<Session> session_;
};

// A session transaction's reads are pinned to its snapshot: a commit
// that lands after BEGIN is invisible until the session closes.
TEST_P(MvccTest, SnapshotReadStableAcrossConcurrentCommit) {
  AtomId emp = SeedMolecule();
  ASSERT_TRUE(session_->Execute("BEGIN;").ok());
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 100 "
                "VALID AT NOW"),
      1u);
  // A concurrent writer commits an update from another thread.
  std::thread writer([&] {
    Transaction txn = db_->Begin();
    ASSERT_TRUE(
        txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(200)}}, db_->Now())
            .ok());
    ASSERT_TRUE(txn.Commit().ok());
  });
  writer.join();
  // Same query, same answer: the update happened after our snapshot.
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 100 "
                "VALID AT NOW"),
      1u);
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 200 "
                "VALID AT NOW"),
      0u);
  ASSERT_TRUE(session_->Execute("COMMIT;").ok());
  // Outside the transaction the committed update is visible.
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 200 "
                "VALID AT NOW"),
      1u);
}

// An explicit VALID AT later than the snapshot clamps back to it: time
// does not advance inside a transaction, even on request.
TEST_P(MvccTest, AsOfInsideTxnPinsToSnapshot) {
  AtomId emp = SeedMolecule();
  ASSERT_TRUE(session_->Execute("BEGIN;").ok());
  {
    Transaction txn = db_->Begin();
    ASSERT_TRUE(
        txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(200)}}, db_->Now())
            .ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // 1000 is far beyond the concurrent update's begin, but inside the
  // session it is clamped to the snapshot instant.
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 200 "
                "VALID AT 1000"),
      0u);
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 100 "
                "VALID AT 1000"),
      1u);
  ASSERT_TRUE(session_->Execute("ABORT;").ok());
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 200 "
                "VALID AT 1000"),
      1u);
}

// First-committer-wins: of two overlapping writers, exactly one commits
// and the other aborts with TxnConflict.
TEST_P(MvccTest, WriteWriteConflictHasExactlyOneWinner) {
  AtomId emp = SeedMolecule();
  Transaction t1 = db_->Begin();
  Transaction t2 = db_->Begin();
  ASSERT_TRUE(
      t1.UpdateAtom("Emp", emp, {{"salary", Value::Int(200)}}, 20).ok());
  ASSERT_TRUE(
      t2.UpdateAtom("Emp", emp, {{"salary", Value::Int(300)}}, 20).ok());
  Status first = t1.Commit();
  Status second = t2.Commit();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.IsTxnConflict()) << second.ToString();
  EXPECT_EQ(db_->MetricsSnapshot().CounterOr("tcob_txn_conflicts_total", 0), 1u);
  // The winner's version is the one in history; the loser left nothing.
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 200 "
                "HISTORY"),
      1u);
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 300 "
                "HISTORY"),
      0u);
}

// Disjoint write sets do not conflict, in either commit order.
TEST_P(MvccTest, DisjointWritersBothCommit) {
  AtomId emp = SeedMolecule();
  AtomId emp2 = db_->InsertAtom("Emp",
                                {{"name", Value::String("bob")},
                                 {"salary", Value::Int(50)}},
                                10)
                    .value();
  Transaction t1 = db_->Begin();
  Transaction t2 = db_->Begin();
  ASSERT_TRUE(
      t1.UpdateAtom("Emp", emp, {{"salary", Value::Int(200)}}, 20).ok());
  ASSERT_TRUE(
      t2.UpdateAtom("Emp", emp2, {{"salary", Value::Int(60)}}, 20).ok());
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().ok());
  EXPECT_EQ(db_->MetricsSnapshot().CounterOr("tcob_txn_conflicts_total", 0), 0u);
}

// An auto-commit statement is a single-op committed transaction for
// conflict purposes: an open transaction that wrote the same atom must
// lose at its own commit.
TEST_P(MvccTest, AutoCommitStatementWinsAgainstOpenTxn) {
  AtomId emp = SeedMolecule();
  Transaction txn = db_->Begin();
  ASSERT_TRUE(
      txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(200)}}, 20).ok());
  ASSERT_TRUE(
      db_->UpdateAtom("Emp", emp, {{"salary", Value::Int(999)}}, 20).ok());
  EXPECT_TRUE(txn.Commit().IsTxnConflict());
}

// Aborting a transaction leaves no trace in the data: the WAL never
// saw it, no store holds a version from it, and the full history is
// unchanged — even across a reopen. (The one permitted residue is the
// burned surrogate id: allocation is not transactional, and a clean
// shutdown checkpoints the advanced watermark — same model as sequence
// objects in conventional engines.)
TEST_P(MvccTest, AbortLeavesNoTraceInDump) {
  AtomId emp = SeedMolecule();
  const uint64_t wal_before = db_->wal()->appended_records();
  {
    Transaction txn = db_->Begin();
    ASSERT_TRUE(txn.InsertAtom("Emp",
                               {{"name", Value::String("ghost")},
                                {"salary", Value::Int(1)}},
                               20)
                    .ok());
    ASSERT_TRUE(
        txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(777)}}, 20).ok());
    txn.Abort();
  }
  EXPECT_EQ(db_->wal()->appended_records(), wal_before);
  EXPECT_EQ(db_->ActiveTxns(), 0u);
  session_.reset();  // a session must not outlive its Database
  db_.reset();
  DatabaseOptions options;
  options.strategy = GetParam();
  auto reopened = Database::Open(dir_.path() + "/db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_ = std::move(reopened).value();
  session_.emplace(db_->OpenSession());
  // The ghost insert never existed at any instant; the buffered update
  // never became a version (salary history is the single seed value).
  EXPECT_EQ(CountAtomsAt("Emp", 25), 1u);
  EXPECT_EQ(CountRows("SELECT Emp.name FROM DeptMol HISTORY"), 1u);
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 777 "
                "HISTORY"),
      0u);
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 100 "
                "HISTORY"),
      1u);
}

// A write-free transaction commits without touching the WAL.
TEST_P(MvccTest, EmptyCommitIsFree) {
  const uint64_t wal_before = db_->wal()->appended_records();
  Transaction txn = db_->Begin();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(db_->wal()->appended_records(), wal_before);
  EXPECT_EQ(db_->MetricsSnapshot().CounterOr("tcob_txns_committed_total", 0), 1u);
}

// The MQL surface: BEGIN; buffers DML, ABORT; discards it, COMMIT;
// publishes it, and a second BEGIN; inside a transaction is refused.
TEST_P(MvccTest, SessionTxnOverMql) {
  SeedMolecule();
  ASSERT_TRUE(session_->Execute("BEGIN;").ok());
  EXPECT_TRUE(session_->Execute("BEGIN;").status().IsInvalidArgument());
  auto buffered = session_->Execute(
      "INSERT ATOM Emp (name='eve', salary=70) VALID FROM 20;");
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_NE(buffered.value().message.find("buffered"), std::string::npos);
  // Our own write is not publicly visible yet.
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 70 "
                "VALID AT 30"),
      0u);
  ASSERT_TRUE(session_->Execute("ABORT;").ok());
  EXPECT_EQ(CountRows("SELECT Emp.name FROM DeptMol HISTORY"), 1u);

  ASSERT_TRUE(session_->Execute("BEGIN;").ok());
  AtomId dept2;
  {
    auto r = session_->Execute(
        "INSERT ATOM Dept (name='Ops', budget=50) VALID FROM 20;");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dept2 = r.value().inserted_id;
  }
  auto r2 = session_->Execute("INSERT ATOM Emp (name='eve', salary=70) "
                              "VALID FROM 20;");
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(session_
                  ->Execute("CONNECT DeptEmp FROM " + std::to_string(dept2) +
                            " TO " + std::to_string(r2.value().inserted_id) +
                            " VALID FROM 20;")
                  .ok());
  ASSERT_TRUE(session_->Execute("COMMIT;").ok());
  EXPECT_EQ(
      CountRows("SELECT Emp.salary FROM DeptMol WHERE Emp.salary = 70 "
                "VALID AT 30"),
      1u);
  EXPECT_TRUE(session_->Execute("COMMIT;").status().IsInvalidArgument());
  EXPECT_TRUE(session_->Execute("ABORT;").status().IsInvalidArgument());
}

// Commits and aborts survive recovery: replay applies exactly the
// committed transactions and discards the rest.
TEST_P(MvccTest, RecoveryHonorsTxnBoundaries) {
  SeedMolecule();
  {
    Transaction committed = db_->Begin();
    ASSERT_TRUE(committed
                    .InsertAtom("Emp",
                                {{"name", Value::String("kept")},
                                 {"salary", Value::Int(1)}},
                                20)
                    .ok());
    ASSERT_TRUE(committed.Commit().ok());
    Transaction dropped = db_->Begin();
    ASSERT_TRUE(dropped
                    .InsertAtom("Emp",
                                {{"name", Value::String("lost")},
                                 {"salary", Value::Int(2)}},
                                20)
                    .ok());
    dropped.Abort();
  }
  DatabaseOptions options;
  options.strategy = GetParam();
  session_.reset();
  db_.reset();
  db_ = Database::Open(dir_.path() + "/db", options).value();
  // Seed emp + the committed insert; the aborted one never existed.
  EXPECT_EQ(CountAtomsAt("Emp", 30), 2u);
}

// Eight threads commit disjoint inserts concurrently; every commit must
// succeed, every atom must be present exactly once, and the write-set
// log must drain once the storm ends. This is the TSan workout for
// Begin/Commit/SyncBatch interleavings.
TEST_P(MvccTest, ConcurrentDisjointCommitStorm) {
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        Transaction txn = db_->Begin();
        auto id = txn.InsertAtom(
            "Emp",
            {{"name", Value::String(std::string("w")
                                        .append(std::to_string(t))
                                        .append("_")
                                        .append(std::to_string(i)))},
             {"salary", Value::Int(t * 100 + i)}},
            10);
        if (!id.ok() || !txn.Commit().ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto snap = db_->MetricsSnapshot();
  EXPECT_EQ(snap.CounterOr("tcob_txns_committed_total", 0),
            static_cast<uint64_t>(kThreads * kTxnsPerThread));
  EXPECT_EQ(snap.CounterOr("tcob_txn_conflicts_total", 0), 0u);
  EXPECT_EQ(db_->ActiveTxns(), 0u);
  EXPECT_EQ(CountAtomsAt("Emp", 10),
            static_cast<size_t>(kThreads * kTxnsPerThread));
}

// A transaction's VALID FROM NOW writes are stamped at *commit* time,
// under the writer mutex — never with a clock value captured while
// buffering. A snapshot pinned after the buffering but before the
// commit must therefore not see the commit, even when other writers
// pushed NOW far past the buffered provisional stamp.
TEST_P(MvccTest, NowCommitStaysInvisibleToPinnedSnapshot) {
  SeedMolecule();
  AtomId dept = db_->InsertAtom("Dept",
                                {{"name", Value::String("Ops")},
                                 {"budget", Value::Int(900)}},
                                10)
                    .value();
  // W buffers a NOW-relative insert plus connect; their provisional
  // stamps come from W's transaction-local clock.
  Transaction w = db_->Begin();
  auto grace = w.InsertAtom("Emp",
                            {{"name", Value::String("grace")},
                             {"salary", Value::Int(300)}},
                            /*from=*/kMinTimestamp, /*from_now=*/true);
  ASSERT_TRUE(grace.ok());
  ASSERT_TRUE(w.Connect("DeptEmp", dept, grace.value(),
                        /*at=*/kMinTimestamp, /*from_now=*/true)
                  .ok());
  // An auto-commit statement advances the database clock well past W's
  // provisional stamps.
  ASSERT_TRUE(db_->InsertAtom("Emp",
                              {{"name", Value::String("evie")},
                               {"salary", Value::Int(400)}},
                              db_->Now() + 50)
                  .ok());
  // A reader pins its snapshot *now* — before W commits.
  ASSERT_TRUE(session_->Execute("BEGIN;").ok());
  ASSERT_TRUE(w.Commit().ok());
  // The pinned snapshot must not see W's commit: had the provisional
  // (buffering-time) stamps been kept, the writes would land *inside*
  // the pinned snapshot and pop into view retroactively.
  EXPECT_EQ(CountRows("SELECT Emp.name FROM DeptMol WHERE Emp.salary = 300 "
                      "VALID AT NOW"),
            0u);
  ASSERT_TRUE(session_->Execute("ABORT;").ok());
  // Outside the transaction the commit is visible at the current NOW.
  EXPECT_EQ(CountRows("SELECT Emp.name FROM DeptMol WHERE Emp.salary = 300 "
                      "VALID AT NOW"),
            1u);
}

// Re-stamping NOW operations at commit can collide with *explicit*
// stamps buffered after them: if concurrent commits advanced NOW past
// an explicit stamp, honoring both would reorder the transaction's own
// writes to one entity. That must surface as a clean, retryable
// TxnConflict — not a post-durability apply failure that poisons the
// database.
TEST_P(MvccTest, NowThenExplicitReorderAbortsCleanly) {
  SeedMolecule();  // one Dept at t=10
  // W: NOW-insert a Dept, then explicitly update it at t=50.
  Transaction w = db_->Begin();
  auto id = w.InsertAtom("Dept",
                         {{"name", Value::String("Kay")},
                          {"budget", Value::Int(1)}},
                         /*from=*/kMinTimestamp, /*from_now=*/true);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(
      w.UpdateAtom("Dept", id.value(), {{"budget", Value::Int(2)}}, 50).ok());
  // A concurrent auto-commit pushes NOW past 50, so W's NOW-insert
  // would be re-stamped *after* its own explicit update at 50.
  ASSERT_TRUE(db_->InsertAtom("Emp",
                              {{"name", Value::String("lin")},
                               {"salary", Value::Int(9)}},
                              100)
                  .ok());
  Status commit = w.Commit();
  EXPECT_TRUE(commit.IsTxnConflict()) << commit.ToString();
  // The abort happened before anything reached the WAL: the database
  // stays healthy and the atom never existed.
  EXPECT_EQ(db_->health_state(), HealthState::kHealthy);
  EXPECT_EQ(CountAtomsAt("Dept", db_->Now()), 1u);
  // A retry against a fresh snapshot places both stamps in order (its
  // local clock starts past the conflicting auto-commit) and succeeds.
  Transaction retry = db_->Begin();
  auto rid = retry.InsertAtom("Dept",
                              {{"name", Value::String("Kay")},
                               {"budget", Value::Int(1)}},
                              /*from=*/kMinTimestamp, /*from_now=*/true);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(retry
                  .UpdateAtom("Dept", rid.value(),
                              {{"budget", Value::Int(2)}}, db_->Now() + 10)
                  .ok());
  EXPECT_TRUE(retry.Commit().ok());
  EXPECT_EQ(CountAtomsAt("Dept", db_->Now()), 2u);

  // The link case. L buffers a NOW-disconnect of an open pair, then an
  // explicit re-connect after it; a concurrent auto-commit pushes NOW
  // past the re-connect, so the re-stamped disconnect would land after
  // it.
  const Timestamp t = db_->Now();
  AtomId dept = db_->InsertAtom("Dept",
                                {{"name", Value::String("Ops")},
                                 {"budget", Value::Int(1)}},
                                t)
                    .value();
  AtomId emp = db_->InsertAtom("Emp",
                               {{"name", Value::String("max")},
                                {"salary", Value::Int(1)}},
                               t)
                   .value();
  ASSERT_TRUE(db_->Connect("DeptEmp", dept, emp, t).ok());
  Transaction l = db_->Begin();
  ASSERT_TRUE(l.Disconnect("DeptEmp", dept, emp, /*at=*/kMinTimestamp,
                           /*from_now=*/true)
                  .ok());
  const Timestamp reconnect = l.local_now() + 10;
  ASSERT_TRUE(l.Connect("DeptEmp", dept, emp, reconnect).ok());
  ASSERT_TRUE(db_->InsertAtom("Emp",
                              {{"name", Value::String("kim")},
                               {"salary", Value::Int(9)}},
                              reconnect + 50)
                  .ok());
  const uint64_t logged = db_->wal()->appended_records();
  Status link_commit = l.Commit();
  EXPECT_TRUE(link_commit.IsTxnConflict()) << link_commit.ToString();
  // Nothing was logged or applied: the pair keeps its one open interval.
  EXPECT_EQ(db_->wal()->appended_records(), logged);
  EXPECT_EQ(db_->health_state(), HealthState::kHealthy);
  const LinkTypeDef* link =
      db_->catalog().GetLinkTypeByName("DeptEmp").value();
  auto spans =
      db_->links()->NeighborsIn(*link, dept, /*forward=*/true, Interval::All());
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_EQ(spans.value().size(), 1u);
  EXPECT_EQ(spans.value()[0].second, Interval(t, kForever));
}

// Auto-commit UPDATE carries unchanged attributes over from the version
// it replaces. Two threads update disjoint attributes of one atom
// VALID FROM NOW; the carried-over read must see the other thread's
// latest write, or that write is lost in the next version.
TEST_P(MvccTest, ConcurrentAutoCommitUpdatesKeepUnchangedAttributes) {
  constexpr int kUpdates = 300;
  // Without sync_wal every statement commits alone; with it, statements
  // queue behind an in-flight group fsync, and the two writers' updates
  // of the one atom go to consecutive groups.
  for (bool sync_wal : {false, true}) {
    SCOPED_TRACE(sync_wal ? "sync_wal" : "no sync_wal");
    DatabaseOptions options;
    options.strategy = GetParam();
    options.sync_wal = sync_wal;
    auto opened = Database::Open(
        dir_.path() + (sync_wal ? "/synced" : "/unsynced"), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Database* db = opened.value().get();
    ASSERT_TRUE(db->CreateAtomType("Pair", {{"a", AttrType::kInt},
                                            {"b", AttrType::kInt}})
                    .ok());
    AtomId id = db->InsertAtom("Pair",
                               {{"a", Value::Int(0)}, {"b", Value::Int(0)}},
                               10)
                    .value();
    std::atomic<int> failures{0};
    auto writer = [&](const std::string& attr) {
      for (int i = 1; i <= kUpdates; ++i) {
        Status s = db->UpdateAtom("Pair", id, {{attr, Value::Int(i)}},
                                  db->Now(), /*from_now=*/true);
        if (!s.ok()) failures.fetch_add(1);
      }
    };
    std::thread ta(writer, "a"), tb(writer, "b");
    ta.join();
    tb.join();
    EXPECT_EQ(failures.load(), 0);
    const AtomTypeDef* type = db->catalog().GetAtomTypeByName("Pair").value();
    auto versions = db->store()->GetVersions(*type, id, Interval::All());
    ASSERT_TRUE(versions.ok()) << versions.status().ToString();
    ASSERT_EQ(versions.value().size(), static_cast<size_t>(2 * kUpdates + 1));
    int regressions = 0;
    for (size_t i = 1; i < versions.value().size(); ++i) {
      const auto& prev = versions.value()[i - 1].attrs;
      const auto& cur = versions.value()[i].attrs;
      if (cur[0].AsInt() < prev[0].AsInt() ||
          cur[1].AsInt() < prev[1].AsInt()) {
        ++regressions;
      }
    }
    EXPECT_EQ(regressions, 0);
    const auto& last = versions.value().back().attrs;
    EXPECT_EQ(last[0].AsInt(), kUpdates);
    EXPECT_EQ(last[1].AsInt(), kUpdates);
  }
}

// Vacuum keeps every version an open transaction's snapshot can see:
// the cutoff is held at the oldest open snapshot, so a buffered write
// still finds the version its snapshot read.
TEST_P(MvccTest, VacuumKeepsVersionsAnOpenSnapshotSees) {
  AtomId emp = SeedMolecule();
  Transaction txn = db_->Begin();
  ASSERT_TRUE(
      db_->UpdateAtom("Emp", emp, {{"salary", Value::Int(200)}}, 20).ok());
  auto held = db_->VacuumBefore(25);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held.value(), 0u);
  Status buffered =
      txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(300)}}, 30);
  EXPECT_TRUE(buffered.ok()) << buffered.ToString();
  // The auto-commit update after the snapshot still wins the conflict.
  EXPECT_TRUE(txn.Commit().IsTxnConflict());
  // With no transaction open the same vacuum removes the old version.
  auto removed = db_->VacuumBefore(25);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MvccTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

// ---- group commit ----

class GroupCommitTest : public ::testing::Test {
 protected:
  void Open(bool group_commit, uint64_t window_micros) {
    DatabaseOptions options;
    options.sync_wal = true;
    options.group_commit = group_commit;
    options.group_commit_window_micros = window_micros;
    auto db = Database::Open(dir_.path() + "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    ASSERT_TRUE(
        db_->CreateAtomType("Emp", {{"name", AttrType::kString},
                                    {"salary", AttrType::kInt}})
            .ok());
  }

  /// Two threads, each one single-insert transaction, released together.
  void RunTwoCommitters() {
    std::atomic<int> ready{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        Transaction txn = db_->Begin();
        auto id = txn.InsertAtom("Emp",
                                 {{"name", Value::String(t ? "b" : "a")},
                                  {"salary", Value::Int(t)}},
                                 10);
        if (!id.ok()) {
          failures.fetch_add(1);
          return;
        }
        ready.fetch_add(1);
        while (ready.load() < 2) std::this_thread::yield();
        if (!txn.Commit().ok()) failures.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
  }

  /// Two threads released together: one commits through `a`, the other
  /// through `b`.
  void RunTogether(const std::function<Status()>& a,
                   const std::function<Status()>& b) {
    std::atomic<int> ready{0};
    std::atomic<int> failures{0};
    auto run = [&](const std::function<Status()>& commit) {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      Status s = commit();
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok()) failures.fetch_add(1);
    };
    std::thread ta(run, a);
    std::thread tb(run, b);
    ta.join();
    tb.join();
    EXPECT_EQ(failures.load(), 0);
  }

  /// An auto-commit insert of one Emp named `name` at valid time 10.
  std::function<Status()> InsertStatement(const char* name) {
    return [this, name] {
      return db_->InsertAtom("Emp",
                             {{"name", Value::String(name)},
                              {"salary", Value::Int(1)}},
                             10)
          .status();
    };
  }

  /// Runs `commits`, which must share exactly one fsync: one group of
  /// two committers in the group-size histogram.
  void ExpectOneSharedFsync(const std::function<void()>& commits) {
    const uint64_t syncs_before = db_->wal()->syncs();
    auto hist_before =
        db_->MetricsSnapshot().histograms.at("tcob_wal_group_commit_size");
    commits();
    EXPECT_EQ(db_->wal()->syncs() - syncs_before, 1u);
    auto hist_after =
        db_->MetricsSnapshot().histograms.at("tcob_wal_group_commit_size");
    EXPECT_EQ(hist_after.count - hist_before.count, 1u);
    EXPECT_EQ(hist_after.sum - hist_before.sum, 2u);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

// The acceptance criterion: two threads committing disjoint writes
// produce exactly ONE WAL fsync for the group. The 200ms batching
// window guarantees the second committer joins the first one's group
// before its leader fsyncs.
TEST_F(GroupCommitTest, TwoCommittersShareOneFsync) {
  Open(/*group_commit=*/true, /*window_micros=*/200000);
  const uint64_t syncs_before = db_->wal()->syncs();
  auto hist_before =
      db_->MetricsSnapshot().histograms.at("tcob_wal_group_commit_size");
  RunTwoCommitters();
  EXPECT_EQ(db_->wal()->syncs() - syncs_before, 1u);
  auto hist_after =
      db_->MetricsSnapshot().histograms.at("tcob_wal_group_commit_size");
  // One group of size 2 was observed.
  EXPECT_EQ(hist_after.count - hist_before.count, 1u);
  EXPECT_EQ(hist_after.sum - hist_before.sum, 2u);
  EXPECT_EQ(db_->MetricsSnapshot().CounterOr("tcob_txns_committed_total", 0), 2u);
}

// Auto-commit statements take the same writer queue as transactions:
// two concurrent statements share one fsync.
TEST_F(GroupCommitTest, AutoCommitStatementsShareOneFsync) {
  Open(/*group_commit=*/true, /*window_micros=*/200000);
  ExpectOneSharedFsync(
      [&] { RunTogether(InsertStatement("a"), InsertStatement("b")); });
}

// A statement and a transaction share one fsync too. The statement
// queues first and leads; the transaction commits 50 ms later, inside
// the leader's 200 ms window.
TEST_F(GroupCommitTest, StatementAndTransactionShareOneFsync) {
  Open(/*group_commit=*/true, /*window_micros=*/200000);
  Transaction txn = db_->Begin();
  ASSERT_TRUE(txn.InsertAtom("Emp",
                             {{"name", Value::String("t")},
                              {"salary", Value::Int(2)}},
                             10)
                  .ok());
  ExpectOneSharedFsync([&] {
    RunTogether(InsertStatement("s"), [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return txn.Commit();
    });
  });
  EXPECT_EQ(db_->MetricsSnapshot().CounterOr("tcob_txns_committed_total", 0),
            1u);
}

// Ablation: with group commit off every committer pays its own fsync.
TEST_F(GroupCommitTest, DisabledMeansOneFsyncPerCommit) {
  Open(/*group_commit=*/false, /*window_micros=*/0);
  const uint64_t syncs_before = db_->wal()->syncs();
  const uint64_t hist_before =
      db_->MetricsSnapshot().histograms.at("tcob_wal_group_commit_size").count;
  RunTwoCommitters();
  EXPECT_EQ(db_->wal()->syncs() - syncs_before, 2u);
  // Plain Sync records no group sizes.
  EXPECT_EQ(
      db_->MetricsSnapshot().histograms.at("tcob_wal_group_commit_size").count,
      hist_before);
}

// Group-committed transactions are durable: reopen after a storm and
// every committed insert is still there.
TEST_F(GroupCommitTest, GroupCommittedTxnsSurviveReopen) {
  Open(/*group_commit=*/true, /*window_micros=*/2000);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Transaction txn = db_->Begin();
      if (!txn.InsertAtom("Emp",
                          {{"name", Value::String(std::string("t").append(
                                        std::to_string(t)))},
                           {"salary", Value::Int(t)}},
                          10)
               .ok() ||
          !txn.Commit().ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  db_.reset();
  DatabaseOptions options;
  options.sync_wal = true;
  auto db = Database::Open(dir_.path() + "/db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(db).value();
  auto emp_type = db_->catalog().GetAtomTypeByName("Emp");
  ASSERT_TRUE(emp_type.ok());
  size_t n = 0;
  Status scanned = db_->store()->ScanAsOf(
      *emp_type.value(), 10, [&](const AtomVersion&) -> Result<bool> {
        ++n;
        return true;
      });
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(n, static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace tcob
