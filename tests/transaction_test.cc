#include "db/transaction.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "db/database.h"

namespace tcob {
namespace {

class TransactionTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.strategy = GetParam();
    auto db = Database::Open(dir_.path() + "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
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

  size_t CountRows(const std::string& mql) {
    auto r = db_->Execute(mql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().RowCount() : 0;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_P(TransactionTest, CommitAppliesAllOps) {
  Transaction txn = db_->Begin();
  AtomId dept = txn.InsertAtom("Dept",
                               {{"name", Value::String("R&D")},
                                {"budget", Value::Int(500)}},
                               10)
                    .value();
  AtomId emp = txn.InsertAtom("Emp",
                              {{"name", Value::String("ada")},
                               {"salary", Value::Int(100)}},
                              10)
                   .value();
  ASSERT_TRUE(txn.Connect("DeptEmp", dept, emp, 10).ok());
  EXPECT_EQ(txn.pending_ops(), 3u);
  // Nothing visible before commit.
  EXPECT_EQ(CountRows("SELECT ALL FROM DeptMol VALID AT 20"), 0u);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(CountRows("SELECT ALL FROM DeptMol VALID AT 20"), 2u);
}

TEST_P(TransactionTest, AbortDiscardsEverything) {
  Transaction txn = db_->Begin();
  ASSERT_TRUE(txn.InsertAtom("Dept",
                             {{"name", Value::String("X")},
                              {"budget", Value::Int(1)}},
                             10)
                  .ok());
  txn.Abort();
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(CountRows("SELECT ALL FROM DeptMol VALID AT 20"), 0u);
  EXPECT_EQ(db_->wal()->appended_records(), 0u);
}

TEST_P(TransactionTest, DestructorAborts) {
  {
    Transaction txn = db_->Begin();
    ASSERT_TRUE(txn.InsertAtom("Dept",
                               {{"name", Value::String("X")},
                                {"budget", Value::Int(1)}},
                               10)
                    .ok());
  }  // destroyed without commit
  EXPECT_EQ(CountRows("SELECT ALL FROM DeptMol VALID AT 20"), 0u);
}

TEST_P(TransactionTest, ReadYourOwnWritesInValidation) {
  Transaction txn = db_->Begin();
  AtomId emp = txn.InsertAtom("Emp",
                              {{"name", Value::String("ada")},
                               {"salary", Value::Int(100)}},
                              10)
                   .value();
  // Update an atom only this transaction created: overlay-based partial
  // update carries the pending name over.
  ASSERT_TRUE(
      txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(200)}}, 20).ok());
  ASSERT_TRUE(txn.DeleteAtom("Emp", emp, 30).ok());
  // A second delete must fail (the overlay knows it is dead).
  EXPECT_TRUE(txn.DeleteAtom("Emp", emp, 40).IsInvalidArgument());
  ASSERT_TRUE(txn.Commit().ok());

  const AtomTypeDef* emp_type = db_->catalog().GetAtomTypeByName("Emp").value();
  auto versions =
      db_->store()->GetVersions(*emp_type, emp, Interval::All()).value();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[1].attrs[0].AsString(), "ada");  // carried over
  EXPECT_EQ(versions[1].attrs[1].AsInt(), 200);
  EXPECT_EQ(versions[1].valid, Interval(20, 30));
}

TEST_P(TransactionTest, ValidationSeesCommittedState) {
  AtomId emp =
      db_->InsertAtom("Emp",
                      {{"name", Value::String("bob")},
                       {"salary", Value::Int(50)}},
                      10)
          .value();
  Transaction txn = db_->Begin();
  // Double insert of a live atom is rejected at buffering time.
  EXPECT_TRUE(txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(60)}}, 5)
                  .IsInvalidArgument());  // before live begin
  ASSERT_TRUE(
      txn.UpdateAtom("Emp", emp, {{"salary", Value::Int(60)}}, 20).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(CountRows("SELECT Emp.salary FROM DeptMol VALID AT 25"), 0u);
}

TEST_P(TransactionTest, LinkValidation) {
  AtomId dept = db_->InsertAtom("Dept",
                                {{"name", Value::String("D")},
                                 {"budget", Value::Int(1)}},
                                10)
                    .value();
  AtomId emp = db_->InsertAtom("Emp",
                               {{"name", Value::String("e")},
                                {"salary", Value::Int(1)}},
                               10)
                   .value();
  ASSERT_TRUE(db_->Connect("DeptEmp", dept, emp, 10).ok());

  Transaction txn = db_->Begin();
  // Already connected in committed state.
  EXPECT_TRUE(txn.Connect("DeptEmp", dept, emp, 20).IsAlreadyExists());
  ASSERT_TRUE(txn.Disconnect("DeptEmp", dept, emp, 20).ok());
  // Now reconnect within the same transaction.
  ASSERT_TRUE(txn.Connect("DeptEmp", dept, emp, 30).ok());
  // Disconnect before its begin rejected.
  EXPECT_TRUE(txn.Disconnect("DeptEmp", dept, emp, 25).IsInvalidArgument());
  ASSERT_TRUE(txn.Commit().ok());

  const LinkTypeDef* link = db_->catalog().GetLinkTypeByName("DeptEmp").value();
  auto spans =
      db_->links()->NeighborsIn(*link, dept, true, Interval::All()).value();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].second, Interval(10, 20));
  EXPECT_EQ(spans[1].second, Interval(30, kForever));
}

TEST_P(TransactionTest, CommittedTransactionSurvivesRecovery) {
  AtomId dept;
  {
    Transaction txn = db_->Begin();
    dept = txn.InsertAtom("Dept",
                          {{"name", Value::String("R&D")},
                           {"budget", Value::Int(500)}},
                          10)
               .value();
    ASSERT_TRUE(
        txn.UpdateAtom("Dept", dept, {{"budget", Value::Int(600)}}, 20).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Reopen in place: WAL replay must reproduce the transaction.
  DatabaseOptions options;
  options.strategy = GetParam();
  db_.reset();
  db_ = Database::Open(dir_.path() + "/db", options).value();
  EXPECT_EQ(CountRows("SELECT Dept.budget FROM DeptMol HISTORY"), 2u);
}

// An atom id names an atom of one type. An update that names another
// type is refused at buffering, also when the transaction already
// wrote the atom, and the commit applies cleanly.
TEST_P(TransactionTest, UpdateUnderAnotherTypeIsRefused) {
  Transaction txn = db_->Begin();
  AtomId emp = txn.InsertAtom("Emp",
                              {{"name", Value::String("ada")},
                               {"salary", Value::Int(100)}},
                              10)
                   .value();
  Status wrong = txn.UpdateAtom("Dept", emp, {{"budget", Value::Int(2)}}, 20);
  EXPECT_TRUE(wrong.IsNotFound()) << wrong.ToString();
  EXPECT_EQ(txn.pending_ops(), 1u);
  Status committed = txn.Commit();
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_EQ(db_->health_state(), HealthState::kHealthy);
}

TEST_P(TransactionTest, OpsAfterCommitRejected) {
  Transaction txn = db_->Begin();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(txn.InsertAtom("Dept", {{"name", Value::String("X")}}, 5)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(txn.Commit().IsInvalidArgument());
}

TEST_P(TransactionTest, TxnOutlivingDatabaseFailsCleanly) {
  Transaction txn = db_->Begin();
  ASSERT_TRUE(txn.InsertAtom("Dept",
                             {{"name", Value::String("X")},
                              {"budget", Value::Int(1)}},
                             10)
                  .ok());
  // Destroy the database out from under the transaction. Every further
  // use must fail with FailedPrecondition instead of dereferencing the
  // dangling Database pointer, and the destructor must not crash.
  db_.reset();
  EXPECT_TRUE(txn.InsertAtom("Dept", {{"name", Value::String("Y")}}, 20)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(txn.UpdateAtom("Dept", 1, {{"budget", Value::Int(2)}}, 20)
                  .IsFailedPrecondition());
  EXPECT_TRUE(txn.DeleteAtom("Dept", 1, 20).IsFailedPrecondition());
  EXPECT_TRUE(txn.Connect("DeptEmp", 1, 2, 20).IsFailedPrecondition());
  EXPECT_TRUE(txn.Disconnect("DeptEmp", 1, 2, 20).IsFailedPrecondition());
  EXPECT_TRUE(txn.Commit().IsFailedPrecondition());
  // Abort is safe (a no-op against the dead database) and deactivates.
  txn.Abort();
  EXPECT_FALSE(txn.active());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, TransactionTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
