// Cold-history tiering: logical invisibility and physical effect.
//
// Two databases — identical statement streams, one with tiering enabled
// and migrated, one without — must stay BYTE-IDENTICAL on every query
// surface (materialized Execute and streaming cursor), across all three
// storage strategies and parallelism {1, 4}, through reopen and through
// vacuum. On top of the identity, the physical claims: hot-tail queries
// prune every segment, long-range queries decode them, cold segments
// compress at least 2x against the live-store encoding of the same
// versions, and integrity holds throughout.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/temp_dir.h"
#include "db/database.h"

namespace tcob {
namespace {

/// History shape: every atom accumulates kRounds versions at t = 10,
/// 20, ..., so with now = kRounds*10 + 100 and cold_age = 150 roughly
/// the oldest 3/4 of each timeline is cold-eligible.
constexpr uint32_t kRounds = 64;
constexpr Timestamp kNow = kRounds * 10 + 100;

class TieringTest
    : public ::testing::TestWithParam<std::tuple<StorageStrategy, size_t>> {
 protected:
  void SetUp() override {
    DatabaseOptions plain;
    plain.strategy = std::get<0>(GetParam());
    plain.parallelism = std::get<1>(GetParam());
    DatabaseOptions tiered = plain;
    tiered.tiering.enabled = true;
    tiered.tiering.cold_age = 150;
    tiered.tiering.segment_target_bytes = 2048;  // several segments/type
    tiered_options_ = tiered;

    auto p = Database::Open(dir_.path() + "/plain", plain);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    plain_ = std::move(p).value();
    auto t = Database::Open(dir_.path() + "/tiered", tiered);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tiered_ = std::move(t).value();

    for (Database* db : {plain_.get(), tiered_.get()}) Populate(db);
  }

  /// Same DDL + DML on both databases: 2 depts x 3 emps, every atom
  /// updated each round, one emp deleted mid-history, links rewired.
  void Populate(Database* db) {
    auto run = [&](const std::string& mql) {
      auto r = db->Execute(mql);
      ASSERT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
    };
    run("CREATE ATOM_TYPE Dept (name STRING, budget INT, head INT)");
    run("CREATE ATOM_TYPE Emp (name STRING, salary INT, grade INT, "
        "notes STRING)");
    run("CREATE LINK DeptEmp FROM Dept TO Emp");
    run("CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD)");
    run("CREATE INDEX EmpSalary ON Emp (salary)");
    // Depts 1, 2; emps 3..8; dept d owns emps 3d, 3d+1, 3d+2 shifted.
    for (int d = 0; d < 2; ++d) {
      run("INSERT ATOM Dept (name='d" + std::to_string(d) +
          "', budget=100, head=" + std::to_string(3 + 3 * d) +
          ") VALID FROM 10");
    }
    for (int e = 0; e < 6; ++e) {
      run("INSERT ATOM Emp (name='e" + std::to_string(e) + "', salary=" +
          std::to_string(100 + e) + ", grade=" + std::to_string(1 + e % 3) +
          ", notes='hired in wave " + std::to_string(e % 2) +
          "') VALID FROM 10");
      run("CONNECT DeptEmp FROM " + std::to_string(1 + e / 3) + " TO " +
          std::to_string(3 + e) + " VALID FROM 10");
    }
    for (uint32_t round = 2; round <= kRounds; ++round) {
      Timestamp t = round * 10;
      for (int d = 0; d < 2; ++d) {
        run("UPDATE ATOM Dept " + std::to_string(1 + d) + " SET budget=" +
            std::to_string(100 + round * 10 + d) + " VALID FROM " +
            std::to_string(t));
      }
      for (int e = 0; e < 6; ++e) {
        if (e == 5 && round > kRounds / 2) continue;  // deleted below
        // Salary churns every round; grade moves rarely — the typical
        // mostly-stable record the delta bitmap exploits.
        std::string set = "salary=" + std::to_string(100 + round * 100 + e);
        if (round % 16 == 0) {
          set += ", grade=" + std::to_string(1 + (e + round / 16) % 5);
        }
        run("UPDATE ATOM Emp " + std::to_string(3 + e) + " SET " + set +
            " VALID FROM " + std::to_string(t));
      }
      if (round == kRounds / 2) {
        run("DISCONNECT DeptEmp FROM 2 TO 8 VALID FROM " +
            std::to_string(t + 1));
        run("DELETE ATOM Emp 8 VALID FROM " + std::to_string(t + 1));
      }
    }
    db->SetNow(kNow);
  }

  /// The query battery spanning every temporal mode and both cold and
  /// hot regions of the timelines.
  static std::vector<std::string> Battery() {
    return {
        "SELECT ALL FROM DeptMol VALID AT 15",    // deep cold
        "SELECT ALL FROM DeptMol VALID AT 205",   // mid cold
        "SELECT ALL FROM DeptMol VALID AT NOW",   // hot tail
        "SELECT Emp.name, Emp.salary FROM DeptMol VALID IN [100, 400)",
        "SELECT Dept.budget FROM DeptMol HISTORY",
        "SELECT ALL FROM DeptMol HISTORY",
        "SELECT COUNT(*), AVG(Emp.salary) FROM DeptMol GROUP BY ROOT "
        "VALID AT 250",
        "SELECT Emp.name FROM DeptMol WHERE Emp.salary > 300 VALID AT 45",
        "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 104 VALID AT 15",
    };
  }

  /// Rows of one statement through the materialized path, rendered to
  /// strings (order preserved — identity must be exact, not set-wise).
  static std::vector<std::string> MaterializedRows(Database* db,
                                                   const std::string& q) {
    std::vector<std::string> out;
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    if (!r.ok()) return out;
    for (const auto& row : r.value().rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    return out;
  }

  /// Same statement through the streaming cursor.
  static std::vector<std::string> CursorRows(Database* db,
                                             const std::string& q) {
    std::vector<std::string> out;
    auto opened = db->Query(q);
    EXPECT_TRUE(opened.ok()) << q << ": " << opened.status().ToString();
    if (!opened.ok()) return out;
    Cursor* cursor = opened.value().get();
    std::vector<std::vector<Value>> batch;
    for (;;) {
      auto pulled = cursor->NextBatch(7, &batch);
      EXPECT_TRUE(pulled.ok()) << q << ": " << pulled.status().ToString();
      if (!pulled.ok()) break;
      for (const auto& row : batch) {
        std::string line;
        for (const Value& v : row) line += v.ToString() + "|";
        out.push_back(std::move(line));
      }
      if (pulled.value() < 7) break;
    }
    cursor->Close();
    return out;
  }

  /// Asserts the full battery is identical between the two databases on
  /// both execution surfaces.
  void ExpectIdentical() {
    for (const std::string& q : Battery()) {
      EXPECT_EQ(MaterializedRows(plain_.get(), q),
                MaterializedRows(tiered_.get(), q))
          << "materialized divergence on: " << q;
      EXPECT_EQ(CursorRows(plain_.get(), q), CursorRows(tiered_.get(), q))
          << "cursor divergence on: " << q;
    }
  }

  Result<uint64_t> Migrate() { return tiered_->TierMigrate(); }

  TempDir dir_;
  DatabaseOptions tiered_options_;
  std::unique_ptr<Database> plain_;
  std::unique_ptr<Database> tiered_;
};

TEST_P(TieringTest, ByteIdenticalResultsAfterMigration) {
  ExpectIdentical();  // sanity before migration
  auto migrated = Migrate();
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_GT(migrated.value(), 0u);
  ExpectIdentical();
  // A second migration finds nothing new and changes nothing.
  auto again = Migrate();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value(), 0u);
  ExpectIdentical();
  Status verdict = tiered_->VerifyIntegrity();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST_P(TieringTest, DumpIsIdenticalToUntiered) {
  ASSERT_TRUE(Migrate().ok());
  auto plain_dump = plain_->Dump();
  auto tiered_dump = tiered_->Dump();
  ASSERT_TRUE(plain_dump.ok()) << plain_dump.status().ToString();
  ASSERT_TRUE(tiered_dump.ok()) << tiered_dump.status().ToString();
  EXPECT_EQ(plain_dump.value(), tiered_dump.value());
}

TEST_P(TieringTest, SurvivesReopen) {
  ASSERT_TRUE(Migrate().ok());
  tiered_.reset();
  auto reopened = Database::Open(dir_.path() + "/tiered", tiered_options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  tiered_ = std::move(reopened).value();
  tiered_->SetNow(kNow);
  ExpectIdentical();
  Status verdict = tiered_->VerifyIntegrity();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST_P(TieringTest, DmlAfterMigrationStaysIdentical) {
  ASSERT_TRUE(Migrate().ok());
  // Retroactive and current DML against atoms whose history is cold.
  for (Database* db : {plain_.get(), tiered_.get()}) {
    auto run = [&](const std::string& mql) {
      auto r = db->Execute(mql);
      ASSERT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
    };
    run("UPDATE ATOM Emp 3 SET salary=99999 VALID FROM " +
        std::to_string(kNow + 10));
    run("INSERT ATOM Emp (name='late', salary=1) VALID FROM " +
        std::to_string(kNow + 10));
    run("CONNECT DeptEmp FROM 1 TO 9 VALID FROM " +
        std::to_string(kNow + 10));
    db->SetNow(kNow + 20);
  }
  ExpectIdentical();
}

TEST_P(TieringTest, VacuumAfterTieringRemovesSameCount) {
  ASSERT_TRUE(Migrate().ok());
  auto plain_removed = plain_->VacuumBefore(200);
  auto tiered_removed = tiered_->VacuumBefore(200);
  ASSERT_TRUE(plain_removed.ok()) << plain_removed.status().ToString();
  ASSERT_TRUE(tiered_removed.ok()) << tiered_removed.status().ToString();
  EXPECT_EQ(plain_removed.value(), tiered_removed.value());
  ExpectIdentical();
  Status verdict = tiered_->VerifyIntegrity();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST_P(TieringTest, HotTailPrunesAndLongRangeDecodes) {
  ASSERT_TRUE(Migrate().ok());
  // Hot-tail AS OF: no segment payload may be decoded. The snapshot and
  // integrated stores reach the cold tier and must fence-prune every
  // segment; the separated store answers from the current record
  // without consulting cold at all — zero contact is the stronger
  // outcome, so only the no-decode half applies there.
  Session session = tiered_->OpenSession();
  ASSERT_TRUE(session.Execute("SELECT ALL FROM DeptMol VALID AT NOW").ok());
  const ColdTierAccessStats hot = session.last_query_stats().tiering;
  if (std::get<0>(GetParam()) != StorageStrategy::kSeparated) {
    EXPECT_GT(hot.segments_pruned, 0u);
  }
  EXPECT_EQ(hot.segments_scanned, 0u);
  EXPECT_EQ(hot.cold_versions, 0u);
  // Long-range history: cold segments must actually be decoded.
  ASSERT_TRUE(session.Execute("SELECT ALL FROM DeptMol HISTORY").ok());
  const ColdTierAccessStats range = session.last_query_stats().tiering;
  EXPECT_GT(range.segments_scanned, 0u);
  EXPECT_GT(range.cold_versions, 0u);
}

TEST_P(TieringTest, ColdSegmentsCompressAtLeastTwoFold) {
  ASSERT_TRUE(Migrate().ok());
  ColdTierMigrationStats stats = tiered_->cold_tier()->migration_stats();
  ASSERT_GT(stats.versions_migrated, 0u);
  ASSERT_GT(stats.output_bytes, 0u);
  EXPECT_GE(stats.input_bytes, 2 * stats.output_bytes)
      << "input=" << stats.input_bytes << " output=" << stats.output_bytes;
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<StorageStrategy, size_t>>&
        info) {
  return std::string(StorageStrategyName(std::get<0>(info.param))) + "_p" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndParallelism, TieringTest,
    ::testing::Combine(::testing::Values(StorageStrategy::kSnapshot,
                                         StorageStrategy::kIntegrated,
                                         StorageStrategy::kSeparated),
                       ::testing::Values(size_t{1}, size_t{4})),
    ParamName);

}  // namespace
}  // namespace tcob
