// Streaming cursor execution: Database::Query must stream exactly the
// rows Database::Execute materializes — same order, same columns, same
// message — for every storage strategy and parallelism, and must clean
// up correctly when the consumer abandons the stream early.

#include "query/cursor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_dir.h"
#include "db/database.h"
#include "workload/company.h"

namespace tcob {
namespace {

std::unique_ptr<Database> OpenCompanyDb(const std::string& dir,
                                        StorageStrategy strategy,
                                        size_t parallelism) {
  DatabaseOptions options;
  options.strategy = strategy;
  options.parallelism = parallelism;
  auto db = Database::Open(dir, options).value();
  CompanyConfig config;
  config.depts = 4;
  config.emps_per_dept = 3;
  config.projs_per_emp = 2;
  config.versions_per_atom = 4;
  auto handles = BuildCompany(db.get(), config);
  EXPECT_TRUE(handles.ok()) << handles.status().ToString();
  return db;
}

/// Drains a cursor with the given batch size; rows land in `*rows`.
Status Drain(Cursor* cursor, size_t batch_rows,
             std::vector<std::vector<Value>>* rows) {
  rows->clear();
  std::vector<std::vector<Value>> batch;
  for (;;) {
    Result<size_t> pulled = cursor->NextBatch(batch_rows, &batch);
    if (!pulled.ok()) return pulled.status();
    for (std::vector<Value>& row : batch) rows->push_back(std::move(row));
    if (pulled.value() < batch_rows) return Status::OK();
  }
}

const char* const kStreamableQueries[] = {
    "SELECT ALL FROM DeptMol VALID AT NOW",
    "SELECT Emp.name, Emp.salary FROM DeptMol WHERE Emp.salary > 0 "
    "VALID AT NOW",
    "SELECT ALL FROM DeptMol HISTORY",
    "SELECT Dept.name, Emp.salary FROM DeptMol VALID IN [12, 30)",
};

class CursorTest : public ::testing::TestWithParam<StorageStrategy> {};

TEST_P(CursorTest, StreamsExactlyTheMaterializedResult) {
  TempDir dir;
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    auto db = OpenCompanyDb(dir.path() + "/p" + std::to_string(parallelism),
                            GetParam(), parallelism);
    for (const char* mql : kStreamableQueries) {
      auto expected = db->Execute(mql);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{100000}}) {
        auto cursor = db->Query(mql);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        EXPECT_EQ(cursor.value()->columns(), expected.value().columns);
        std::vector<std::vector<Value>> rows;
        ASSERT_TRUE(Drain(cursor.value().get(), batch_rows, &rows).ok());
        EXPECT_EQ(cursor.value()->message(), expected.value().message);
        cursor.value()->Close();
        ASSERT_EQ(rows.size(), expected.value().rows.size())
            << mql << " batch " << batch_rows << " p" << parallelism;
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_EQ(rows[i], expected.value().rows[i])
              << mql << " row " << i;
        }
      }
    }
  }
}

/// An ORDER BY query and the same query without its ORDER BY clause.
struct OrderCase {
  const char* mql;
  const char* unordered;
  size_t key;  // the ORDER BY column
  bool desc;
};

const OrderCase kOrderCases[] = {
    {"SELECT Emp.name FROM DeptMol ORDER BY Emp.name VALID AT NOW",
     "SELECT Emp.name FROM DeptMol VALID AT NOW", 1, false},
    {"SELECT Emp.salary FROM DeptMol ORDER BY Emp.salary DESC HISTORY",
     "SELECT Emp.salary FROM DeptMol HISTORY", 3, true},
};

/// An aggregate query and, for GROUP BY ROOT, a query with the rows it
/// folds (null for a global aggregate: one group).
struct AggregateCase {
  const char* mql;
  const char* folded_rows;
};

const AggregateCase kAggregateCases[] = {
    {"SELECT COUNT(*), AVG(Emp.salary) FROM DeptMol VALID AT NOW", nullptr},
    {"SELECT COUNT(*), MIN(Emp.name), MAX(Emp.salary) FROM DeptMol "
     "GROUP BY ROOT VALID AT NOW",
     "SELECT Emp.name, Emp.salary FROM DeptMol VALID AT NOW"},
    {"SELECT SUM(Emp.salary) FROM DeptMol GROUP BY ROOT ORDER BY ROOT DESC "
     "HISTORY",
     "SELECT Emp.salary FROM DeptMol HISTORY"},
};

/// Opens `mql`, drains it in batches of 3, and requires the rows to equal
/// Session::Execute's; returns them.
std::vector<std::vector<Value>> DrainMatchingExecute(Session* session,
                                                     const char* mql) {
  auto expected = session->Execute(mql);
  EXPECT_TRUE(expected.ok()) << mql << ": " << expected.status().ToString();
  auto cursor = session->Query(mql);
  EXPECT_TRUE(cursor.ok()) << mql << ": " << cursor.status().ToString();
  std::vector<std::vector<Value>> rows;
  if (!expected.ok() || !cursor.ok()) return rows;
  EXPECT_EQ(cursor.value()->columns(), expected.value().columns) << mql;
  EXPECT_TRUE(Drain(cursor.value().get(), 3, &rows).ok()) << mql;
  cursor.value()->Close();
  EXPECT_EQ(rows, expected.value().rows) << mql;
  return rows;
}

TEST_P(CursorTest, PipelineBreakersStreamThroughStages) {
  TempDir dir;
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    auto db = OpenCompanyDb(dir.path() + "/p" + std::to_string(parallelism),
                            GetParam(), parallelism);
    Session session = db->OpenSession();
    for (const OrderCase& c : kOrderCases) {
      // The sort stage is a stable sort of the unordered stream.
      auto unordered = db->Execute(c.unordered);
      ASSERT_TRUE(unordered.ok()) << unordered.status().ToString();
      std::vector<std::vector<Value>> sorted = unordered.value().rows;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](const std::vector<Value>& a,
                           const std::vector<Value>& b) {
                         int cmp = a[c.key].Compare(b[c.key]).value();
                         return c.desc ? cmp > 0 : cmp < 0;
                       });
      EXPECT_EQ(DrainMatchingExecute(&session, c.mql), sorted) << c.mql;
      // ORDER BY holds its whole input (the cursor finalized last).
      EXPECT_EQ(session.last_query_stats().peak_buffered_rows, sorted.size())
          << c.mql << " p" << parallelism;
    }
    for (const AggregateCase& c : kAggregateCases) {
      size_t groups = 1;
      if (c.folded_rows != nullptr) {
        auto folded = db->Execute(c.folded_rows);
        ASSERT_TRUE(folded.ok()) << folded.status().ToString();
        std::set<AtomId> roots;
        for (const auto& row : folded.value().rows) {
          roots.insert(row[0].AsId());
        }
        groups = roots.size();
      }
      EXPECT_EQ(DrainMatchingExecute(&session, c.mql).size(), groups)
          << c.mql;
      // An aggregate holds one accumulator row per group.
      EXPECT_EQ(session.last_query_stats().peak_buffered_rows, groups)
          << c.mql << " p" << parallelism;
    }

    // Abandoning an ORDER BY stream after its first row.
    auto cursor = session.Query(kOrderCases[1].mql);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    std::vector<Value> row;
    auto first = cursor.value()->Next(&row);
    ASSERT_TRUE(first.ok() && first.value());
    cursor.value()->Close();
    EXPECT_EQ(session.last_query_stats().rows_streamed, 1u);
    auto usable = db->Execute(kOrderCases[0].mql);
    EXPECT_TRUE(usable.ok()) << usable.status().ToString();

    // An ORDER BY key outside the result fails at open.
    auto bad =
        db->Query("SELECT Emp.name FROM DeptMol ORDER BY Emp.salary VALID AT NOW");
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.status().IsInvalidArgument());
    EXPECT_NE(bad.status().ToString().find(
                  "ORDER BY column must appear in the result: Emp.salary"),
              std::string::npos)
        << bad.status().ToString();
  }
}

TEST_P(CursorTest, EarlyCloseStopsProductionCleanly) {
  TempDir dir;
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    auto db = OpenCompanyDb(dir.path() + "/p" + std::to_string(parallelism),
                            GetParam(), parallelism);
    Session session = db->OpenSession();
    auto cursor = session.Query("SELECT ALL FROM DeptMol HISTORY");
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    std::vector<Value> row;
    auto first = cursor.value()->Next(&row);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value());
    cursor.value()->Close();  // abandon mid-stream
    // The database stays fully usable; the finalize hook already ran,
    // so the trace reflects the truncated stream.
    EXPECT_GE(session.last_query_stats().rows_streamed, 1u);
    auto again = db->Execute("SELECT ALL FROM DeptMol VALID AT NOW");
    EXPECT_TRUE(again.ok()) << again.status().ToString();
  }
}

TEST_P(CursorTest, DestructionWithoutCloseAlsoCleansUp) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 4);
  {
    auto cursor = db->Query("SELECT ALL FROM DeptMol HISTORY");
    ASSERT_TRUE(cursor.ok());
    std::vector<Value> row;
    ASSERT_TRUE(cursor.value()->Next(&row).ok());
    // Cursor destroyed here without an explicit Close.
  }
  auto again = db->Execute("SELECT ALL FROM DeptMol VALID AT NOW");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_P(CursorTest, DatabaseTeardownRightAfterAbandonJoinsProducer) {
  // Regression: abandoning a mid-stream cursor and destroying the
  // Database immediately afterwards must join the producer thread
  // before the engine it reads from is torn down. Under TSan/ASan a
  // leaked producer racing teardown fails this test.
  TempDir dir;
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    auto db = OpenCompanyDb(dir.path() + "/p" + std::to_string(parallelism),
                            GetParam(), parallelism);
    auto cursor = db->Query("SELECT ALL FROM DeptMol HISTORY");
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    std::vector<Value> row;
    ASSERT_TRUE(cursor.value()->Next(&row).ok());
    cursor.value().reset();  // abandon mid-stream, no Close
    db.reset();              // immediate teardown
  }
}

TEST_P(CursorTest, CancelFromSecondThreadAbortsDrain) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 4);
  auto cursor = db->Query("SELECT ALL FROM DeptMol HISTORY");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Value> row;
  ASSERT_TRUE(cursor.value()->Next(&row).ok());
  std::thread canceller([&]() { cursor.value()->Cancel(); });
  canceller.join();
  // Cancel is sticky: every later pull reports Cancelled, in bounded
  // time, regardless of how much of the stream was still pending.
  std::vector<std::vector<Value>> rest;
  Status drained = Drain(cursor.value().get(), 16, &rest);
  ASSERT_FALSE(drained.ok());
  EXPECT_TRUE(drained.IsCancelled()) << drained.ToString();
  cursor.value()->Close();
  // The database remains fully usable.
  auto again = db->Execute("SELECT ALL FROM DeptMol VALID AT NOW");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_P(CursorTest, PlanTimeErrorSurfacesAtOpen) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 1);
  auto cursor = db->Query("SELECT ALL FROM NoSuchMol VALID AT NOW");
  EXPECT_FALSE(cursor.ok());
  auto materialized = db->Execute("SELECT ALL FROM NoSuchMol VALID AT NOW");
  EXPECT_EQ(cursor.status().code(), materialized.status().code());
}

TEST_P(CursorTest, TraceReportsFlatPeakBufferedRowsWhenStreaming) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 1);
  Session session = db->OpenSession();
  auto cursor = session.Query("SELECT ALL FROM DeptMol HISTORY");
  ASSERT_TRUE(cursor.ok());
  std::vector<std::vector<Value>> rows;
  ASSERT_TRUE(Drain(cursor.value().get(), 64, &rows).ok());
  cursor.value()->Close();
  const QueryStats& stats = session.last_query_stats();
  EXPECT_EQ(stats.rows_streamed, rows.size());
  EXPECT_EQ(stats.rows, rows.size());
  ASSERT_GT(rows.size(), 0u);
  // The queue never buffers more than its capacity (1024 rows) plus one
  // in-flight batch; with a large result this is far below the total.
  EXPECT_LE(stats.peak_buffered_rows, 1024u + 64u);
  EXPECT_GT(stats.peak_buffered_rows, 0u);
  EXPECT_GT(stats.first_row_us, 0.0);
  EXPECT_LE(stats.first_row_us, stats.total_us + 500.0);
}

TEST_P(CursorTest, NonSelectStatementsYieldMaterializedCursors) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 1);
  auto cursor = db->Query("SHOW CATALOG;");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<std::vector<Value>> rows;
  EXPECT_TRUE(Drain(cursor.value().get(), 10, &rows).ok());
  cursor.value()->Close();
  auto insert = db->Query("CREATE ATOM_TYPE Extra (note STRING)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_FALSE(insert.value()->message().empty());
  insert.value()->Close();
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, CursorTest,
    ::testing::Values(StorageStrategy::kSnapshot, StorageStrategy::kIntegrated,
                      StorageStrategy::kSeparated),
    [](const ::testing::TestParamInfo<StorageStrategy>& info) {
      return std::string(StorageStrategyName(info.param));
    });

}  // namespace
}  // namespace tcob
