// Resource governance: query deadlines and cooperative cancellation,
// memory budgets, admission control, transient-I/O retry, and read-only
// opens. The degraded-mode (read-only / failed) transitions live in
// fault_injection_test.cc; this suite covers the governance primitives
// and their end-to-end wiring through the query surfaces.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/resource_budget.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "storage/fault_env.h"
#include "storage/retry_env.h"
#include "workload/company.h"

namespace tcob {
namespace {

// ---- primitive units --------------------------------------------------

TEST(QueryContextTest, CancelWinsOverDeadline) {
  auto ctx = QueryContext::WithDeadline(1);  // expires ~immediately
  while (!ctx->deadline_expired()) {
  }
  ctx->Cancel();
  Status s = ctx->Check();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();  // precedence over deadline
}

TEST(QueryContextTest, NoDeadlineNeverExpires) {
  auto ctx = QueryContext::Create();
  EXPECT_FALSE(ctx->has_deadline());
  EXPECT_TRUE(ctx->Check().ok());
}

TEST(ResourceBudgetTest, ChargesReleasesAndRefusesAtCap) {
  ResourceBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600));
  EXPECT_TRUE(budget.TryCharge(400));
  EXPECT_FALSE(budget.TryCharge(1));  // at cap
  EXPECT_EQ(budget.charged(), 1000u);
  EXPECT_EQ(budget.peak(), 1000u);
  EXPECT_EQ(budget.rejected(), 1u);
  budget.Release(400);
  EXPECT_TRUE(budget.TryCharge(300));
  EXPECT_EQ(budget.charged(), 900u);
  EXPECT_EQ(budget.peak(), 1000u);  // peak is sticky
}

TEST(ResourceBudgetTest, LeaseTracksOverflowOnRefusal) {
  ResourceBudget budget(100);
  BudgetLease lease(&budget);
  EXPECT_TRUE(lease.Charge(80));
  EXPECT_FALSE(lease.Charge(50));  // refused: would exceed the cap
  EXPECT_EQ(lease.charged(), 80u);
  EXPECT_EQ(lease.overflow(), 50u);
  EXPECT_TRUE(lease.TakePressure());
  EXPECT_FALSE(lease.TakePressure());  // one-shot
  lease.Release(80, 50);
  EXPECT_EQ(budget.charged(), 0u);
}

TEST(AdmissionControllerTest, BoundedWaitTimesOutWithDeadlineExceeded) {
  AdmissionController gate(1);
  auto ctx = QueryContext::Create();
  ASSERT_TRUE(gate.Acquire(ctx.get(), 1000).ok());
  Status refused = gate.Acquire(ctx.get(), 1000);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.IsDeadlineExceeded()) << refused.ToString();
  EXPECT_EQ(gate.rejected(), 1u);
  gate.Release();
  EXPECT_TRUE(gate.Acquire(ctx.get(), 1000).ok());
  gate.Release();
  EXPECT_EQ(gate.admitted(), 2u);
}

TEST(RetryEnvTest, AbsorbsTransientReadFailuresAndCountsRetries) {
  FaultInjectingIoEnv base;
  IoRetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_micros = 1;
  policy.max_backoff_micros = 8;
  RetryingIoEnv env(&base, policy);
  ASSERT_TRUE(env.CreateDir("d").ok());
  {
    auto f = env.OpenFile("d/f");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->WriteAt(0, Slice("hello")).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  base.FailTransientReads(2);
  auto f = env.OpenFile("d/f");
  ASSERT_TRUE(f.ok());
  char buf[5];
  auto got = (*f)->ReadAt(0, buf, 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(std::string(buf, got.value()), "hello");
  EXPECT_EQ(env.retries(), 2u);
}

TEST(RetryEnvTest, PermanentReadErrorsAreNotRetried) {
  FaultInjectingIoEnv base;
  IoRetryPolicy policy;
  policy.max_attempts = 4;
  RetryingIoEnv env(&base, policy);
  ASSERT_TRUE(env.CreateDir("d").ok());
  {
    auto f = env.OpenFile("d/f");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->WriteAt(0, Slice("hello")).ok());
  }
  base.FailReadAt(base.reads() + 1);  // plain EIO, not transient
  auto f = env.OpenFile("d/f");
  ASSERT_TRUE(f.ok());
  char buf[5];
  auto got = (*f)->ReadAt(0, buf, 5);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(env.retries(), 0u);
}

// ---- end-to-end through the database ----------------------------------

class GovernanceTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  std::unique_ptr<Database> OpenDeepHistory(const std::string& dir,
                                            DatabaseOptions options,
                                            size_t parallelism = 1) {
    options.strategy = GetParam();
    options.parallelism = parallelism;
    auto db = Database::Open(dir, options).value();
    CompanyConfig config;
    config.depts = 4;
    config.emps_per_dept = 4;
    config.projs_per_emp = 2;
    config.versions_per_atom = 16;
    auto handles = BuildCompany(db.get(), config);
    EXPECT_TRUE(handles.ok()) << handles.status().ToString();
    return db;
  }

  TempDir dir_;
};

constexpr char kDeepHistoryQuery[] = "SELECT ALL FROM DeptMol HISTORY";

TEST_P(GovernanceTest, DefaultDeadlineAbortsDeepHistoryQuery) {
  DatabaseOptions options;
  auto db = OpenDeepHistory(dir_.path() + "/db", options);
  // One microsecond: the deadline is armed at query open and the deep
  // sweep checks it at every batch boundary, so this must abort.
  db->set_default_query_deadline(1);
  Session session = db->OpenSession();
  auto r = session.Execute(kDeepHistoryQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_EQ(session.last_query_stats().disposition, "deadline-exceeded");

  // Turning the deadline off restores normal service; the metrics
  // registry has counted the abort.
  db->set_default_query_deadline(0);
  auto ok = db->Execute(kDeepHistoryQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  std::string metrics = db->MetricsSnapshot().ToText();
  EXPECT_NE(metrics.find("tcob_query_deadline_exceeded_total 1"),
            std::string::npos)
      << metrics;
}

TEST_P(GovernanceTest, DeadlineAbortsStreamingCursorMidDrain) {
  DatabaseOptions options;
  auto db = OpenDeepHistory(dir_.path() + "/db", options, 4);
  db->set_default_query_deadline(200);  // expires mid-stream at the latest
  auto cursor = db->Query(kDeepHistoryQuery);
  Status outcome;
  if (cursor.ok()) {
    std::vector<std::vector<Value>> batch;
    for (;;) {
      Result<size_t> pulled = cursor.value()->NextBatch(8, &batch);
      if (!pulled.ok()) {
        outcome = pulled.status();
        break;
      }
      if (pulled.value() < 8) break;
    }
    cursor.value()->Close();
  } else {
    outcome = cursor.status();
  }
  // The race is which pull observes the expiry, not whether it aborts:
  // a 200us deadline cannot cover a 16-version full-history sweep.
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.IsDeadlineExceeded()) << outcome.ToString();
  // The abort unwound cleanly: no leaked producer, next query fine.
  db->set_default_query_deadline(0);
  EXPECT_TRUE(db->Execute(kDeepHistoryQuery).ok());
}

TEST_P(GovernanceTest, CancelledCursorCountsDispositionAndMetric) {
  DatabaseOptions options;
  auto db = OpenDeepHistory(dir_.path() + "/db", options, 4);
  Session session = db->OpenSession();
  auto cursor = session.Query(kDeepHistoryQuery);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Value> row;
  ASSERT_TRUE(cursor.value()->Next(&row).ok());
  std::thread canceller([&]() { cursor.value()->Cancel(); });
  canceller.join();
  Result<bool> next = cursor.value()->Next(&row);
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsCancelled()) << next.status().ToString();
  cursor.value()->Close();
  EXPECT_EQ(session.last_query_stats().disposition, "cancelled");
  std::string metrics = db->MetricsSnapshot().ToText();
  EXPECT_NE(metrics.find("tcob_query_cancelled_total 1"), std::string::npos)
      << metrics;
}

TEST_P(GovernanceTest, MemoryBudgetCapIsNeverExceededAndQueryCompletes) {
  // First, measure the unbudgeted peak.
  DatabaseOptions unbounded;
  uint64_t peak_unbounded = 0;
  {
    auto db = OpenDeepHistory(dir_.path() + "/free", unbounded, 4);
    auto cursor = db->Query(kDeepHistoryQuery);
    ASSERT_TRUE(cursor.ok());
    std::vector<std::vector<Value>> batch;
    while (true) {
      Result<size_t> pulled = cursor.value()->NextBatch(64, &batch);
      ASSERT_TRUE(pulled.ok());
      if (pulled.value() < 64) break;
    }
    cursor.value()->Close();
    peak_unbounded = db->memory_budget().peak();
    ASSERT_GT(peak_unbounded, 0u);  // cap 0 still accounts
  }
  // Now cap the budget well below that peak: the same query must still
  // complete (refused charges degrade to unbudgeted buffers, recorded
  // as overflow) and the charged bytes must never exceed the cap.
  DatabaseOptions capped;
  capped.memory_budget_bytes = peak_unbounded / 8 + 1;
  auto db = OpenDeepHistory(dir_.path() + "/capped", capped, 4);
  Session session = db->OpenSession();
  auto cursor = session.Query(kDeepHistoryQuery);
  ASSERT_TRUE(cursor.ok());
  size_t rows = 0;
  std::vector<std::vector<Value>> batch;
  while (true) {
    Result<size_t> pulled = cursor.value()->NextBatch(64, &batch);
    ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
    rows += pulled.value();
    if (pulled.value() < 64) break;
  }
  cursor.value()->Close();
  EXPECT_GT(rows, 0u);
  EXPECT_LE(db->memory_budget().peak(), capped.memory_budget_bytes);
  EXPECT_GT(session.last_query_stats().peak_memory_bytes, 0u);
}

TEST_P(GovernanceTest, AdmissionGateBoundsInflightQueries) {
  DatabaseOptions options;
  options.max_inflight_queries = 1;
  options.admission_timeout_micros = 2000;
  auto db = OpenDeepHistory(dir_.path() + "/db", options, 4);

  auto first = db->Query(kDeepHistoryQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::vector<Value> row;
  ASSERT_TRUE(first.value()->Next(&row).ok());  // slot held mid-stream

  auto second = db->Query(kDeepHistoryQuery);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsDeadlineExceeded())
      << second.status().ToString();
  EXPECT_EQ(db->admission().rejected(), 1u);

  first.value()->Close();  // releases the slot
  auto third = db->Query(kDeepHistoryQuery);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  third.value()->Close();
  EXPECT_GE(db->admission().admitted(), 2u);
  EXPECT_EQ(db->admission().inflight(), 0u);
}

TEST_P(GovernanceTest, RetryPolicyAbsorbsTransientEioDuringQueries) {
  FaultInjectingIoEnv env;
  DatabaseOptions options;
  options.strategy = GetParam();
  options.env = &env;
  {
    auto db = Database::Open(dir_.path() + "/db", options).value();
    CompanyConfig config;
    config.depts = 2;
    config.emps_per_dept = 2;
    ASSERT_TRUE(BuildCompany(db.get(), config).ok());
  }
  options.io_retry.max_attempts = 4;
  options.io_retry.base_backoff_micros = 1;
  options.io_retry.max_backoff_micros = 8;
  auto db = Database::Open(dir_.path() + "/db", options).value();
  env.FailTransientReads(2);  // the reopen left the pool cold
  auto r = db->Execute("SELECT ALL FROM DeptMol VALID AT NOW");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().RowCount(), 0u);
  std::string metrics = db->MetricsSnapshot().ToText();
  EXPECT_NE(metrics.find("tcob_io_retries_total 2"), std::string::npos)
      << metrics;
}

TEST_P(GovernanceTest, ReadOnlyOpenRefusesEveryMutation) {
  DatabaseOptions options;
  { auto db = OpenDeepHistory(dir_.path() + "/db", options); }
  options.strategy = GetParam();
  options.read_only = true;
  auto db = Database::Open(dir_.path() + "/db", options).value();
  EXPECT_EQ(db->health_state(), HealthState::kHealthy);
  auto read = db->Execute("SELECT ALL FROM DeptMol VALID AT NOW");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_GT(read.value().RowCount(), 0u);
  for (const char* mql :
       {"INSERT ATOM Dept (name='x', budget=1) VALID FROM 999",
        "UPDATE ATOM Dept 1 SET budget=2 VALID FROM 999",
        "DELETE ATOM Dept 1 VALID FROM 999", "VACUUM BEFORE 5",
        "CREATE ATOM_TYPE Late (a INT)"}) {
    auto refused = db->Execute(mql);
    ASSERT_FALSE(refused.ok()) << mql;
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << mql << ": " << refused.status().ToString();
  }
  EXPECT_FALSE(db->Checkpoint().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, GovernanceTest,
    ::testing::Values(StorageStrategy::kSnapshot, StorageStrategy::kIntegrated,
                      StorageStrategy::kSeparated),
    [](const ::testing::TestParamInfo<StorageStrategy>& info) {
      return std::string(StorageStrategyName(info.param));
    });

}  // namespace
}  // namespace tcob
