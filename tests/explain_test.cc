// EXPLAIN ANALYZE and per-query tracing: the trace ResultSet is
// well-formed for every storage strategy (serial and parallel), the
// result-level totals agree between parallelism 1 and >1, the
// per-query trace reconciles with Database::MetricsSnapshot() deltas,
// and a query's trace counts its own storage work even while other
// queries overlap it.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
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

/// Indexes an EXPLAIN ANALYZE result as (section, metric) -> value.
std::map<std::pair<std::string, std::string>, Value> IndexTrace(
    const ResultSet& rs) {
  std::map<std::pair<std::string, std::string>, Value> out;
  for (const auto& row : rs.rows) {
    out.emplace(std::make_pair(row[0].AsString(), row[1].AsString()), row[2]);
  }
  return out;
}

class ExplainTest : public ::testing::TestWithParam<StorageStrategy> {};

TEST_P(ExplainTest, AnalyzeIsWellFormedSerialAndParallel) {
  TempDir dir;
  for (size_t parallelism : {size_t{1}, size_t{3}}) {
    auto db = OpenCompanyDb(dir.path() + "/p" + std::to_string(parallelism),
                            GetParam(), parallelism);
    auto r = db->Execute(
        "EXPLAIN ANALYZE SELECT ALL FROM DeptMol ORDER BY ROOT HISTORY");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ResultSet& rs = r.value();
    ASSERT_EQ(rs.columns,
              (std::vector<std::string>{"SECTION", "METRIC", "VALUE"}));
    auto trace = IndexTrace(rs);

    EXPECT_EQ(trace.at({"query", "strategy"}).AsString(),
              StorageStrategyName(GetParam()));
    EXPECT_EQ(trace.at({"query", "temporal_mode"}).AsString(), "history");
    EXPECT_FALSE(trace.at({"query", "plan"}).AsString().empty());
    EXPECT_GE(trace.at({"query", "parallelism"}).AsInt(), 1);

    // Timing spans are present and sane.
    EXPECT_GT(trace.at({"timing", "total_us"}).AsDouble(), 0.0);
    EXPECT_GE(trace.at({"timing", "materialize_us"}).AsDouble(), 0.0);
    EXPECT_LE(trace.at({"timing", "execute_us"}).AsDouble(),
              trace.at({"timing", "total_us"}).AsDouble());

    // Result totals: 4 departments, multiple versions each.
    EXPECT_EQ(trace.at({"result", "molecules"}).AsInt(), 4);
    EXPECT_GT(trace.at({"result", "states"}).AsInt(), 0);
    EXPECT_GT(trace.at({"result", "rows"}).AsInt(), 0);
    EXPECT_GT(trace.at({"result", "atoms_visited"}).AsInt(), 0);

    // Storage work happened and the rates are rates.
    EXPECT_GT(trace.at({"store", "total_accesses"}).AsInt(), 0);
    double vc_rate = trace.at({"version_cache", "hit_rate"}).AsDouble();
    EXPECT_GE(vc_rate, 0.0);
    EXPECT_LE(vc_rate, 1.0);
    double bp_rate = trace.at({"buffer_pool", "hit_rate"}).AsDouble();
    EXPECT_GE(bp_rate, 0.0);
    EXPECT_LE(bp_rate, 1.0);

    // Parallel runs report per-worker timings; serial runs do not.
    size_t worker_rows = 0;
    for (const auto& [key, value] : trace) {
      if (key.first == "workers") ++worker_rows;
    }
    if (parallelism > 1) {
      EXPECT_GT(worker_rows, 1u);
      EXPECT_EQ(trace.at({"query", "parallelism"}).AsInt(),
                static_cast<int64_t>(worker_rows));
    } else {
      EXPECT_EQ(worker_rows, 0u);
    }
  }
}

TEST_P(ExplainTest, PlainExplainStillReturnsStaticPlan) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 1);
  auto r = db->Execute("EXPLAIN SELECT ALL FROM DeptMol VALID AT NOW");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The static EXPLAIN output is a plan description, not a trace table.
  EXPECT_NE(r.value().columns,
            (std::vector<std::string>{"SECTION", "METRIC", "VALUE"}));
}

TEST_P(ExplainTest, ExplainApiWrapsSelect) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 1);
  Session session = db->OpenSession();
  auto traced = session.Explain("SELECT ALL FROM DeptMol VALID AT NOW");
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  auto trace = IndexTrace(traced.value());
  EXPECT_EQ(trace.at({"query", "temporal_mode"}).AsString(), "as-of");
  EXPECT_GT(trace.at({"result", "rows"}).AsInt(), 0);

  auto untraced = session.Explain("SELECT ALL FROM DeptMol VALID AT NOW",
                                  /*analyze=*/false);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();

  auto bad = session.Explain("INSERT ATOM Dept (name = 'x') VALID IN [1, 2)");
  EXPECT_FALSE(bad.ok());
}

TEST_P(ExplainTest, SerialAndParallelResultTotalsAgree) {
  const std::vector<std::string> statements = {
      "SELECT ALL FROM DeptMol ORDER BY ROOT VALID AT NOW",
      "SELECT ALL FROM DeptMol ORDER BY ROOT VALID IN [10, 40)",
      "SELECT ALL FROM DeptMol ORDER BY ROOT HISTORY",
  };
  TempDir dir;
  auto serial = OpenCompanyDb(dir.path() + "/serial", GetParam(), 1);
  auto parallel = OpenCompanyDb(dir.path() + "/parallel", GetParam(), 3);
  Session serial_session = serial->OpenSession();
  Session parallel_session = parallel->OpenSession();
  for (const std::string& mql : statements) {
    ASSERT_TRUE(serial_session.Execute(mql).ok()) << mql;
    QueryStats s = serial_session.last_query_stats();
    ASSERT_TRUE(parallel_session.Execute(mql).ok()) << mql;
    QueryStats p = parallel_session.last_query_stats();
    // Store-access and cache counts legitimately differ (per-worker
    // private caches re-pin shared atoms); the *results* must not.
    EXPECT_EQ(s.molecules, p.molecules) << mql;
    EXPECT_EQ(s.states, p.states) << mql;
    EXPECT_EQ(s.rows, p.rows) << mql;
    EXPECT_EQ(s.atoms_visited, p.atoms_visited) << mql;
  }
}

TEST_P(ExplainTest, TraceReconcilesWithMetricsSnapshot) {
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 1);
  Session session = db->OpenSession();
  MetricsSnapshot before = db->MetricsSnapshot();
  ASSERT_TRUE(
      session.Execute("SELECT ALL FROM DeptMol ORDER BY ROOT VALID AT NOW")
          .ok());
  MetricsSnapshot after = db->MetricsSnapshot();
  const QueryStats& trace = session.last_query_stats();

  auto delta = [&](const char* name) {
    return after.CounterOr(name, 0) - before.CounterOr(name, 0);
  };
  EXPECT_EQ(delta("tcob_queries_total"), 1u);
  EXPECT_EQ(delta("tcob_store_get_as_of_total"), trace.store.get_as_of);
  EXPECT_EQ(delta("tcob_store_get_versions_total"), trace.store.get_versions);
  EXPECT_EQ(delta("tcob_store_scan_as_of_total"), trace.store.scan_as_of);
  EXPECT_EQ(delta("tcob_store_scan_versions_total"),
            trace.store.scan_versions);
  EXPECT_EQ(delta("tcob_pool_fetches_total"), trace.pool.fetches);
  EXPECT_EQ(delta("tcob_pool_hits_total"), trace.pool.hits);
  EXPECT_EQ(delta("tcob_pool_misses_total"), trace.pool.misses);
  EXPECT_EQ(delta("tcob_vcache_atom_hits_total"), trace.cache.atom_hits);
  EXPECT_EQ(delta("tcob_vcache_atom_misses_total"), trace.cache.atom_misses);
  EXPECT_EQ(delta("tcob_vcache_versions_pinned_total"),
            trace.cache.versions_pinned);
  ASSERT_EQ(after.histograms.count("tcob_query_latency_us"), 1u);
  EXPECT_EQ(after.histograms.at("tcob_query_latency_us").count -
                before.histograms.at("tcob_query_latency_us").count,
            1u);
  EXPECT_GT(trace.store.Total(), 0u);
}

TEST_P(ExplainTest, RepeatedParallelQueriesGiveIdenticalCounterDeltas) {
  // The fan-out workers bump the shared store/pool counters
  // concurrently; the partitioning is deterministic, so two identical
  // runs must produce byte-identical deltas (exactness under
  // concurrency — covered by the TSan CI job).
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 4);
  const std::string mql = "SELECT ALL FROM DeptMol ORDER BY ROOT HISTORY";
  auto run = [&]() {
    MetricsSnapshot before = db->MetricsSnapshot();
    EXPECT_TRUE(db->Execute(mql).ok());
    MetricsSnapshot after = db->MetricsSnapshot();
    std::map<std::string, uint64_t> deltas;
    for (const auto& [name, value] : after.counters) {
      deltas[name] = value - before.CounterOr(name, 0);
    }
    deltas.erase("tcob_wal_size_bytes");  // gauge-like, not query work
    return deltas;
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.at("tcob_store_get_versions_total") +
                first.at("tcob_store_scan_versions_total") +
                first.at("tcob_store_get_as_of_total") +
                first.at("tcob_store_scan_as_of_total"),
            0u);
}

TEST_P(ExplainTest, ConcurrentExplainAnalyzeReportsItsOwnQuery) {
  // Two threads loop EXPLAIN ANALYZE on different statements against one
  // database. Each trace must describe its own statement, not whichever
  // query happened to finish last.
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 2);
  const std::string slice =
      "EXPLAIN ANALYZE SELECT ALL FROM DeptMol WHERE Dept.name = 'dept-0' "
      "VALID AT 10";
  const std::string history = "EXPLAIN ANALYZE SELECT ALL FROM DeptMol HISTORY";
  std::map<std::string, int64_t> expected_rows;
  for (const std::string& mql : {slice, history}) {
    auto r = db->Execute(mql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected_rows[mql] = IndexTrace(r.value()).at({"result", "rows"}).AsInt();
  }
  ASSERT_GT(expected_rows[slice], 0);
  ASSERT_NE(expected_rows[slice], expected_rows[history]);

  std::atomic<int> wrong{0};
  auto loop = [&](const std::string& mql) {
    for (int i = 0; i < 20; ++i) {
      auto r = db->Execute(mql);
      if (!r.ok()) {
        ++wrong;
        continue;
      }
      auto trace = IndexTrace(r.value());
      if (trace.at({"query", "statement"}).AsString() != mql ||
          trace.at({"result", "rows"}).AsInt() != expected_rows.at(mql)) {
        ++wrong;
      }
    }
  };
  std::thread other(loop, history);
  loop(slice);
  other.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_P(ExplainTest, OverlappingQueryReportsOnlyItsOwnWork) {
  // A SELECT another session runs to completion while this session's
  // cursor is open must not show up in the cursor's trace: the cursor
  // reports exactly the storage work it reports alone. Hits, misses and
  // evictions depend on the pool state the other query leaves behind,
  // so only the work itself (store accesses, page fetches) is compared.
  const std::vector<std::string> statements = {
      "SELECT ALL FROM DeptMol WHERE Dept.name = 'dept-0' VALID AT 10",
      "SELECT ALL FROM DeptMol HISTORY",
  };
  TempDir dir;
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    auto db = OpenCompanyDb(dir.path() + "/p" + std::to_string(parallelism),
                            GetParam(), parallelism);
    Session reader = db->OpenSession();
    Session other = db->OpenSession();
    for (const std::string& mql : statements) {
      SCOPED_TRACE(mql + " at parallelism " + std::to_string(parallelism));
      MetricsSnapshot before = db->MetricsSnapshot();
      ASSERT_TRUE(reader.Execute(mql).ok());
      MetricsSnapshot after = db->MetricsSnapshot();
      const QueryStats solo = reader.last_query_stats();
      ASSERT_GT(solo.store.Total(), 0u);
      // Alone, the query did all the work: its trace includes what its
      // fan-out workers did on the pool threads.
      auto delta = [&](const char* name) {
        return after.CounterOr(name) - before.CounterOr(name);
      };
      EXPECT_EQ(solo.store.Total(),
                delta("tcob_store_get_as_of_total") +
                    delta("tcob_store_get_versions_total") +
                    delta("tcob_store_scan_as_of_total") +
                    delta("tcob_store_scan_versions_total"));
      EXPECT_EQ(solo.pool.fetches, delta("tcob_pool_fetches_total"));

      auto cursor = reader.Query(mql);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      ASSERT_TRUE(other.Execute("SELECT ALL FROM DeptMol HISTORY").ok());
      std::vector<Value> row;
      for (;;) {
        auto more = cursor.value()->Next(&row);
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        if (!more.value()) break;
      }
      const QueryStats overlapped = reader.last_query_stats();
      ASSERT_EQ(overlapped.statement, mql);
      EXPECT_EQ(overlapped.store.get_as_of, solo.store.get_as_of);
      EXPECT_EQ(overlapped.store.get_versions, solo.store.get_versions);
      EXPECT_EQ(overlapped.store.scan_as_of, solo.store.scan_as_of);
      EXPECT_EQ(overlapped.store.scan_versions, solo.store.scan_versions);
      EXPECT_EQ(overlapped.pool.fetches, solo.pool.fetches);
    }
  }
}

TEST_P(ExplainTest, ConcurrentQueriesReportSoloWork) {
  // Four threads share one database (fan-out 2) and loop EXPLAIN ANALYZE
  // over four statement shapes, each also opening a cursor it closes
  // after the first row. Every trace must report the storage work its
  // statement does alone, whatever else runs meanwhile.
  TempDir dir;
  auto db = OpenCompanyDb(dir.path() + "/db", GetParam(), 2);
  const std::vector<std::string> statements = {
      "EXPLAIN ANALYZE SELECT ALL FROM DeptMol WHERE Dept.name = 'dept-0' "
      "VALID AT 10",
      "EXPLAIN ANALYZE SELECT ALL FROM DeptMol HISTORY",
      "EXPLAIN ANALYZE SELECT COUNT(*), SUM(Emp.salary) FROM DeptMol "
      "VALID AT NOW",
      "EXPLAIN ANALYZE SELECT ALL FROM DeptMol ORDER BY ROOT DESC "
      "VALID IN [10, 40)",
  };
  auto work = [](const ResultSet& rs) {
    auto trace = IndexTrace(rs);
    return std::make_pair(trace.at({"store", "total_accesses"}).AsInt(),
                          trace.at({"buffer_pool", "fetches"}).AsInt());
  };
  std::map<std::string, std::pair<int64_t, int64_t>> solo;
  for (const std::string& mql : statements) {
    auto r = db->Execute(mql);
    ASSERT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
    solo[mql] = work(r.value());
    ASSERT_GT(solo[mql].first, 0) << mql;
  }

  std::atomic<int> failed{0};
  std::atomic<int> wrong{0};
  auto loop = [&](size_t t) {
    for (size_t i = 0; i < 3 * statements.size(); ++i) {
      const std::string& mql = statements[(t + i) % statements.size()];
      auto r = db->Execute(mql);
      if (!r.ok()) {
        ++failed;
        continue;
      }
      if (work(r.value()) != solo.at(mql)) ++wrong;
      auto cursor = db->Query("SELECT ALL FROM DeptMol HISTORY");
      std::vector<Value> row;
      if (!cursor.ok() || !cursor.value()->Next(&row).ok()) {
        ++failed;
        continue;
      }
      cursor.value()->Close();
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) threads.emplace_back(loop, t);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(SlowQueryLogTest, StreamingCursorLogsOnceAtFinalize) {
  // A slowly drained cursor must produce exactly one slow-query line,
  // emitted at finalize (after the last row) — not one line per Next()
  // and nothing at open.
  std::mutex mu;
  std::vector<std::string> lines;
  SetLogSink([&](const LogEntry& entry, const std::string& formatted) {
    if (entry.level == LogLevel::kWarn) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(formatted);
    }
  });
  auto slow_lines = [&] {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const std::string& line : lines) {
      if (line.find("slow query") != std::string::npos) ++n;
    }
    return n;
  };
  {
    TempDir dir;
    DatabaseOptions options;
    options.slow_query_threshold_micros = 1;  // everything is "slow"
    auto db = Database::Open(dir.path() + "/db", options).value();
    CompanyConfig config;
    config.depts = 2;
    config.emps_per_dept = 2;
    config.projs_per_emp = 1;
    config.versions_per_atom = 2;
    ASSERT_TRUE(BuildCompany(db.get(), config).ok());
    Session session = db->OpenSession();
    auto cursor = session.Query("SELECT ALL FROM DeptMol VALID AT NOW");
    ASSERT_TRUE(cursor.ok());
    // Drain one row at a time; nothing may be logged mid-stream.
    std::vector<Value> row;
    size_t rows = 0;
    while (true) {
      auto more = cursor.value()->Next(&row);
      ASSERT_TRUE(more.ok());
      if (!more.value()) break;
      ++rows;
      if (rows == 1) {
        EXPECT_EQ(slow_lines(), 0u);
      }
    }
    EXPECT_GT(rows, 0u);
    cursor.value()->Close();
    EXPECT_EQ(slow_lines(), 1u);
    EXPECT_EQ(session.last_query_stats().disposition, "ok");
  }
  SetLogSink(nullptr);
}

TEST(SlowQueryLogTest, ThresholdTriggersWarnLog) {
  std::vector<std::string> lines;
  SetLogSink([&lines](const LogEntry& entry, const std::string& formatted) {
    if (entry.level == LogLevel::kWarn) lines.push_back(formatted);
  });
  {
    TempDir dir;
    DatabaseOptions options;
    options.slow_query_threshold_micros = 1;  // everything is "slow"
    auto db = Database::Open(dir.path() + "/db", options).value();
    CompanyConfig config;
    config.depts = 2;
    config.emps_per_dept = 2;
    config.projs_per_emp = 1;
    config.versions_per_atom = 2;
    ASSERT_TRUE(BuildCompany(db.get(), config).ok());
    ASSERT_TRUE(db->Execute("SELECT ALL FROM DeptMol VALID AT NOW").ok());
    EXPECT_GE(db->MetricsSnapshot().CounterOr("tcob_slow_queries_total", 0),
              1u);
  }
  SetLogSink(nullptr);
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("slow query") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ExplainTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return std::string(
                               StorageStrategyName(info.param));
                         });

}  // namespace
}  // namespace tcob
