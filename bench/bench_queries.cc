// Table 3 (reconstructed): end-to-end MQL query suite.
//
// Eight representative statements of the temporal molecule query
// language, executed through the full stack (parser -> analyzer ->
// molecule engine -> stores) against the company database (10 x 10 x 1,
// 16 versions/atom), for each storage strategy. `rows` reports the
// result cardinality (identical across strategies — checked by the test
// suite; here it documents the workload).

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace tcob {
namespace bench {
namespace {

struct QueryCase {
  const char* label;
  const char* mql;  // "{PAST}" is replaced by an instant in the past
};

const QueryCase kQueries[] = {
    {"Q1_current_all", "SELECT ALL FROM DeptMol VALID AT NOW"},
    {"Q2_current_predicate",
     "SELECT Emp.name, Emp.salary FROM DeptMol WHERE Emp.salary > 3000 "
     "VALID AT NOW"},
    {"Q3_past_slice", "SELECT ALL FROM DeptMol VALID AT {PAST}"},
    {"Q4_window",
     "SELECT Dept.name, Emp.salary FROM DeptMol VALID IN [{PAST}, NOW)"},
    {"Q5_full_history", "SELECT Dept.name FROM DeptMol HISTORY"},
    // Departments are updated rarely, so many current Dept versions
    // reach back past the history midpoint — a discriminating predicate.
    {"Q6_temporal_predicate",
     "SELECT Dept.name FROM DeptMol WHERE VALID(Dept) CONTAINS {PAST} "
     "VALID AT NOW"},
    {"Q7_root_predicate",
     "SELECT ALL FROM DeptMol WHERE Dept.budget > 500 VALID AT NOW"},
    {"Q8_cross_type",
     "SELECT Emp.name FROM DeptMol WHERE Emp.salary > Dept.budget "
     "VALID AT NOW"},
};

std::string Instantiate(const char* mql, Timestamp past) {
  std::string out = mql;
  std::string needle = "{PAST}";
  for (size_t pos = out.find(needle); pos != std::string::npos;
       pos = out.find(needle)) {
    out.replace(pos, needle.size(), std::to_string(past));
  }
  return out;
}

void BM_MqlQuery(benchmark::State& state) {
  StorageStrategy strategy = static_cast<StorageStrategy>(state.range(0));
  const QueryCase& q = kQueries[state.range(1)];
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = 16;
  BenchDb* bench_db = GetCompanyDb(strategy, config);
  Database* db = bench_db->db.get();
  // "The past": the middle of the recorded history (of the database as
  // built — smoke mode clamps the requested config).
  const CompanyConfig& built = bench_db->config;
  Timestamp past = RoundTime(built, built.versions_per_atom / 2);
  std::string mql = Instantiate(q.mql, past);

  size_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchCheck(db->pool()->Reset(), "cold cache");
    state.ResumeTiming();
    auto result = db->Execute(mql);
    BenchCheck(result.status(), q.label);
    rows = result.value().RowCount();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetLabel(std::string(StorageStrategyName(strategy)) + "/" + q.label);
}

BENCHMARK(BM_MqlQuery)
    ->ArgNames({"strategy", "query"})
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2, 3, 4, 5, 6, 7}})
    ->Unit(benchmark::kMillisecond);

// Streaming cursor vs materialized execution as the result grows 64x
// (depts 1 -> 64). The claim under test: cursor first-row latency and
// buffered memory stay flat in the result size while the materialized
// path grows linearly. `first_row_micros` is measured at the consumer
// (statement submitted -> first row in hand); `peak_buffered_rows`
// comes from the engine trace and is exact. Cursor cases run first
// (path=0) so the process-wide peak-RSS record of a cursor run is never
// inflated by an earlier materialized result of the same scale.
void BM_StreamingScan(benchmark::State& state) {
  const bool use_cursor = state.range(0) == 0;
  CompanyConfig config;
  config.depts = static_cast<size_t>(state.range(1));
  config.emps_per_dept = 8;
  config.versions_per_atom = 8;
  const bool history = state.range(2) == 0;
  BenchDb* bench_db = GetCompanyDb(StorageStrategy::kSnapshot, config);
  Database* db = bench_db->db.get();
  const CompanyConfig& built = bench_db->config;
  Timestamp past = RoundTime(built, built.versions_per_atom / 2);
  std::string mql =
      history ? std::string("SELECT ALL FROM DeptMol HISTORY")
              : Instantiate("SELECT ALL FROM DeptMol VALID IN [{PAST}, NOW)",
                            past);

  double first_row_us = 0;
  double total_us = 0;
  size_t rows = 0;
  double peak_buffered = 0;
  Session session = db->OpenSession();
  for (auto _ : state) {
    StopwatchUs timer;
    if (use_cursor) {
      auto cursor = session.Query(mql);
      BenchCheck(cursor.status(), "open cursor");
      std::vector<Value> row;
      auto first = cursor.value()->Next(&row);
      BenchCheck(first.status(), "first row");
      first_row_us = timer.ElapsedUs();
      rows = first.value() ? 1 : 0;
      std::vector<std::vector<Value>> batch;
      while (true) {
        auto n = cursor.value()->NextBatch(256, &batch);
        BenchCheck(n.status(), "drain cursor");
        rows += n.value();
        if (n.value() < 256) break;
      }
      cursor.value()->Close();
    } else {
      auto result = session.Execute(mql);
      BenchCheck(result.status(), "execute");
      // The materialized surface has no earlier "first row" instant:
      // every row exists only once Execute returns.
      first_row_us = timer.ElapsedUs();
      rows = result.value().RowCount();
    }
    total_us = timer.ElapsedUs();
    peak_buffered =
        static_cast<double>(session.last_query_stats().peak_buffered_rows);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["first_row_micros"] = first_row_us;
  state.counters["total_micros"] = total_us;
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["peak_buffered_rows"] = peak_buffered;
  state.SetLabel(std::string(use_cursor ? "cursor" : "materialized") + "/" +
                 (history ? "history" : "window") + "/depts" +
                 std::to_string(config.depts));
}

BENCHMARK(BM_StreamingScan)
    ->ArgNames({"path", "depts", "mode"})
    ->ArgsProduct({{0, 1}, {1, 8, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Flight-recorder overhead twins: the same hot-cache query against two
// otherwise-identical databases, one with the trace ring recording
// (production default) and one with it disabled. The claim under test:
// always-on tracing costs < 3% — every emit is one branch plus four
// relaxed stores into a thread-local ring, never a lock or allocation.
// Hot cache (no pool reset) is the adversarial case: with I/O out of
// the picture, the emit cost is the largest fraction of the iteration.
void BM_TraceOverhead(benchmark::State& state) {
  const bool trace_on = state.range(0) == 1;
  CompanyConfig config;
  config.depts = 10;
  config.emps_per_dept = 10;
  config.versions_per_atom = 16;
  BenchDb* bench_db =
      GetCompanyDb(StorageStrategy::kSnapshot, config, /*version_index=*/true,
                   /*pool_pages=*/1024, /*tiering=*/{}, trace_on);
  Database* db = bench_db->db.get();
  const CompanyConfig& built = bench_db->config;
  Timestamp past = RoundTime(built, built.versions_per_atom / 2);
  std::string mql = Instantiate(kQueries[1].mql, past);  // Q2 predicate scan

  size_t rows = 0;
  for (auto _ : state) {
    auto result = db->Execute(mql);
    BenchCheck(result.status(), "trace overhead query");
    rows = result.value().RowCount();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["trace_events_recorded"] = static_cast<double>(
      db->trace_recorder()->recorded(kTraceCatQuery) +
      db->trace_recorder()->recorded(kTraceCatSpan));
  state.SetLabel(trace_on ? "trace_on" : "trace_off");
}

BENCHMARK(BM_TraceOverhead)
    ->ArgNames({"trace"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace tcob

TCOB_BENCH_MAIN();
