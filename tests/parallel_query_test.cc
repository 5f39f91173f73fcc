// Parallel read-path determinism: the same statements against the same
// data must render byte-identical ResultSets whether materialization
// runs serially (parallelism = 1) or fanned out across workers.

#include <gtest/gtest.h>
#include <sched.h>

#include <string>
#include <vector>

#include "common/temp_dir.h"
#include "workload/company.h"

namespace tcob {
namespace {

/// Builds the company workload once per parallelism level (separate
/// directories, identical config) and renders each statement.
std::vector<std::string> RenderAll(const std::string& dir, size_t parallelism,
                                   const std::vector<std::string>& statements,
                                   StorageStrategy strategy) {
  DatabaseOptions options;
  options.strategy = strategy;
  options.parallelism = parallelism;
  auto db = Database::Open(dir, options).value();
  CompanyConfig config;
  config.depts = 6;
  config.emps_per_dept = 5;
  config.projs_per_emp = 2;
  config.versions_per_atom = 5;
  auto handles = BuildCompany(db.get(), config);
  EXPECT_TRUE(handles.ok()) << handles.status().ToString();
  // An index so the executor's index access path gets exercised too.
  EXPECT_TRUE(db->Execute("CREATE INDEX emp_salary ON Emp (salary)").ok());
  std::vector<std::string> renders;
  for (const std::string& mql : statements) {
    auto r = db->Execute(mql);
    EXPECT_TRUE(r.ok()) << mql << ": " << r.status().ToString();
    renders.push_back(r.ok() ? r.value().ToString() : "<error>");
  }
  return renders;
}

class ParallelQueryTest
    : public ::testing::TestWithParam<StorageStrategy> {};

TEST_P(ParallelQueryTest, SerialAndParallelResultsAreIdentical) {
  const std::vector<std::string> statements = {
      // Time-slice over every molecule (sequential-scan access path).
      "SELECT ALL FROM DeptMol ORDER BY ROOT VALID AT NOW",
      "SELECT ALL FROM DeptMol ORDER BY ROOT VALID AT 25",
      // Index access path (version-grained secondary index on salary).
      "SELECT Emp.name, Emp.salary FROM DeptMol WHERE Emp.salary >= 0 "
      "ORDER BY ROOT VALID AT NOW",
      // Windowed history slice.
      "SELECT ALL FROM DeptMol ORDER BY ROOT VALID IN [10, 40)",
      // Full history of every molecule.
      "SELECT ALL FROM DeptMol ORDER BY ROOT HISTORY",
      // Aggregates fold over the parallel-materialized rows.
      "SELECT COUNT(*), SUM(Emp.salary), AVG(Emp.salary) FROM DeptMol "
      "VALID AT NOW",
      "SELECT COUNT(*), MAX(Emp.salary) FROM DeptMol VALID IN [10, 60)",
  };
  TempDir dir;
  std::vector<std::string> serial =
      RenderAll(dir.path() + "/serial", 1, statements, GetParam());
  std::vector<std::string> parallel =
      RenderAll(dir.path() + "/parallel", 8, statements, GetParam());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i])
        << "statement " << i << " (" << statements[i]
        << ") diverged between parallelism=1 and parallelism=8";
  }
  // Sanity: results are non-trivial, not identical-because-empty.
  for (const std::string& render : serial) {
    EXPECT_FALSE(render.empty());
  }
}

/// Pins the calling thread to its first allowed CPU for the guard's
/// lifetime, restoring the original affinity mask afterwards.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (!ok_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    ok_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

TEST(ParallelismDefaultTest, OneAllowedCpuMeansNoFanOut) {
  PinToOneCpu pin;
  ASSERT_TRUE(pin.ok());
  TempDir dir;
  auto db = Database::Open(dir.path() + "/db", DatabaseOptions()).value();
  CompanyConfig config;
  config.depts = 6;
  config.emps_per_dept = 2;
  config.projs_per_emp = 1;
  config.versions_per_atom = 2;
  ASSERT_TRUE(BuildCompany(db.get(), config).ok());
  auto r = db->Execute("EXPLAIN ANALYZE SELECT ALL FROM DeptMol VALID AT NOW");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_parallelism = false;
  for (const auto& row : r.value().rows) {
    EXPECT_NE(row[0].AsString(), "workers") << row[1].AsString();
    if (row[0].AsString() == "query" && row[1].AsString() == "parallelism") {
      saw_parallelism = true;
      EXPECT_EQ(row[2].AsInt(), 1);
    }
    if (row[0].AsString() == "result" && row[1].AsString() == "molecules") {
      EXPECT_EQ(row[2].AsInt(), 6);
    }
  }
  EXPECT_TRUE(saw_parallelism);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ParallelQueryTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return std::string(
                               StorageStrategyName(info.param));
                         });

}  // namespace
}  // namespace tcob
