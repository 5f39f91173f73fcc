// Determinism and shape guarantees of the synthetic benchmark workload,
// plus DiskManager edge cases not covered through the buffer pool.

#include "workload/company.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "storage/disk_manager.h"

namespace tcob {
namespace {

TEST(CompanyWorkloadTest, DeterministicAcrossRuns) {
  // Two databases built from the same config must be byte-for-byte
  // equivalent at the query level — the benchmarks depend on it.
  TempDir dir;
  std::vector<std::string> renders;
  for (const char* sub : {"a", "b"}) {
    auto db = Database::Open(dir.path() + "/" + sub, {}).value();
    CompanyConfig config;
    config.depts = 3;
    config.emps_per_dept = 2;
    config.versions_per_atom = 4;
    auto handles = BuildCompany(db.get(), config);
    ASSERT_TRUE(handles.ok());
    auto r = db->Execute(
        "SELECT ALL FROM DeptMol ORDER BY ROOT VALID AT NOW");
    ASSERT_TRUE(r.ok());
    renders.push_back(r.value().ToString());
    EXPECT_EQ(handles->emps.size(), 6u);
    EXPECT_EQ(handles->last_time,
              config.base + 3 * config.stride + 1);
  }
  EXPECT_EQ(renders[0], renders[1]);
}

TEST(CompanyWorkloadTest, VersionCountsMatchConfig) {
  TempDir dir;
  auto db = Database::Open(dir.path() + "/db", {}).value();
  CompanyConfig config;
  config.depts = 2;
  config.emps_per_dept = 3;
  config.projs_per_emp = 2;
  config.versions_per_atom = 5;
  auto handles = BuildCompany(db.get(), config);
  ASSERT_TRUE(handles.ok());
  EXPECT_EQ(handles->projs.size(), 12u);
  const AtomTypeDef* emp = db->catalog().GetAtomTypeByName("Emp").value();
  const AtomTypeDef* proj = db->catalog().GetAtomTypeByName("Proj").value();
  for (AtomId id : handles->emps) {
    EXPECT_EQ(
        db->store()->GetVersions(*emp, id, Interval::All()).value().size(),
        5u);
  }
  // Projects are never updated: exactly one version each.
  for (AtomId id : handles->projs) {
    EXPECT_EQ(
        db->store()->GetVersions(*proj, id, Interval::All()).value().size(),
        1u);
  }
}

TEST(DiskManagerTest, FileLifecycle) {
  TempDir dir;
  auto dm = DiskManager::Open(dir.path() + "/db").value();
  FileId f = dm->OpenFile("data").value();
  EXPECT_EQ(dm->NumPages(f).value(), 0u);
  PageNo p0 = dm->AllocatePage(f).value();
  PageNo p1 = dm->AllocatePage(f).value();
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(dm->NumPages(f).value(), 2u);

  char buf[kPageSize];
  memset(buf, 0xAB, sizeof(buf));
  ASSERT_TRUE(dm->WritePage(f, 1, buf).ok());
  char read_buf[kPageSize] = {0};
  ASSERT_TRUE(dm->ReadPage(f, 1, read_buf).ok());
  EXPECT_EQ(memcmp(buf, read_buf, kPageSize), 0);
  // Fresh pages are zeroed in the data area, with a valid checksum
  // footer so an unwritten page still verifies.
  ASSERT_TRUE(dm->ReadPage(f, 0, read_buf).ok());
  for (size_t i = 0; i < kPageDataSize; ++i) ASSERT_EQ(read_buf[i], 0);
  EXPECT_TRUE(PageChecksumOk(read_buf));

  EXPECT_TRUE(dm->ReadPage(f, 99, read_buf).IsOutOfRange());
  EXPECT_TRUE(dm->WritePage(f, 99, buf).IsOutOfRange());
  EXPECT_TRUE(dm->ReadPage(999, 0, read_buf).IsInvalidArgument());
  EXPECT_GE(dm->stats().reads, 2u);
  EXPECT_GE(dm->stats().writes, 1u);
  EXPECT_EQ(dm->stats().allocations, 2u);

  // Reopening the same name returns the same id; a new name a new id.
  EXPECT_EQ(dm->OpenFile("data").value(), f);
  EXPECT_NE(dm->OpenFile("other").value(), f);

  ASSERT_TRUE(dm->Truncate(f).ok());
  EXPECT_EQ(dm->NumPages(f).value(), 0u);
  ASSERT_TRUE(dm->SyncAll().ok());
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  TempDir dir;
  {
    auto dm = DiskManager::Open(dir.path() + "/db").value();
    FileId f = dm->OpenFile("data").value();
    (void)dm->AllocatePage(f).value();
    char buf[kPageSize];
    memset(buf, 0x5C, sizeof(buf));
    ASSERT_TRUE(dm->WritePage(f, 0, buf).ok());
    ASSERT_TRUE(dm->SyncAll().ok());
  }
  auto dm = DiskManager::Open(dir.path() + "/db").value();
  FileId f = dm->OpenFile("data").value();
  EXPECT_EQ(dm->NumPages(f).value(), 1u);
  char buf[kPageSize];
  ASSERT_TRUE(dm->ReadPage(f, 0, buf).ok());
  EXPECT_EQ(static_cast<unsigned char>(buf[17]), 0x5C);
}

TEST(ExecuteScriptTest, RunsAllAndStopsOnError) {
  TempDir dir;
  auto db = Database::Open(dir.path() + "/db", {}).value();
  Session session = db->OpenSession();
  auto results = session.ExecuteScript(R"(
    CREATE ATOM_TYPE T (x INT);
    INSERT ATOM T (x=1) VALID FROM 5;
    INSERT ATOM T (x=2) VALID FROM 5;
  )");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(results.value().size(), 3u);
  EXPECT_NE(results.value()[1].inserted_id, kInvalidAtomId);
  // Error mid-script propagates.
  auto bad = session.ExecuteScript("CREATE ATOM_TYPE U (y INT); garbage;");
  EXPECT_TRUE(bad.status().IsParseError());
}

}  // namespace
}  // namespace tcob
