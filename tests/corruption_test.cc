// Corruption-injection suite: flip one byte in every page of every data
// file and prove the damage is *detected* — VerifyIntegrity names the
// file and page, and queries either succeed (the page was not needed) or
// fail with Status::Corruption. Silent wrong answers and crashes are the
// two outcomes this test exists to rule out.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/temp_dir.h"
#include "db/database.h"
#include "storage/page.h"

namespace tcob {
namespace {

constexpr char kWorkload[] = R"(
  CREATE ATOM_TYPE Dept (name STRING, budget INT);
  CREATE ATOM_TYPE Emp (name STRING, salary INT);
  CREATE LINK DeptEmp FROM Dept TO Emp;
  CREATE MOLECULE_TYPE DeptMol ROOT Dept EDGES (DeptEmp FORWARD);
  CREATE INDEX EmpSalary ON Emp (salary);
  INSERT ATOM Dept (name='eng', budget=100) VALID FROM 10;
  INSERT ATOM Emp (name='ada', salary=10) VALID FROM 10;
  INSERT ATOM Emp (name='bob', salary=20) VALID FROM 10;
  CONNECT DeptEmp FROM 1 TO 2 VALID FROM 10;
  CONNECT DeptEmp FROM 1 TO 3 VALID FROM 10;
  UPDATE ATOM Emp 2 SET salary=11 VALID FROM 20;
  UPDATE ATOM Emp 3 SET salary=21 VALID FROM 20;
  UPDATE ATOM Emp 2 SET salary=12 VALID FROM 30;
  DELETE ATOM Emp 3 VALID FROM 40;
)";

/// Files with their own (non-page) integrity handling.
bool IsPageFile(const std::string& name) {
  return name != "catalog.tcob" && name != "clock.tcob" && name != "wal.log" &&
         name != "pages.journal" && name.find(".tmp") == std::string::npos;
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

class CorruptionTest : public ::testing::TestWithParam<StorageStrategy> {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.strategy = GetParam();
    options.buffer_pool_pages = 16;
    options.parallelism = 1;
    return options;
  }

  std::string db_dir() const { return dir_.path() + "/db"; }

  void Populate() {
    auto db = Database::Open(db_dir(), Options()).value();
    auto results = db->OpenSession().ExecuteScript(kWorkload);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    // Touch every query path once so all files exist on disk, then
    // checkpoint so the WAL is empty and the image is fully flushed.
    ASSERT_TRUE(db->Execute("SELECT ALL FROM DeptMol VALID AT 25").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->VerifyIntegrity().ok());
  }

  std::vector<std::string> PageFiles() const {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(db_dir())) {
      std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && IsPageFile(name)) out.push_back(name);
    }
    return out;
  }

  /// Queries spanning all storage structures (stores, links, indexes).
  void ExpectQueriesCleanOrCorruption(Database* db) {
    for (const char* q :
         {"SELECT ALL FROM DeptMol VALID AT 25",
          "SELECT Emp.name, Emp.salary FROM DeptMol HISTORY",
          "SELECT Emp.name FROM DeptMol WHERE Emp.salary = 11 VALID AT 25"}) {
      auto r = db->Execute(q);
      EXPECT_TRUE(r.ok() || r.status().IsCorruption())
          << q << " returned: " << r.status().ToString();
    }
  }

  TempDir dir_;
};

TEST_P(CorruptionTest, EveryFlippedPageIsDetectedByVerify) {
  Populate();
  size_t pages_checked = 0;
  for (const std::string& name : PageFiles()) {
    const std::string path = db_dir() + "/" + name;
    const uint64_t size = std::filesystem::file_size(path);
    ASSERT_EQ(size % kPageSize, 0u) << name;
    for (uint64_t page = 0; page < size / kPageSize; ++page) {
      // One byte per page, at a page-dependent offset so headers, record
      // bodies, free space, and the checksum footer all get hit across
      // the sweep.
      const uint64_t offset = page * kPageSize + (page * 997 + 13) % kPageSize;
      FlipByte(path, offset);
      {
        auto db = Database::Open(db_dir(), Options());
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        Status verdict = (*db)->VerifyIntegrity();
        EXPECT_TRUE(verdict.IsCorruption())
            << name << " page " << page << ": " << verdict.ToString();
        EXPECT_NE(verdict.message().find(name), std::string::npos)
            << verdict.ToString();
        EXPECT_NE(verdict.message().find("page " + std::to_string(page)),
                  std::string::npos)
            << verdict.ToString();
      }
      FlipByte(path, offset);  // restore
      ++pages_checked;
    }
  }
  EXPECT_GT(pages_checked, 10u);
  // After restoring every byte, the database is whole again.
  auto db = Database::Open(db_dir(), Options()).value();
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_P(CorruptionTest, QueriesNeverReturnWrongAnswersFromFlippedPages) {
  Populate();
  for (const std::string& name : PageFiles()) {
    const std::string path = db_dir() + "/" + name;
    const uint64_t size = std::filesystem::file_size(path);
    for (uint64_t page = 0; page < size / kPageSize; ++page) {
      // Hit the record area: early in the page, past the header.
      const uint64_t offset = page * kPageSize + 64;
      FlipByte(path, offset);
      {
        auto db = Database::Open(db_dir(), Options());
        // Open itself may already trip over the flipped page.
        if (db.ok()) {
          ExpectQueriesCleanOrCorruption(db->get());
        } else {
          EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
        }
      }
      FlipByte(path, offset);
    }
  }
}

TEST_P(CorruptionTest, CorruptMetaFileIsDiagnosedNotTrusted) {
  Populate();
  const std::string meta = db_dir() + "/clock.tcob";
  const uint64_t size = std::filesystem::file_size(meta);
  for (uint64_t off = 0; off < size; ++off) {
    FlipByte(meta, off);
    auto db = Database::Open(db_dir(), Options());
    EXPECT_TRUE(!db.ok()) << "flipped meta byte " << off << " went unnoticed";
    if (!db.ok()) {
      EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
    }
    FlipByte(meta, off);
  }
  EXPECT_TRUE(Database::Open(db_dir(), Options()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, CorruptionTest,
                         ::testing::Values(StorageStrategy::kSnapshot,
                                           StorageStrategy::kIntegrated,
                                           StorageStrategy::kSeparated),
                         [](const auto& info) {
                           return StorageStrategyName(info.param);
                         });

}  // namespace
}  // namespace tcob
