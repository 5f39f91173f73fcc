#include "tstore/temporal_store.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "common/temp_dir.h"
#include "tstore/store_factory.h"

namespace tcob {
namespace {

/// Test configurations: the three strategies, plus separated without its
/// version index (the Fig. 10 ablation).
struct StoreConfig {
  StorageStrategy strategy;
  bool version_index;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const StoreConfig& c) {
  return os << c.label;
}

class TStoreTest : public ::testing::TestWithParam<StoreConfig> {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(dir_.path() + "/db");
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(dm).value();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 512);
    StoreOptions options;
    options.separated_version_index = GetParam().version_index;
    store_ = MakeTemporalStore(GetParam().strategy, pool_.get(), "store",
                               options);
    type_.id = 1;
    type_.name = "Emp";
    type_.attributes = {{"name", AttrType::kString},
                        {"salary", AttrType::kInt}};
  }

  std::vector<Value> Attrs(const std::string& name, int64_t salary) {
    return {Value::String(name), Value::Int(salary)};
  }

  TempDir dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<TemporalAtomStore> store_;
  AtomTypeDef type_;
};

TEST_P(TStoreTest, InsertAndGetCurrent) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("ada", 100), 10).ok());
  auto v = store_->GetAsOf(type_, 1, 50).value();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->id, 1u);
  EXPECT_EQ(v->version_no, 1u);
  EXPECT_EQ(v->valid, Interval(10, kForever));
  EXPECT_EQ(v->attrs[0].AsString(), "ada");
}

TEST_P(TStoreTest, GetBeforeBirthIsEmpty) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("ada", 100), 10).ok());
  EXPECT_FALSE(store_->GetAsOf(type_, 1, 9).value().has_value());
  EXPECT_TRUE(store_->GetAsOf(type_, 99, 9).status().IsNotFound());
}

TEST_P(TStoreTest, UpdateCreatesVersions) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("ada", 100), 10).ok());
  ASSERT_TRUE(store_->Update(type_, 1, Attrs("ada", 200), 20).ok());
  ASSERT_TRUE(store_->Update(type_, 1, Attrs("ada", 300), 30).ok());

  EXPECT_EQ(store_->GetAsOf(type_, 1, 15).value()->attrs[1].AsInt(), 100);
  EXPECT_EQ(store_->GetAsOf(type_, 1, 20).value()->attrs[1].AsInt(), 200);
  EXPECT_EQ(store_->GetAsOf(type_, 1, 29).value()->attrs[1].AsInt(), 200);
  EXPECT_EQ(store_->GetAsOf(type_, 1, 1000).value()->attrs[1].AsInt(), 300);

  auto versions = store_->GetVersions(type_, 1, Interval::All()).value();
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].valid, Interval(10, 20));
  EXPECT_EQ(versions[1].valid, Interval(20, 30));
  EXPECT_EQ(versions[2].valid, Interval(30, kForever));
  EXPECT_EQ(versions[0].version_no, 1u);
  EXPECT_EQ(versions[2].version_no, 3u);
}

TEST_P(TStoreTest, DeleteEndsValidity) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("ada", 100), 10).ok());
  ASSERT_TRUE(store_->Delete(type_, 1, 30).ok());
  EXPECT_TRUE(store_->GetAsOf(type_, 1, 20).value().has_value());
  EXPECT_FALSE(store_->GetAsOf(type_, 1, 30).value().has_value());
  EXPECT_FALSE(store_->GetAsOf(type_, 1, 1000).value().has_value());
}

TEST_P(TStoreTest, ReinsertAfterDeleteResumesHistory) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("ada", 100), 10).ok());
  ASSERT_TRUE(store_->Delete(type_, 1, 20).ok());
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("ada2", 150), 40).ok());
  EXPECT_FALSE(store_->GetAsOf(type_, 1, 25).value().has_value());  // gap
  auto v = store_->GetAsOf(type_, 1, 45).value();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->attrs[0].AsString(), "ada2");
  EXPECT_EQ(v->version_no, 2u);
  auto versions = store_->GetVersions(type_, 1, Interval::All()).value();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].valid, Interval(10, 20));
  EXPECT_EQ(versions[1].valid, Interval(40, kForever));
}

TEST_P(TStoreTest, MutationErrorCases) {
  EXPECT_TRUE(store_->Update(type_, 9, Attrs("x", 1), 5).IsNotFound());
  EXPECT_TRUE(store_->Delete(type_, 9, 5).IsNotFound());
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("a", 1), 10).ok());
  // Double insert of a live atom at a different instant.
  EXPECT_TRUE(store_->Insert(type_, 1, Attrs("b", 2), 11).IsAlreadyExists());
  // Update strictly before the live version began.
  EXPECT_TRUE(store_->Update(type_, 1, Attrs("b", 2), 5).IsInvalidArgument());
  // Delete at or before begin.
  EXPECT_TRUE(store_->Delete(type_, 1, 10).IsInvalidArgument());
  ASSERT_TRUE(store_->Delete(type_, 1, 20).ok());
  // Update of a dead atom (not at the deletion instant).
  EXPECT_TRUE(store_->Update(type_, 1, Attrs("b", 2), 30).IsInvalidArgument());
  // Re-insert before the deletion point.
  EXPECT_TRUE(store_->Insert(type_, 1, Attrs("b", 2), 15).IsInvalidArgument());
}

TEST_P(TStoreTest, ReappliedMutationIsRejected) {
  auto history = [&] {
    std::vector<std::pair<Interval, int64_t>> out;
    auto versions = store_->GetVersions(type_, 1, Interval::All());
    EXPECT_TRUE(versions.ok()) << versions.status().ToString();
    if (!versions.ok()) return out;
    for (const AtomVersion& v : versions.value()) {
      out.emplace_back(v.valid, v.attrs[1].AsInt());
    }
    return out;
  };
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("a", 1), 10).ok());
  ASSERT_TRUE(store_->Update(type_, 1, Attrs("b", 2), 20).ok());
  auto live = history();
  // A mutation at an instant that already holds its boundary is
  // rejected, never acknowledged without effect — live atom first.
  EXPECT_TRUE(store_->Insert(type_, 1, Attrs("a", 1), 10).IsAlreadyExists());
  EXPECT_TRUE(
      store_->Update(type_, 1, Attrs("c", 3), 20).IsInvalidArgument());
  EXPECT_EQ(history(), live);

  ASSERT_TRUE(store_->Delete(type_, 1, 30).ok());
  auto dead = history();
  ASSERT_EQ(dead.size(), 2u);
  EXPECT_EQ(dead[0].first, Interval(10, 20));
  EXPECT_EQ(dead[1].first, Interval(20, 30));
  EXPECT_FALSE(store_->Insert(type_, 1, Attrs("a", 1), 10).ok());
  EXPECT_FALSE(store_->Update(type_, 1, Attrs("b", 2), 20).ok());
  EXPECT_FALSE(store_->Delete(type_, 1, 30).ok());
  EXPECT_EQ(history(), dead);
}

TEST_P(TStoreTest, GetVersionsWindowFilters) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("a", 1), 10).ok());
  for (Timestamp t = 20; t <= 100; t += 10) {
    ASSERT_TRUE(store_->Update(type_, 1, Attrs("a", t), t).ok());
  }
  auto versions = store_->GetVersions(type_, 1, Interval(35, 65)).value();
  // Versions [30,40) [40,50) [50,60) [60,70) overlap [35,65).
  ASSERT_EQ(versions.size(), 4u);
  EXPECT_EQ(versions[0].valid, Interval(30, 40));
  EXPECT_EQ(versions[3].valid, Interval(60, 70));
}

TEST_P(TStoreTest, ScanAsOfStreamsAllLiveAtoms) {
  for (AtomId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(
        store_->Insert(type_, id,
                       Attrs(std::string("e").append(std::to_string(id)), 0),
                       10)
            .ok());
  }
  // Kill the even atoms at 50.
  for (AtomId id = 2; id <= 20; id += 2) {
    ASSERT_TRUE(store_->Delete(type_, id, 50).ok());
  }
  std::set<AtomId> at_40, at_60;
  ASSERT_TRUE(store_->ScanAsOf(type_, 40, [&](const AtomVersion& v) {
                      at_40.insert(v.id);
                      return Result<bool>(true);
                    }).ok());
  ASSERT_TRUE(store_->ScanAsOf(type_, 60, [&](const AtomVersion& v) {
                      at_60.insert(v.id);
                      return Result<bool>(true);
                    }).ok());
  EXPECT_EQ(at_40.size(), 20u);
  EXPECT_EQ(at_60.size(), 10u);
  for (AtomId id = 1; id <= 20; id += 2) EXPECT_TRUE(at_60.count(id));
}

TEST_P(TStoreTest, ScanAsOfFindsPastVersions) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("a", 1), 10).ok());
  ASSERT_TRUE(store_->Update(type_, 1, Attrs("a", 2), 20).ok());
  ASSERT_TRUE(store_->Update(type_, 1, Attrs("a", 3), 30).ok());
  int64_t salary = -1;
  ASSERT_TRUE(store_->ScanAsOf(type_, 15, [&](const AtomVersion& v) {
                      salary = v.attrs[1].AsInt();
                      return Result<bool>(true);
                    }).ok());
  EXPECT_EQ(salary, 1);
}

TEST_P(TStoreTest, ScanVersionsStreamsEverything) {
  for (AtomId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(store_->Insert(type_, id, Attrs("e", 0), 10).ok());
    ASSERT_TRUE(store_->Update(type_, id, Attrs("e", 1), 20).ok());
    ASSERT_TRUE(store_->Update(type_, id, Attrs("e", 2), 30).ok());
  }
  size_t count = 0;
  ASSERT_TRUE(store_->ScanVersions(type_, Interval::All(),
                                   [&](const AtomVersion&) {
                                     ++count;
                                     return Result<bool>(true);
                                   })
                  .ok());
  EXPECT_EQ(count, 15u);
  count = 0;
  ASSERT_TRUE(store_->ScanVersions(type_, Interval(25, 100),
                                   [&](const AtomVersion&) {
                                     ++count;
                                     return Result<bool>(true);
                                   })
                  .ok());
  EXPECT_EQ(count, 10u);  // [20,30) and [30,inf) per atom
}

TEST_P(TStoreTest, LongHistories) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("e", 0), 1).ok());
  for (Timestamp t = 2; t <= 200; ++t) {
    ASSERT_TRUE(store_->Update(type_, 1, Attrs("e", t), t).ok());
  }
  // Probe every chronon.
  for (Timestamp t = 1; t <= 200; ++t) {
    auto v = store_->GetAsOf(type_, 1, t).value();
    ASSERT_TRUE(v.has_value()) << t;
    EXPECT_EQ(v->attrs[1].AsInt(), t == 1 ? 0 : t) << t;
  }
  EXPECT_EQ(store_->GetVersions(type_, 1, Interval::All()).value().size(),
            200u);
}

TEST_P(TStoreTest, PersistsAcrossReopen) {
  ASSERT_TRUE(store_->Insert(type_, 1, Attrs("a", 1), 10).ok());
  ASSERT_TRUE(store_->Update(type_, 1, Attrs("b", 2), 20).ok());
  ASSERT_TRUE(store_->Flush().ok());
  store_.reset();
  pool_ = std::make_unique<BufferPool>(disk_.get(), 512);
  StoreOptions options;
  options.separated_version_index = GetParam().version_index;
  store_ =
      MakeTemporalStore(GetParam().strategy, pool_.get(), "store", options);
  auto versions = store_->GetVersions(type_, 1, Interval::All()).value();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[1].attrs[0].AsString(), "b");
}

TEST_P(TStoreTest, SpaceStatsNonTrivial) {
  for (AtomId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(store_->Insert(type_, id, Attrs("e", 0), 10).ok());
    ASSERT_TRUE(store_->Update(type_, id, Attrs("e", 1), 20).ok());
  }
  auto stats = store_->SpaceStats().value();
  EXPECT_GT(stats.heap_pages, 0u);
  EXPECT_GT(stats.total_bytes, 0u);
}

// The model-level property: every strategy is an implementation of the
// same abstract versioned-atom store. Drive a random operation sequence
// against the store and an in-memory reference; all reads must agree.
TEST_P(TStoreTest, RandomizedEquivalenceWithReferenceModel) {
  struct RefVersion {
    Interval valid;
    int64_t salary;
  };
  std::map<AtomId, std::vector<RefVersion>> reference;
  Random rng(2024);
  Timestamp clock = 1;
  const int kAtoms = 12;

  for (int step = 0; step < 600; ++step) {
    AtomId id = 1 + rng.Uniform(kAtoms);
    clock += 1 + rng.Uniform(3);
    auto& hist = reference[id];
    bool live = !hist.empty() && hist.back().valid.open_ended();
    int64_t salary = static_cast<int64_t>(rng.Uniform(100000));
    if (!live) {
      ASSERT_TRUE(
          store_->Insert(type_, id, Attrs("e", salary), clock).ok());
      hist.push_back({Interval(clock, kForever), salary});
    } else if (rng.Bernoulli(0.15)) {
      ASSERT_TRUE(store_->Delete(type_, id, clock).ok());
      hist.back().valid.end = clock;
    } else {
      ASSERT_TRUE(
          store_->Update(type_, id, Attrs("e", salary), clock).ok());
      hist.back().valid.end = clock;
      hist.push_back({Interval(clock, kForever), salary});
    }
  }

  // Point probes across the whole timeline.
  for (AtomId id = 1; id <= kAtoms; ++id) {
    const auto& hist = reference[id];
    if (hist.empty()) continue;
    for (Timestamp t = 0; t <= clock + 5; t += 1 + t / 37) {
      const RefVersion* expected = nullptr;
      for (const RefVersion& v : hist) {
        if (v.valid.Contains(t)) expected = &v;
      }
      auto got = store_->GetAsOf(type_, id, t).value();
      ASSERT_EQ(got.has_value(), expected != nullptr)
          << "atom " << id << " at " << t;
      if (expected != nullptr) {
        ASSERT_EQ(got->attrs[1].AsInt(), expected->salary)
            << "atom " << id << " at " << t;
        ASSERT_EQ(got->valid, expected->valid);
      }
    }
    // Full history agrees.
    auto versions = store_->GetVersions(type_, id, Interval::All()).value();
    ASSERT_EQ(versions.size(), hist.size()) << "atom " << id;
    for (size_t i = 0; i < hist.size(); ++i) {
      ASSERT_EQ(versions[i].valid, hist[i].valid);
      ASSERT_EQ(versions[i].attrs[1].AsInt(), hist[i].salary);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, TStoreTest,
    ::testing::Values(
        StoreConfig{StorageStrategy::kSnapshot, true, "snapshot"},
        StoreConfig{StorageStrategy::kIntegrated, true, "integrated"},
        StoreConfig{StorageStrategy::kSeparated, true, "separated_vidx"},
        StoreConfig{StorageStrategy::kSeparated, false,
                    "separated_no_vidx"}),
    [](const ::testing::TestParamInfo<StoreConfig>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace tcob
